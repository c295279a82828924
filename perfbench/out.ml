(* Run accounting and the result line.

   Every library call the benchmark times is an operation: [op] counts it as
   attempted, and as failed when it raises — including a correctness check
   ([require]) made inside it.  Metrics are recorded by name with their unit
   and, for distributions, their sample count; [emit] prints the ones
   BENCHMARK.json lists for the run's mode as the last stdout line. *)

module J = Bench_support.Bench_json

exception Check_failed of string

let require ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

type metric = { value : float; unit : string; samples : int option }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
  metrics : (string, metric) Hashtbl.t;
  mutable setup_times : float list;
}

let create () = { attempted = 0; failed = 0; errors = []; metrics = Hashtbl.create 64; setup_times = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- msg :: t.errors

let op t name f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception Check_failed msg ->
      fail t (Printf.sprintf "%s: check failed: %s" name msg);
      None
  | exception e ->
      fail t (Printf.sprintf "%s: raised %s" name (Printexc.to_string e));
      None

(* A check outside any operation (a whole-run invariant) is one more op. *)
let check t name ok msg = ignore (op t name (fun () -> require ok "%s" msg) : unit option)

let set t ?samples name unit value = Hashtbl.replace t.metrics name { value; unit; samples }

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Linear-interpolation quantile of the attempted operations: each failed
   operation is missing from [xs] and stands in as an infinite latency, so
   it counts as missing every percentile. *)
let quantile ~attempted p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let a = Array.append a (Array.make (max 0 (attempted - Array.length a)) Float.infinity) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n || frac = 0.0 then a.(i)
    else if a.(i + 1) = Float.infinity then Float.infinity
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile ~attempted:(List.length xs) 0.5 xs

(* [<prefix>_p<N>_<unit>] for each percentile, with the sample count; the
   callers size their runs so the highest one has ten samples beyond it. *)
let percentiles t ~prefix ~unit ?(ps = [ 50; 90 ]) ~attempted xs =
  List.iter
    (fun p ->
      set t ~samples:(List.length xs)
        (Printf.sprintf "%s_p%d_%s" prefix p unit)
        unit
        (quantile ~attempted (float_of_int p /. 100.0) xs))
    ps

(* Mean host time per request, total over count; infinite (an error) when
   a request failed.  On a host whose speed drifts, the mean of a run was
   steadier from run to run than its median (packet_restore, 8 seeds: 11%
   against 21% between quartiles). *)
let mean_latency t ~name ~unit ~attempted xs =
  let n = List.length xs in
  set t ~samples:n name unit
    (if n = 0 || n < attempted then Float.infinity else List.fold_left ( +. ) 0.0 xs /. float_of_int n)

(* One repetition of the workload's set-up, timed from a compacted heap so
   GC work left by earlier code is not charged to it, and compacted after so
   its garbage does not raise the peak RSS of what follows; setup_s is the
   median of all repetitions.  Workloads repeat it between requests
   ([setup_due]) so that the median spans the run, not one stretch of host
   speed. *)
let setup t f =
  Gc.compact ();
  let v, dt = Span.timed "bench.setup" f in
  Gc.compact ();
  t.setup_times <- dt :: t.setup_times;
  set t ~samples:(List.length t.setup_times) "setup_s" "s" (median t.setup_times);
  v

(* Whether request [i] (from 0) of [requests] is followed by one of [extra]
   evenly spaced set-up repetitions. *)
let setup_due ~requests ~extra i = (i + 1) * extra / requests > i * extra / requests

type catalogue = { end_to_end : (string * string) list; per_layer : (string * string) list }

let load_catalogue path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = J.parse s in
  let entries key =
    match J.member key j with
    | Some (J.List xs) ->
        List.map
          (fun x ->
            match (Option.bind (J.member "name" x) J.to_str, Option.bind (J.member "unit" x) J.to_str) with
            | Some n, Some u -> (n, u)
            | _ -> failwith (Printf.sprintf "%s: entry without name or unit" key))
          xs
    | _ -> failwith (Printf.sprintf "%s: missing %S list" path key)
  in
  { end_to_end = entries "end_to_end"; per_layer = entries "per_layer" }

(* Metrics the mode does not print are dropped; a catalogued end-to-end
   metric the workload did not set is an error, while a per-layer metric of
   a layer the workload never enters reads 0 — no work was done there. *)
let emit t cat ~traced =
  let wanted = if traced then cat.per_layer else cat.end_to_end in
  let known = cat.end_to_end @ cat.per_layer in
  Hashtbl.iter
    (fun name m ->
      match List.assoc_opt name known with
      | None -> fail t (Printf.sprintf "metric %s is not in BENCHMARK.json" name)
      | Some u when not (String.equal u m.unit) ->
          fail t (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" name m.unit u)
      | Some _ -> ())
    t.metrics;
  let value (name, unit) =
    match Hashtbl.find_opt t.metrics name with
    | Some m when Float.is_finite m.value -> m.value
    | Some _ ->
        fail t (Printf.sprintf "metric %s is not finite" name);
        0.0
    | None when traced -> 0.0
    | None ->
        fail t (Printf.sprintf "end-to-end metric %s was not measured (unit %s)" name unit);
        0.0
  in
  let values = List.map (fun e -> (e, value e)) wanted in
  (* Everything the workload measured, printed or not, with sample counts. *)
  List.iter
    (fun (name, m) ->
      let samples = match m.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> "" in
      let mark = if List.mem_assoc name wanted then "*" else " " in
      Printf.eprintf "%s %-48s %16.6g %s%s\n" mark name m.value m.unit samples)
    (List.sort compare (List.of_seq (Hashtbl.to_seq t.metrics)));
  List.iter (fun e -> Printf.eprintf "error: %s\n" e) (List.rev t.errors);
  let correct = t.failed = 0 in
  let line =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int (max 1 t.attempted)));
        ("failed", J.Num (float_of_int t.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun ((name, unit), v) -> (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
               values) );
      ]
  in
  print_endline (J.to_string ~minify:true line);
  correct
