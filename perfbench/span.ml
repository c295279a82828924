(* In-memory span recorder for the benchmark's own calls into the library.

   A span is one call into a layer, named "<layer>.<call>": topology, graph,
   core, sim, experiments, obs, or bench for the benchmark's own work.  Spans
   nest (the innermost open span is the parent), carry the id of the request
   they belong to, and record the calling domain's minor-heap words.  Nothing
   is written until [write] at the end of the run.  When the recorder is off,
   [run] is a direct call: no clock read, no allocation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a top-level span. *)
  op : int;  (** Request id; -1 outside any request. *)
  start_ns : int;
  end_ns : int;
  minor_words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

let set_op op = current_op := op

let run name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      current := parent;
      spans :=
        { id; name; parent; op = !current_op; start_ns = t0; end_ns = t1; minor_words = w1 -. w0 }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* [run] that also returns the call's host time in seconds, traced or not. *)
let timed name f =
  let t0 = now_ns () in
  let v = run name f in
  (v, seconds_since t0)

let duration_s s = float_of_int (s.end_ns - s.start_ns) *. 1e-9

let all () = List.rev !spans

let named name = List.filter (fun s -> String.equal s.name name) (all ())

(* Self time: a span's duration minus the time its direct children cover
   (children of one parent never overlap — the recorder is single-domain). *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration_s s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !spans;
  List.map
    (fun s -> (s, duration_s s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    (all ())

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let names () = List.sort_uniq String.compare (List.map (fun s -> s.name) !spans)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}\n"
        s.id s.name s.parent s.op s.start_ns s.end_ns s.minor_words)
    (all ());
  close_out oc
