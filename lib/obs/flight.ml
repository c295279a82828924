(* Always-on flight recorder: a fixed-size per-domain ring of packed int
   records written straight from the engine's int-coded dispatch.

   Each record is three consecutive words in an int bigarray:

     word0 = (tick land tick_mask) lsl 8  lor  (code land 0xff)
     word1 = operand a (raw int, full width)
     word2 = operand b (raw int, full width)

   Ticks are the engine's scaled-int timestamps (1e7 per simulated
   second); 54 bits of tick cover ~57 years of simulated time, so the masking
   wrap is documented rather than defended against.  Span records use the
   same scale on the host's wall clock, counted from process start ([now])
   so they stay far below the mask.  The hot path is a mask, three unsafe
   stores and a sequence bump — no allocation, one predictable branch
   (`mask >= 0`, false only for the [null] recorder).

   Rings are sharded per domain: the ring list is immutable and grows by
   CAS, a writer only ever touches its own ring, and [snapshot] merges all
   rings into one (tick, domain, seq)-ordered stream.  Snapshotting while
   other domains are still writing is racy but memory-safe — intended use
   is post-mortem (crash dumps) or quiesced (end of run). *)

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type recorder = {
  buf : buffer;
  mask : int; (* capacity - 1 (power of two); -1 disables recording *)
  mutable seq : int; (* records ever written; slot = seq land mask *)
  dom : int;
}

type t = { capacity : int; rings : recorder list Atomic.t }

let tick_bits = 54
let tick_mask = (1 lsl tick_bits) - 1

(* The timestamp scale records are written in. Must match the engine's
   tick clock; pinned by a test. *)
let ticks_per_second = 1e7

let default_capacity = 8192

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(capacity = default_capacity) () =
  let capacity = pow2 (max 2 capacity) 2 in
  { capacity; rings = Atomic.make [] }

let global = create ()

let recorder t =
  let dom = (Domain.self () :> int) in
  let rec claim () =
    let rings = Atomic.get t.rings in
    match List.find_opt (fun r -> r.dom = dom) rings with
    | Some r -> r
    | None ->
        let r =
          {
            buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (3 * t.capacity);
            mask = t.capacity - 1;
            seq = 0;
            dom;
          }
        in
        if Atomic.compare_and_set t.rings rings (r :: rings) then r else claim ()
  in
  claim ()

let null =
  { buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 3; mask = -1; seq = 0; dom = -1 }

let[@inline] record r ~tick ~code ~a ~b =
  if r.mask >= 0 then begin
    let i = (r.seq land r.mask) * 3 in
    Bigarray.Array1.unsafe_set r.buf i (((tick land tick_mask) lsl 8) lor (code land 0xff));
    Bigarray.Array1.unsafe_set r.buf (i + 1) a;
    Bigarray.Array1.unsafe_set r.buf (i + 2) b;
    r.seq <- r.seq + 1
  end

let[@inline] enabled r = r.mask >= 0

(* Wall-clock origin for span ticks: epoch seconds at 1e7 ticks/s would
   pass the 54-bit tick field in early 2027. *)
let origin = Unix.gettimeofday ()

let now () = int_of_float ((Unix.gettimeofday () -. origin) *. ticks_per_second)

let span_start r = if enabled r then now () else 0

(* [max 0]: the wall clock is not monotonic. *)
let span r ~code ~start ~b =
  if enabled r then record r ~tick:start ~code ~a:(max 0 (now () - start)) ~b

let pack hi lo = (hi lsl 31) lor lo
let hi b = b lsr 31
let lo b = b land ((1 lsl 31) - 1)

let reset t = List.iter (fun r -> r.seq <- 0) (Atomic.get t.rings)

let dropped t =
  List.fold_left
    (fun acc r -> acc + max 0 (r.seq - (r.mask + 1)))
    0 (Atomic.get t.rings)

(* -- Event codes --------------------------------------------------------- *)

let ev_fire = 1
let ev_schedule = 2
let net_send = 10
let net_deliver = 11
let net_drop_send = 12
let net_drop_flight = 13
let proto_failure = 20
let proto_detected = 21
let proto_signal = 22
let proto_installed = 23
let proto_first_data = 24
let proto_reshape = 25
let exec_event = 30
let exec_violation = 31
let span_dijkstra = 40
let span_candidate_search = 41
let span_reshape_round = 42
let span_reshape_stabilize = 43
let span_pool_task = 44
let span_pool_worker = 45

let code_table =
  [
    (ev_fire, "engine.fire");
    (ev_schedule, "engine.schedule");
    (net_send, "net.send");
    (net_deliver, "net.deliver");
    (net_drop_send, "net.drop_send");
    (net_drop_flight, "net.drop_flight");
    (proto_failure, "proto.failure");
    (proto_detected, "proto.detected");
    (proto_signal, "proto.signal");
    (proto_installed, "proto.installed");
    (proto_first_data, "proto.first_data");
    (proto_reshape, "proto.reshape");
    (exec_event, "exec.event");
    (exec_violation, "exec.violation");
    (span_dijkstra, "dijkstra.run");
    (span_candidate_search, "smrp.candidate_search");
    (span_reshape_round, "reshape.round");
    (span_reshape_stabilize, "reshape.stabilize");
    (span_pool_task, "pool.task");
    (span_pool_worker, "pool.worker");
  ]

let code_name c =
  match List.assoc_opt c code_table with
  | Some n -> n
  | None -> Printf.sprintf "code.%d" c

let code_of_name n =
  match List.find_opt (fun (_, s) -> s = n) code_table with
  | Some (c, _) -> Some c
  | None -> (
      match int_of_string_opt n with Some c when c >= 0 && c < 256 -> Some c | _ -> None)

(* -- Decoding ------------------------------------------------------------ *)

type decoded = {
  d_tick : int;
  d_code : int;
  d_a : int;
  d_b : int;
  d_domain : int;
  d_seq : int;
}

let decode_ring r =
  let cap = r.mask + 1 in
  let n = min r.seq cap in
  let out = ref [] in
  for k = r.seq - 1 downto r.seq - n do
    let i = (k land r.mask) * 3 in
    let w0 = Bigarray.Array1.unsafe_get r.buf i in
    out :=
      {
        d_tick = w0 lsr 8;
        d_code = w0 land 0xff;
        d_a = Bigarray.Array1.unsafe_get r.buf (i + 1);
        d_b = Bigarray.Array1.unsafe_get r.buf (i + 2);
        d_domain = r.dom;
        d_seq = k;
      }
      :: !out
  done;
  !out

let order a b =
  let c = compare a.d_tick b.d_tick in
  if c <> 0 then c
  else
    let c = compare a.d_domain b.d_domain in
    if c <> 0 then c else compare a.d_seq b.d_seq

let snapshot t =
  Atomic.get t.rings
  |> List.concat_map (fun r -> if r.mask >= 0 then decode_ring r else [])
  |> List.sort order

(* -- Crash dumps --------------------------------------------------------- *)

let dump_magic = "smrp-flight-dump"
let dump_version = 1

let write_dump ?(dropped = 0) path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s %d %g\n" dump_magic dump_version ticks_per_second;
      Printf.fprintf oc "dropped %d\n" dropped;
      List.iter
        (fun r ->
          Printf.fprintf oc "%d %d %d %d %d %d\n" r.d_domain r.d_seq r.d_tick r.d_code r.d_a
            r.d_b)
        records)

exception Bad_dump of string

let read_dump path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header = try input_line ic with End_of_file -> "" in
      (match String.split_on_char ' ' header with
      | magic :: version :: _ when magic = dump_magic && version = string_of_int dump_version
        ->
          ()
      | _ -> raise (Bad_dump (Printf.sprintf "%s: not a flight dump (header %S)" path header)));
      let dropped =
        match String.split_on_char ' ' (try input_line ic with End_of_file -> "") with
        | [ "dropped"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> n
            | _ -> raise (Bad_dump (Printf.sprintf "%s: bad dropped count %S" path n)))
        | _ -> raise (Bad_dump (Printf.sprintf "%s: missing dropped header" path))
      in
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match List.map int_of_string_opt (String.split_on_char ' ' line) with
             | [ Some d_domain; Some d_seq; Some d_tick; Some d_code; Some d_a; Some d_b ]
               when d_seq >= 0 && d_tick >= 0 && d_tick <= tick_mask && d_code land 0xff = d_code ->
                 records := { d_tick; d_code; d_a; d_b; d_domain; d_seq } :: !records
             | _ -> raise (Bad_dump (Printf.sprintf "%s: malformed record %S" path line))
         done
       with End_of_file -> ());
      (List.rev !records, dropped))
