(* Causal recovery-episode analyzer.

   Four parts:

   - the milestone rules ([advance]), one copy for the tracker and the stitcher:
     a detection under a failure root opens an episode, signalling
     attempts are counted, the first installation of the latest attempt
     is kept, and first data is recorded.

   - [tracker]: live episode bookkeeping for one protocol run, fed by
     {!milestone} as the protocol writes each milestone to its flight
     ring.  It keeps one episode per member per run: the first detection
     after the run's failure opens it, and nothing re-opens it.

   - [of_records]: post-mortem stitching of decoded {!Flight} records into
     failure-rooted causal chains.  It closes an episode at first data, so
     any later detection of the member opens a fresh one (under the
     latest failure root), and it folds `lib/check` violation records into
     the episode stream, attributing each to a recovery phase.

   - [to_chrome]: the one Chrome trace_event export, a projection of a
     decoded record stream plus its stitched episodes. *)

type episode = {
  member : int;
  failure_at : float;
  detected_at : float option;
  signalled_at : float option;
  installed_at : float option;
  first_data_at : float option;
  attempts : int;
}

(* The paper's recovery window, §3.2: detect → notify → repair → stabilize. *)
type phase = Detect | Notify | Repair | Stabilize

let phase_name = function
  | Detect -> "detect"
  | Notify -> "notify"
  | Repair -> "repair"
  | Stabilize -> "stabilize"

let delta a b = match (a, b) with Some a, Some b -> Some (b -. a) | _ -> None
let ticks_per_second = Flight.ticks_per_second

let phase_durations e =
  [
    (Detect, delta (Some e.failure_at) e.detected_at);
    (Notify, delta e.detected_at e.signalled_at);
    (Repair, delta e.signalled_at e.installed_at);
    (Stabilize, delta e.installed_at e.first_data_at);
  ]

let total e = delta (Some e.failure_at) e.first_data_at

(* -- Milestone rules ------------------------------------------------------ *)

(* One member's episode under construction. *)
type cell = {
  failure : float;
  detected : float;
  mutable signalled : float option;
  mutable installed : float option;
  mutable first_data : float option;
  mutable attempts : int;
}

(* The milestone rules over the episodes [cells] holds, by member.  A
   detection under a failure [root] opens an episode for a member [cells]
   has none for.  On an episode without first data, a signalling attempt
   counts, an installation is kept when it is the first of the latest
   attempt (periodic join refreshes re-confirm state at the merge node and
   must not push the milestone forward), and first data is recorded.  What
   becomes of an episode after first data is the caller's lifecycle. *)
let advance cells ~root ~code ~member ~ts =
  if code = Flight.proto_detected then begin
    match root with
    | Some failure when not (Hashtbl.mem cells member) ->
        Hashtbl.add cells member
          {
            failure;
            detected = ts;
            signalled = None;
            installed = None;
            first_data = None;
            attempts = 0;
          }
    | _ -> ()
  end
  else
    match Hashtbl.find_opt cells member with
    | Some c when c.first_data = None ->
        if code = Flight.proto_signal then begin
          c.signalled <- Some ts;
          c.attempts <- c.attempts + 1
        end
        else if code = Flight.proto_installed then begin
          match (c.installed, c.signalled) with
          | None, _ -> c.installed <- Some ts
          | Some inst, Some s when s > inst -> c.installed <- Some ts
          | _ -> ()
        end
        else if code = Flight.proto_first_data then c.first_data <- Some ts
    | _ -> ()

let freeze member c =
  {
    member;
    failure_at = c.failure;
    detected_at = Some c.detected;
    signalled_at = c.signalled;
    installed_at = c.installed;
    first_data_at = c.first_data;
    attempts = c.attempts;
  }

(* -- Live tracker --------------------------------------------------------- *)

(* The run's first failure roots every episode; a member's episode stays
   in [cells] after first data, so it is never re-opened. *)
type tracker = { mutable root : float option; cells : (int, cell) Hashtbl.t }

let create () = { root = None; cells = Hashtbl.create 8 }

let milestone r flight ~tick ~ts ~code ~a ~b =
  Flight.record flight ~tick ~code ~a ~b;
  if code = Flight.proto_failure then (if r.root = None then r.root <- Some ts)
  else advance r.cells ~root:r.root ~code ~member:a ~ts

let episode r member = Option.map (freeze member) (Hashtbl.find_opt r.cells member)

let episodes r =
  Hashtbl.fold (fun member c acc -> freeze member c :: acc) r.cells []
  |> List.sort (fun a b -> compare a.member b.member)

(* Queries used by Protocol in place of its former per-member float arrays. *)

let disrupted r member =
  match Hashtbl.find_opt r.cells member with Some c -> c.first_data = None | None -> false

let detected_at r member = Option.map (fun c -> c.detected) (Hashtbl.find_opt r.cells member)
let restored_at r member = Option.bind (Hashtbl.find_opt r.cells member) (fun c -> c.first_data)

(* -- Oracle table -------------------------------------------------------- *)

(* Every oracle name `lib/check` can emit, in a stable order so violation
   records can carry a small int. Index 0 is reserved for "unknown". *)
let oracle_names =
  [|
    "unknown";
    "join";
    "join-delay-bound";
    "join-differential";
    "query-differential";
    "reshape-membership";
    "engine-differential";
    "exception";
    "structure";
    "members-connected";
    "bookkeeping";
    "avoids-failure";
    "protected-scope";
    "protected-distance";
    "protected-replay";
    "protected-differential";
    "protected-accounting";
    "recovery-distance";
    "recovery-replay";
    "recovery-accounting";
    "join-reachable";
    "spf-join";
  |]

let oracle_id name =
  let n = Array.length oracle_names in
  let rec go i = if i >= n then 0 else if oracle_names.(i) = name then i else go (i + 1) in
  go 1

let oracle_name id = if id > 0 && id < Array.length oracle_names then oracle_names.(id) else "unknown"

(* -- Exec event kinds ---------------------------------------------------- *)

let kind_join = 0
let kind_leave = 1
let kind_fail = 2
let kind_reshape = 3

let pack_exec_event ~kind ~operand = (kind lsl 32) lor (operand land 0xFFFFFFFF)
let exec_event_kind a = a lsr 32
let exec_event_operand a = a land 0xFFFFFFFF

(* Which recovery phase a violating schedule event belongs to: joins and
   leaves exercise the signal/regraft machinery (Repair), failures the
   detection path (Detect), reshapes the stabilization pass (Stabilize). *)
let phase_of_kind k =
  if k = kind_fail then Detect else if k = kind_reshape then Stabilize else Repair

(* -- Post-mortem stitching ----------------------------------------------- *)

type violation = {
  v_oracle : string;
  v_phase : phase;
  v_index : int; (* schedule event index the oracle fired on *)
  v_member : int; (* node operand of the violating event, -1 if none *)
}

type analysis = {
  a_episodes : episode list;
  a_violations : violation list;
  a_counts : (int * int) list; (* event code -> record count, code-sorted *)
  a_messages : int; (* net.send records *)
  a_drops : int; (* net.drop_* records *)
  a_dropped : int; (* ring overwrites: records lost to wrap-around *)
  a_span : (int * int) option; (* min/max tick seen *)
}

let of_records ?(dropped = 0) records =
  let records = List.sort Flight.order records in
  let seconds tick = float_of_int tick /. ticks_per_second in
  let root = ref None in
  let open_cells : (int, cell) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref [] in
  let violations = ref [] in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let messages = ref 0 in
  let drops = ref 0 in
  let span = ref None in
  (* last exec.event seen, for violation attribution: (kind, operand) *)
  let last_exec = ref None in
  let bump code = Hashtbl.replace counts code (1 + Option.value ~default:0 (Hashtbl.find_opt counts code)) in
  List.iter
    (fun (r : Flight.decoded) ->
      let tick = r.Flight.d_tick and code = r.Flight.d_code in
      bump code;
      span :=
        Some
          (match !span with
          | None -> (tick, tick)
          | Some (lo, hi) -> (min lo tick, max hi tick));
      let ts = seconds tick in
      if code = Flight.proto_failure then root := Some ts
      else if
        code = Flight.proto_detected || code = Flight.proto_signal
        || code = Flight.proto_installed || code = Flight.proto_first_data
      then begin
        let member = r.Flight.d_a in
        advance open_cells ~root:!root ~code ~member ~ts;
        (* Close the episode at first data: a later detection re-opens the
           member with a fresh one. *)
        match Hashtbl.find_opt open_cells member with
        | Some c when c.first_data <> None ->
            Hashtbl.remove open_cells member;
            closed := freeze member c :: !closed
        | _ -> ()
      end
      else if code = Flight.net_send then incr messages
      else if code = Flight.net_drop_send || code = Flight.net_drop_flight then incr drops
      else if code = Flight.exec_event then begin
        let kind = exec_event_kind r.Flight.d_a in
        last_exec := Some (kind, exec_event_operand r.Flight.d_a);
        (* A schedule-level failure event roots subsequent episodes even in
           tree-level (engine-less) runs, where ticks are event indices. *)
        if kind = kind_fail then root := Some ts
      end
      else if code = Flight.exec_violation then begin
        let kind, operand = Option.value ~default:(-1, -1) !last_exec in
        let phase = if kind < 0 then Repair else phase_of_kind kind in
        let member = if kind = kind_join || kind = kind_leave then operand else -1 in
        violations :=
          { v_oracle = oracle_name r.Flight.d_a; v_phase = phase; v_index = r.Flight.d_b; v_member = member }
          :: !violations
      end)
    records;
  let episodes =
    Hashtbl.fold (fun member c acc -> freeze member c :: acc) open_cells !closed
    |> List.sort (fun (a : episode) (b : episode) ->
           let c = compare a.failure_at b.failure_at in
           if c <> 0 then c else compare a.member b.member)
  in
  {
    a_episodes = episodes;
    a_violations = List.rev !violations;
    a_counts =
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    a_messages = !messages;
    a_drops = !drops;
    a_dropped = dropped;
    a_span = !span;
  }

(* -- Rendering ----------------------------------------------------------- *)

let pp_opt = function Some d -> Printf.sprintf "%.6fs" d | None -> "-"

let render a =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 a.a_counts in
  (match a.a_span with
  | Some (lo, hi) -> pr "flight: %d records (%d dropped), ticks %d..%d\n" n a.a_dropped lo hi
  | None -> pr "flight: %d records (%d dropped)\n" n a.a_dropped);
  List.iter (fun (c, k) -> pr "  %-18s %d\n" (Flight.code_name c) k) a.a_counts;
  if a.a_messages > 0 || a.a_drops > 0 then
    pr "net: %d messages sent, %d dropped\n" a.a_messages a.a_drops;
  pr "episodes: %d\n" (List.length a.a_episodes);
  List.iter
    (fun e ->
      pr "  member %d: failure at %.6fs" e.member e.failure_at;
      List.iter (fun (p, d) -> pr "  %s %s" (phase_name p) (pp_opt d)) (phase_durations e);
      pr "  total %s (attempts %d)\n" (pp_opt (total e)) e.attempts)
    a.a_episodes;
  if a.a_violations <> [] then begin
    pr "violations: %d\n" (List.length a.a_violations);
    List.iter
      (fun v ->
        pr "  event %d: oracle %s violated during %s phase%s\n" v.v_index v.v_oracle
          (phase_name v.v_phase)
          (if v.v_member >= 0 then Printf.sprintf " (member %d)" v.v_member else ""))
      a.a_violations
  end;
  Buffer.contents buf

(* -- OpenMetrics exposition ---------------------------------------------- *)

let openmetrics_of_episodes eps =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "# TYPE smrp_recovery_episodes gauge\n";
  pr "smrp_recovery_episodes %d\n" (List.length eps);
  pr "# TYPE smrp_recovery_phase_seconds gauge\n";
  List.iter
    (fun e ->
      List.iter
        (fun (p, d) ->
          match d with
          | Some d -> pr "smrp_recovery_phase_seconds{member=\"%d\",phase=\"%s\"} %g\n" e.member (phase_name p) d
          | None -> ())
        (phase_durations e))
    eps;
  pr "# TYPE smrp_recovery_seconds gauge\n";
  List.iter
    (fun e ->
      match total e with
      | Some d -> pr "smrp_recovery_seconds{member=\"%d\",attempts=\"%d\"} %g\n" e.member e.attempts d
      | None -> ())
    eps;
  Buffer.contents buf

let to_openmetrics a =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 a.a_counts in
  pr "# TYPE smrp_flight_records counter\n";
  pr "smrp_flight_records_total %d\n" n;
  pr "# TYPE smrp_flight_dropped counter\n";
  pr "smrp_flight_dropped_total %d\n" a.a_dropped;
  pr "# TYPE smrp_net_messages counter\n";
  pr "smrp_net_messages_total %d\n" a.a_messages;
  pr "# TYPE smrp_net_drops counter\n";
  pr "smrp_net_drops_total %d\n" a.a_drops;
  Buffer.add_string buf (openmetrics_of_episodes a.a_episodes);
  pr "# TYPE smrp_violations counter\n";
  List.iter
    (fun v ->
      pr "smrp_violations_total{oracle=\"%s\",phase=\"%s\"} 1\n" v.v_oracle (phase_name v.v_phase))
    a.a_violations;
  pr "# EOF\n";
  Buffer.contents buf

(* -- Chrome trace_event projection ---------------------------------------- *)

(* Names of a record's [b] operand; two names split a packed word. *)
let b_names =
  [
    (Flight.proto_signal, [ "hops" ]);
    (Flight.proto_installed, [ "merge" ]);
    (Flight.proto_reshape, [ "old_parent" ]);
    (Flight.span_dijkstra, [ "source"; "n" ]);
    (Flight.span_candidate_search, [ "joiner" ]);
    (Flight.span_reshape_round, [ "scans"; "switches" ]);
    (Flight.span_reshape_stabilize, [ "rounds"; "switches" ]);
    (Flight.span_pool_task, [ "index" ]);
    (Flight.span_pool_worker, [ "tasks" ]);
  ]

(* Sim and span ticks share one scale, 10 per Chrome microsecond, so every
   timestamp prints exactly.  Engine records (half the ring, no names) are
   left out. *)
let to_chrome ?(pid = 0) ?process ?(msg_label = fun _ -> "frame") emit records =
  let buf = Buffer.create 160 in
  let ev ~ph ~tick ?dur ?(tid = 0) ?(args = []) ?cat name =
    let cat = match cat with Some c -> c | None -> List.hd (String.split_on_char '.' name) in
    Buffer.clear buf;
    Printf.bprintf buf "{\"ph\":\"%s\",\"ts\":%d.%d" ph (tick / 10) (tick mod 10);
    Option.iter (fun d -> Printf.bprintf buf ",\"dur\":%d.%d" (d / 10) (d mod 10)) dur;
    Printf.bprintf buf ",\"name\":%S,\"cat\":%S,\"pid\":%d,\"tid\":%d" name cat pid tid;
    if args <> [] then
      Printf.bprintf buf ",\"args\":{%s}"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) args));
    Buffer.add_char buf '}';
    emit (Buffer.contents buf)
  in
  Option.iter
    (Printf.ksprintf emit
       "{\"ph\":\"M\",\"ts\":0,\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%S}}"
       pid)
    process;
  (* Each episode is one "recovery" span on its member's track, from
     detection to first data (left open when data never came back). *)
  let tick_of s = int_of_float (Float.round (s *. ticks_per_second)) in
  List.iter
    (fun e ->
      match (e.detected_at, e.first_data_at) with
      | Some d, Some f ->
          ev ~ph:"X" ~tick:(tick_of d) ~dur:(tick_of f - tick_of d) ~tid:e.member "recovery"
      | Some d, None -> ev ~ph:"B" ~tick:(tick_of d) ~tid:e.member "recovery"
      | None, _ -> ())
    (of_records records).a_episodes;
  (* A frame is one span from send to delivery on its sender's track;
     frames on a directed link arrive in send order. *)
  let in_flight = Hashtbl.create 64 in
  let sent b =
    match Hashtbl.find_opt in_flight b with
    | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
    | _ -> None
  in
  List.iter
    (fun (r : Flight.decoded) ->
      let tick = r.Flight.d_tick and c = r.Flight.d_code and a = r.Flight.d_a and b = r.Flight.d_b in
      let net ?dur ~tick name =
        ev ~ph:(if dur = None then "i" else "X") ~tick ?dur ~tid:(Flight.hi b)
          ~args:[ ("dst", Flight.lo b) ] ~cat:"net" name
      in
      let drop prefix = net ~tick (prefix ^ msg_label a) in
      let args =
        match List.assoc_opt c b_names with
        | Some [ x; y ] -> [ (x, Flight.hi b); (y, Flight.lo b) ]
        | Some [ x ] -> [ (x, b) ]
        | _ -> []
      in
      let name = Flight.code_name c in
      if c = Flight.net_send then begin
        if not (Hashtbl.mem in_flight b) then Hashtbl.add in_flight b (Queue.create ());
        Queue.push tick (Hashtbl.find in_flight b)
      end
      else if c = Flight.net_deliver then begin
        let start = Option.value ~default:tick (sent b) in
        net ~dur:(tick - start) ~tick:start (msg_label a)
      end
      else if c = Flight.net_drop_flight then begin
        ignore (sent b);
        drop "drop.in_flight:"
      end
      else if c = Flight.net_drop_send then drop "drop.down:"
      else if c = Flight.proto_failure then ev ~ph:"i" ~tick ~args:[ ("link", a) ] name
      else if c > Flight.proto_failure && c < Flight.exec_event then
        ev ~ph:"i" ~tick ~tid:a ~args name
      else if c >= Flight.span_dijkstra then
        ev ~ph:"X" ~tick ~dur:a ~tid:r.Flight.d_domain ~args name
      else if c >= Flight.exec_event then ev ~ph:"i" ~tick ~args:[ ("a", a); ("b", b) ] name)
    records
