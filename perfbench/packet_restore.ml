(* packet_restore: the packet-level simulation, driven directly through
   Engine, Protocol and Net.  For each seeded 400-node Waxman topology
   (alpha 0.08, beta 0.2, Euclidean delays), 60 members join one second
   apart, the session settles, and the worst-case link failure hits a victim
   whose worst-case link is not a bridge — picked as Latency.run picks it.
   Each topology runs once on the SMRP (local detour) side and once on the
   PIM (global detour) side, for 60 simulated seconds after the failure.
   One request is one topology's two simulations.  This workload never
   enters Protect, Dspf or Reshape. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Waxman = Smrp_topology.Waxman
module Failure = Smrp_core.Failure
module Engine = Smrp_sim.Engine
module Protocol = Smrp_sim.Protocol
module Net = Smrp_sim.Net
module Flight = Smrp_obs.Flight
module Timeline = Smrp_obs.Timeline

let nodes = 400
let alpha = 0.08
let beta = 0.2
let group = 60
let d_thresh = 0.3
let settle_time = 90.0
let run_time = 60.0

(* Topologies per run second, from the rate measured on a 2-core x86 host. *)
let topologies_per_second = 1.4

let topologies ~seconds = max 2 (int_of_float (Float.round (topologies_per_second *. float_of_int seconds)))

type instance = { graph : Graph.t; source : int; members : int list; victim : int; gen_s : float }

(* Topology [i] of the run: redrawn from derived seeds until some member's
   worst-case link is a bridge in neither the SPF nor the SMRP tree. *)
let instance seed i =
  let rec attempt k =
    if k >= 50 then failwith (Printf.sprintf "topology %d: no recoverable victim in 50 draws" i)
    else begin
      let rng = Rng.create ((seed * 7919) + (i * 104729) + k) in
      let topo, gen_s =
        Span.timed "topology.waxman_generate" (fun () ->
            Waxman.generate ~link_delay:`Euclidean (Rng.split rng) ~n:nodes ~alpha ~beta)
      in
      let graph = topo.Waxman.graph in
      let member_rng = Rng.split rng in
      let chosen = Array.of_list (Rng.sample_without_replacement member_rng (group + 1) nodes) in
      Rng.shuffle member_rng chosen;
      let source = chosen.(0) in
      let members = Array.to_list (Array.sub chosen 1 group) in
      let bridges = Connectivity.bridges graph in
      let spf_tree = Smrp_core.Spf.build graph ~source ~members in
      let smrp_tree = Smrp_core.Smrp.build ~d_thresh graph ~source ~members in
      let recoverable m =
        let non_bridge tree =
          match Failure.worst_case_for_member tree m with
          | Some (Failure.Link eid) -> not (List.mem eid bridges)
          | Some (Failure.Node _ | Failure.Multi _) | None -> false
        in
        non_bridge spf_tree && non_bridge smrp_tree
      in
      match List.filter recoverable members with
      | [] -> attempt (k + 1)
      | candidates ->
          let victim = List.nth candidates (Rng.int member_rng (List.length candidates)) in
          { graph; source; members; victim; gen_s }
    end
  in
  attempt 0

type side = {
  settle_s : float;
  recover_s : float;
  events : int;
  counters : (string * int) list;
  breakdown : (string * int) list;
  control : int;
  reports : Protocol.member_report list;
  episodes : Timeline.episode list;
}

let strategy_name = function Protocol.Local -> "smrp" | Protocol.Global -> "pim"

let simulate ?flight inst strategy =
  let engine = Engine.create ?flight () in
  let config = { Protocol.default_config with Protocol.strategy; ospf_convergence = 5.0; d_thresh } in
  let proto = Protocol.create ~config engine inst.graph ~source:inst.source in
  Protocol.start proto;
  List.iteri
    (fun i m -> ignore (Engine.schedule engine ~delay:(0.5 +. float_of_int i) (fun () -> Protocol.join proto m)))
    inst.members;
  let (), settle_s = Span.timed "sim.engine_run_settle" (fun () -> Engine.run ~until:settle_time engine) in
  (match Failure.worst_case_for_member (Protocol.tree proto) inst.victim with
  | Some (Failure.Link eid) -> Protocol.inject_link_failure proto eid
  | Some (Failure.Node _ | Failure.Multi _) | None ->
      Out.require false "victim %d has no failable link in the %s tree" inst.victim (strategy_name strategy));
  let (), recover_s =
    Span.timed "sim.engine_run_recover" (fun () -> Engine.run ~until:(settle_time +. run_time) engine)
  in
  {
    settle_s;
    recover_s;
    events = Engine.events_fired engine;
    counters = Net.counters (Protocol.net proto);
    breakdown = Protocol.message_breakdown proto;
    control = Protocol.control_messages proto;
    reports = Protocol.reports proto;
    episodes = Protocol.timeline proto;
  }

let check_side s =
  let disrupted = List.length (List.filter (fun r -> r.Protocol.detected <> None) s.reports) in
  let restored = List.length (List.filter (fun r -> r.Protocol.restored <> None) s.reports) in
  Out.require (restored <= disrupted) "%d members restored but only %d disrupted" restored disrupted;
  (* A member restored through another member's detour never signals, so
     its episode misses phases: only complete episodes must sum exactly. *)
  List.iter
    (fun e ->
      match Timeline.total e with
      | None -> ()
      | Some total ->
          let ds = List.map snd (Timeline.phase_durations e) in
          let sum = List.fold_left (fun a d -> a +. Option.value ~default:0.0 d) 0.0 ds in
          let eps = 1e-9 *. Float.max 1.0 total in
          if List.for_all Option.is_some ds then
            Out.require (Float.abs (sum -. total) <= eps) "member %d: phases sum to %h, the episode to %h"
              e.Timeline.member sum total
          else Out.require (sum <= total +. eps) "member %d: phases sum to %h, past the episode's %h"
              e.Timeline.member sum total)
    s.episodes

let render_side b s =
  Printf.bprintf b "events=%d;" s.events;
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) (s.counters @ s.breakdown);
  List.iter
    (fun r ->
      let f = function Some x -> Printf.sprintf "%h" x | None -> "-" in
      Printf.bprintf b "m%d:%s/%s/%d;" r.Protocol.member (f r.Protocol.detected) (f r.Protocol.restored)
        r.Protocol.data_received)
    s.reports;
  List.iter
    (fun e ->
      let f = function Some x -> Printf.sprintf "%h" x | None -> "-" in
      Printf.bprintf b "e%d:%h/%s/%s/%s/%s/%d;" e.Timeline.member e.Timeline.failure_at (f e.Timeline.detected_at)
        (f e.Timeline.signalled_at) (f e.Timeline.installed_at) (f e.Timeline.first_data_at) e.Timeline.attempts)
    s.episodes

let sum_counter sides key = List.fold_left (fun a s -> a + Option.value ~default:0 (List.assoc_opt key s.counters)) 0 sides

let run out ~seed ~seconds ~traced =
  let count = topologies ~seconds in
  let make () = List.init count (instance seed) in
  let instances = Out.setup out make in
  Out.set out "topology.waxman_generate_s" "s" ~samples:count (Out.median (List.map (fun i -> i.gen_s) instances));
  let digest = Buffer.create 65536 in
  let requests = ref [] and sides = ref [] in
  List.iteri
    (fun i inst ->
      (* Each simulation leaves megabytes of engine and protocol arrays
         behind; collecting them between requests keeps the peak RSS from
         depending on where the major GC happened to be. *)
      Gc.full_major ();
      Span.set_op i;
      let t0 = Span.now_ns () in
      let results =
        List.filter_map
          (fun strategy ->
            Out.op out ("simulate " ^ strategy_name strategy) (fun () ->
                let s = simulate inst strategy in
                check_side s;
                (strategy, s)))
          [ Protocol.Local; Protocol.Global ]
      in
      if List.length results = 2 then requests := (Span.seconds_since t0 *. 1e3) :: !requests;
      List.iter
        (fun (strategy, s) ->
          Printf.bprintf digest "%d%s:" i (strategy_name strategy);
          render_side digest s;
          sides := (strategy, s) :: !sides)
        results;
      if Out.setup_due ~requests:count ~extra:2 i then ignore (Out.setup out make : _ list))
    instances;
  let sides = List.rev !sides in
  let all = List.map snd sides in
  let events = List.fold_left (fun a s -> a + s.events) 0 all in
  let run_s = List.fold_left (fun a s -> a +. s.settle_s +. s.recover_s) 0.0 all in
  Out.mean_latency out ~name:"request_mean_ms" ~unit:"ms" ~attempted:count !requests;
  Out.percentiles out ~prefix:"request" ~unit:"ms" ~ps:[ 50 ] ~attempted:count !requests;
  Out.set out "work_per_s" "1/s" (Out.ratio (float_of_int events) run_s);
  Out.set out "sim_events_per_s" "events/s" (Out.ratio (float_of_int events) run_s);
  let restore strategy =
    List.concat_map
      (fun (st, s) -> if st = strategy then List.filter_map (fun r -> r.Protocol.restored) s.reports else [])
      sides
  in
  let smrp = restore Protocol.Local and pim = restore Protocol.Global in
  Out.percentiles out ~prefix:"sim_restore_smrp" ~unit:"s" ~attempted:(List.length smrp) smrp;
  Out.percentiles out ~prefix:"sim_restore_pim" ~unit:"s" ~ps:[ 50 ] ~attempted:(List.length pim) pim;
  Out.set out "sim.events_fired" "count" (float_of_int events);
  Out.set out ~samples:(List.length all) "sim.engine_run_settle_s" "s" (Out.median (List.map (fun s -> s.settle_s) all));
  Out.set out ~samples:(List.length all) "sim.engine_run_recover_s" "s"
    (Out.median (List.map (fun s -> s.recover_s) all));
  Out.set out "sim.ns_per_event" "ns" (Out.ratio (run_s *. 1e9) (float_of_int events));
  Out.set out "sim.net.frames_sent" "count" (float_of_int (sum_counter all "sent"));
  Out.set out "sim.net.frames_delivered" "count" (float_of_int (sum_counter all "delivered"));
  Out.set out "sim.net.frames_dropped_failure" "count"
    (float_of_int (sum_counter all "dropped_failure_at_send" + sum_counter all "dropped_failure_in_flight"));
  Out.set out "sim.protocol.control_messages" "count" (float_of_int (List.fold_left (fun a s -> a + s.control) 0 all));
  List.iter
    (fun (kind, _) ->
      let n = List.fold_left (fun a s -> a + Option.value ~default:0 (List.assoc_opt kind s.breakdown)) 0 all in
      Out.set out ("sim.protocol.msgs." ^ kind) "count" (float_of_int n))
    (match all with s :: _ -> s.breakdown | [] -> []);
  List.iter
    (fun strategy ->
      let episodes = List.concat_map (fun (st, s) -> if st = strategy then s.episodes else []) sides in
      List.iter
        (fun phase ->
          let ds =
            List.filter_map (fun e -> List.assoc phase (Timeline.phase_durations e)) episodes
          in
          Out.set out ~samples:(List.length ds)
            (Printf.sprintf "sim.phase.%s.%s_s" (strategy_name strategy)
               (String.map (fun c -> if c = ' ' then '_' else c) (Timeline.phase_name phase)))
            "s" (Out.median ds))
        Timeline.phases)
    [ Protocol.Local; Protocol.Global ];
  (* The first topology again, in three rounds of three legs: recorder and
     spans on, the flight recorder off, spans off.  Recording must not change the
     simulation, and the median per-round time ratios give each recorder's
     overhead (rounds, not totals, because the host's speed drifts). *)
  if traced then begin
    let inst = List.hd instances in
    let leg ~flight ~spans =
      Span.enabled := spans;
      let t0 = Span.now_ns () in
      let r = List.map (fun st -> simulate ?flight inst st) [ Protocol.Local; Protocol.Global ] in
      let dt = Span.seconds_since t0 in
      Span.enabled := true;
      (List.map (fun s -> (s.events, s.counters, s.breakdown)) r, dt)
    in
    (* Each round starts the rotation at a different leg, so no leg always
       runs first. *)
    let rounds =
      List.init 3 (fun r ->
          let legs = [| (None, true); (Some Flight.null, true); (None, false) |] in
          let times = Array.make 3 ([], 0.0) in
          for k = 0 to 2 do
            let i = (r + k) mod 3 in
            let flight, spans = legs.(i) in
            times.(i) <- leg ~flight ~spans
          done;
          (times.(0), times.(1), times.(2)))
    in
    let overhead pick =
      Out.median (List.map (fun ((_, on), a, b) -> (on /. snd (pick (a, b))) -. 1.0) rounds)
    in
    Out.set out "obs.flight_overhead_ratio" "ratio" (overhead fst);
    Out.set out "bench.trace_overhead_ratio" "ratio" (overhead snd);
    let (reference, _), _, _ = List.hd rounds in
    Out.check out "flight recorder"
      (List.for_all (fun (a, b, c) -> List.for_all (fun (f, _) -> f = reference) [ a; b; c ]) rounds)
      "events, net counters or message breakdown differ with the flight recorder off"
  end;
  Digest.to_hex (Digest.string (Buffer.contents digest))
