module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Engine = Smrp_sim.Engine
module Protocol = Smrp_sim.Protocol
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table
module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight
module Timeline = Smrp_obs.Timeline

type config = {
  scenario : Scenario.config;
  settle_time : float;
  run_time : float;
}

let default =
  {
    (* Euclidean propagation delays: the packet-level experiment is about
       wall-clock latency, so physical per-link delays are the right model. *)
    scenario = { Scenario.default with Scenario.link_delay = `Euclidean };
    settle_time = 60.0;
    run_time = 60.0;
  }

type side_result = {
  restored : int;
  disrupted : int;
  mean_detection : float;
  mean_restoration : float;
  control_messages : int;
  episodes : Timeline.episode list;
  metrics : string option;
  flight : Flight.t option;
}

type result = { seed : int; smrp : side_result; pim : side_result }

(* The default run (seed 25) writes 461,147 SMRP and 433,670 PIM records,
   about half of them engine schedule/fire records: 2^19 per side holds
   either whole run. *)
let flight_capacity = 1 lsl 19

let run_side ?metrics ~flight config ~graph ~source ~members ~victim strategy =
  let flight = if flight then Some (Flight.create ~capacity:flight_capacity ()) else None in
  let engine = Engine.create ?metrics ?flight:(Option.map Flight.recorder flight) () in
  let proto_config =
    {
      Protocol.default_config with
      Protocol.strategy;
      d_thresh = config.scenario.Scenario.d_thresh;
    }
  in
  let proto = Protocol.create ~config:proto_config engine graph ~source in
  Protocol.start proto;
  (* Members join one hello period apart so signalling interleaves
     naturally. *)
  List.iteri
    (fun i m -> Engine.schedule engine ~delay:(0.5 +. float_of_int i) (fun () -> Protocol.join proto m))
    members;
  Engine.run ~until:config.settle_time engine;
  (* Worst-case failure for the victim in the tree this protocol built. *)
  (match Failure.worst_case_for_member (Protocol.tree proto) victim with
  | Some (Failure.Link eid) -> Protocol.inject_link_failure proto eid
  | Some (Failure.Node _ | Failure.Multi _) | None ->
      invalid_arg "Latency.run_side: no failable link");
  let before = Protocol.control_messages proto in
  Engine.run ~until:(config.settle_time +. config.run_time) engine;
  let reports = Protocol.reports proto in
  let detections = List.filter_map (fun r -> r.Protocol.detected) reports in
  let restorations = List.filter_map (fun r -> r.Protocol.restored) reports in
  {
    restored = List.length restorations;
    disrupted = List.length detections;
    mean_detection = (match detections with [] -> 0.0 | _ -> Stats.mean detections);
    mean_restoration = (match restorations with [] -> 0.0 | _ -> Stats.mean restorations);
    control_messages = Protocol.control_messages proto - before;
    episodes = Protocol.timeline proto;
    metrics = Option.map Metrics.render metrics;
    flight;
  }

let run ?(flight = false) ?(with_metrics = false) ?smrp_metrics ?pim_metrics config =
  let sc = config.scenario in
  let rng = Rng.create sc.Scenario.seed in
  let topo_rng = Rng.split rng in
  let member_rng = Rng.split rng in
  let graph, source, members = Scenario.draw sc ~topo_rng ~member_rng in
  (* Pick a victim whose worst-case link is not a bridge in either tree, so
     recovery is physically possible (the paper measures recovery distances,
     which presumes recoverable members). *)
  let bridges = Smrp_graph.Connectivity.bridges graph in
  let spf_tree = Smrp_core.Spf.build graph ~source ~members in
  let smrp_tree =
    Smrp_core.Smrp.build ~d_thresh:sc.Scenario.d_thresh graph ~source ~members
  in
  let recoverable m =
    let non_bridge tree =
      match Failure.worst_case_for_member tree m with
      | Some (Failure.Link eid) -> not (List.mem eid bridges)
      | Some (Failure.Node _ | Failure.Multi _) | None -> false
    in
    non_bridge spf_tree && non_bridge smrp_tree
  in
  match List.filter recoverable members with
  | [] -> None (* every worst-case link is a bridge: nothing to measure *)
  | candidates ->
      let victim = List.nth candidates (Rng.int member_rng (List.length candidates)) in
      (* One registry and one recorder per side keep the two streams
         apart. *)
      let side strategy metrics =
        let metrics = if with_metrics && metrics = None then Some (Metrics.create ()) else metrics in
        run_side ?metrics ~flight config ~graph ~source ~members ~victim strategy
      in
      Some
        {
          seed = sc.Scenario.seed;
          smrp = side Protocol.Local smrp_metrics;
          pim = side Protocol.Global pim_metrics;
        }

(* SMRP as pid 1, PIM as pid 2, so both sides share one trace file. *)
let to_chrome r emit =
  List.iter
    (fun (pid, process, side) ->
      Option.iter
        (fun fl ->
          Smrp_obs.Causal.to_chrome ~pid ~process ~msg_label:Protocol.msg_label emit
            (Flight.snapshot fl))
        side.flight)
    [ (1, "SMRP (local)", r.smrp); (2, "PIM (global)", r.pim) ]

(* Run [config] at the next seed drawn from [rng]. *)
let run_next ?flight ?with_metrics ?smrp_metrics ?pim_metrics rng config =
  let seed = Scenario.next_seed rng in
  run ?flight ?with_metrics ?smrp_metrics ?pim_metrics
    { config with scenario = { config.scenario with Scenario.seed } }

let run_one ?flight ?with_metrics ~seed config =
  let rng = Rng.create seed in
  let rec attempt n =
    if n = 0 then None
    else
      match run_next ?flight ?with_metrics rng config with
      | Some r -> Some r
      | None -> attempt (n - 1)
  in
  attempt 50

let run_many ?smrp_metrics ?pim_metrics ?(seed = 25) ?(runs = 10) config =
  let rng = Rng.create seed in
  let rec collect acc remaining attempts =
    if remaining = 0 || attempts = 0 then List.rev acc
    else
      match run_next ?smrp_metrics ?pim_metrics rng config with
      | Some r -> collect (r :: acc) (remaining - 1) (attempts - 1)
      | None -> collect acc remaining (attempts - 1)
  in
  collect [] runs (5 * runs)

let rec render results =
  let t =
    Table.create
      ~columns:
        [ "seed"; "protocol"; "disrupted"; "restored"; "detect (s)"; "restore (s)"; "ctrl msgs" ]
  in
  let row seed name (s : side_result) =
    Table.add_row t
      [
        string_of_int seed;
        name;
        string_of_int s.disrupted;
        string_of_int s.restored;
        Printf.sprintf "%.2f" s.mean_detection;
        Printf.sprintf "%.2f" s.mean_restoration;
        string_of_int s.control_messages;
      ]
  in
  List.iter
    (fun r ->
      row r.seed "SMRP (local)" r.smrp;
      row r.seed "PIM (global)" r.pim)
    results;
  let smrp_means = List.map (fun r -> r.smrp.mean_restoration) results in
  let pim_means = List.map (fun r -> r.pim.mean_restoration) results in
  Printf.sprintf
    "Restoration latency: SMRP local detour vs PIM global detour (packet-level)\n%s\n\
     mean restoration: SMRP %.2fs, PIM %.2fs (PIM is gated by OSPF reconvergence ~%.0fs, [25])\n\n%s"
    (Table.render t) (Stats.mean smrp_means) (Stats.mean pim_means) 5.0 (render_phases results)

and render_phases results =
  (* The §3.2 decomposition behind the scalars above: where each disrupted
     member's restoration time went, per recovery step. *)
  let t =
    Table.create
      ~columns:
        [
          "seed"; "protocol"; "member"; "detect (s)"; "signal (s)"; "install (s)";
          "1st data (s)"; "total (s)"; "attempts";
        ]
  in
  let cell = function Some d -> Printf.sprintf "%.3f" d | None -> "-" in
  let acc = Hashtbl.create 16 in
  let note name phase dur =
    Option.iter
      (fun d ->
        let key = (name, phase) in
        Hashtbl.replace acc key (d :: Option.value ~default:[] (Hashtbl.find_opt acc key)))
      dur
  in
  List.iter
    (fun r ->
      List.iter
        (fun (name, side) ->
          List.iter
            (fun (e : Timeline.episode) ->
              let d = Timeline.phase_durations e in
              List.iter (fun (p, dur) -> note name p dur) d;
              Table.add_row t
                [
                  string_of_int r.seed;
                  name;
                  string_of_int e.Timeline.member;
                  cell (List.assoc Timeline.Detection d);
                  cell (List.assoc Timeline.Signalling d);
                  cell (List.assoc Timeline.Installation d);
                  cell (List.assoc Timeline.First_data d);
                  cell (Timeline.total e);
                  string_of_int e.Timeline.attempts;
                ])
            side.episodes)
        [ ("SMRP (local)", r.smrp); ("PIM (global)", r.pim) ])
    results;
  let mean_line name =
    let m phase =
      match Hashtbl.find_opt acc (name, phase) with
      | Some ds -> Printf.sprintf "%s %.3fs" (Timeline.phase_name phase) (Stats.mean ds)
      | None -> Printf.sprintf "%s -" (Timeline.phase_name phase)
    in
    Printf.sprintf "  %-13s %s\n" name (String.concat ", " (List.map m Timeline.phases))
  in
  let metrics_blocks =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (name, side) ->
            Option.map
              (fun m -> Printf.sprintf "\nmetrics, seed %d, %s:\n%s" r.seed name m)
              side.metrics)
          [ ("SMRP (local)", r.smrp); ("PIM (global)", r.pim) ])
      results
  in
  Printf.sprintf
    "Recovery phase breakdown (failure -> detection -> signalling -> installation -> first data)\n\
     %s\nphase means:\n%s%s%s"
    (Table.render t)
    (mean_line "SMRP (local)")
    (mean_line "PIM (global)")
    (String.concat "" metrics_blocks)
