(* smrp: command-line driver for the SMRP reproduction.

   Subcommands regenerate the paper's figures at configurable scale and run
   one-off scenarios for exploration. *)

open Cmdliner
module Figures = Smrp_experiments.Figures
module Scenario = Smrp_experiments.Scenario
module Latency = Smrp_experiments.Latency
module Ablation = Smrp_experiments.Ablation
module Related_work = Smrp_experiments.Related_work
module Scaling = Smrp_experiments.Scaling
module Dot = Smrp_core.Dot
module Flight = Smrp_obs.Flight
module Causal = Smrp_obs.Causal

(* Serialize the global flight-recorder ring (last-N records per domain)
   next to whatever artifact the failing command produced. *)
let write_flight_dump path =
  Flight.write_dump path ~dropped:(Flight.dropped Flight.global) (Flight.snapshot Flight.global)

(* Crash dumps for uncaught exceptions: whatever the recorder holds at the
   crash site is worth more than the backtrace alone. [exit] does not raise,
   so deliberate non-zero exits pass through untouched. *)
let with_crash_dump path f =
  try f ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    (try
       write_flight_dump path;
       Printf.eprintf "crash: flight dump written to %s (inspect with: smrp inspect %s)\n%!"
         path path
     with _ -> ());
    Printexc.raise_with_backtrace exn bt

(* An output file that cannot be opened is an input error: exit 1 naming
   the subcommand, not an uncaught Sys_error. *)
let open_out_or_exit cmd file =
  try open_out file
  with Sys_error msg ->
    Printf.eprintf "%s: cannot open %s\n%!" cmd msg;
    exit 1

let write_file cmd file contents =
  let oc = open_out_or_exit cmd file in
  output_string oc contents;
  close_out oc

(* Counts below [lo] are rejected by cmdliner (exit 124) before any work
   starts, instead of failing deep inside an experiment. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1

let seed_arg default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let scenarios_arg =
  Arg.(
    value & opt positive 100
    & info [ "scenarios" ] ~docv:"N" ~doc:"Scenarios per data point (paper: 100).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default: SMRP_BENCH_JOBS or the recommended domain count). Results \
           are byte-identical whatever the count.")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV instead of a table.")

let fig7_cmd =
  let run seed topologies csv =
    let r = Figures.Fig7.run ~seed ~topologies () in
    print_string (if csv then Figures.Fig7.csv r else Figures.Fig7.render r)
  in
  let topologies =
    Arg.(
      value & opt positive 5 & info [ "topologies" ] ~docv:"N" ~doc:"Random topologies (paper: 5).")
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Local vs global detour scatter (§4.3.1).")
    Term.(const run $ seed_arg 7 $ topologies $ csv_arg)

let fig8_cmd =
  let run seed scenarios csv =
    let rows = Figures.Fig8.run ~seed ~scenarios () in
    print_string (if csv then Figures.Fig8.csv rows else Figures.Fig8.render rows)
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Effect of D_thresh (§4.3.2).")
    Term.(const run $ seed_arg 8 $ scenarios_arg $ csv_arg)

let fig9_cmd =
  let run seed scenarios degree10 csv =
    let rows = Figures.Fig9.run ~seed ~scenarios ~degree_ten_row:degree10 () in
    print_string (if csv then Figures.Fig9.csv rows else Figures.Fig9.render rows)
  in
  let degree10 =
    Arg.(value & flag & info [ "degree-ten" ] ~doc:"Include the §4.3.3 degree-10 row (slower).")
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Effect of alpha / node degree (§4.3.3).")
    Term.(const run $ seed_arg 9 $ scenarios_arg $ degree10 $ csv_arg)

let fig10_cmd =
  let run seed scenarios csv =
    let rows = Figures.Fig10.run ~seed ~scenarios () in
    print_string (if csv then Figures.Fig10.csv rows else Figures.Fig10.render rows)
  in
  Cmd.v
    (Cmd.info "fig10" ~doc:"Effect of group size (§4.3.4).")
    Term.(const run $ seed_arg 10 $ scenarios_arg $ csv_arg)

let all_cmd =
  let run seed scenarios =
    print_string (Figures.Fig7.render (Figures.Fig7.run ~seed ()));
    print_newline ();
    print_string (Figures.Fig8.render (Figures.Fig8.run ~seed ~scenarios ()));
    print_newline ();
    print_string (Figures.Fig9.render (Figures.Fig9.run ~seed ~scenarios ()));
    print_newline ();
    print_string (Figures.Fig10.render (Figures.Fig10.run ~seed ~scenarios ()))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure.")
    Term.(const run $ seed_arg 42 $ scenarios_arg)

let scenario_cmd =
  let run seed n group alpha d_thresh =
    if group >= n then begin
      Printf.eprintf "scenario: --group %d must be smaller than -n %d\n" group n;
      exit 1
    end;
    let config =
      { Scenario.default with Scenario.seed; n; group_size = group; alpha; d_thresh }
    in
    let s = Scenario.run config in
    let a = Scenario.aggregates s in
    Printf.printf
      "scenario seed=%d: N=%d N_G=%d alpha=%.2f D_thresh=%.2f\n\
       average degree        %.2f\n\
       tree cost             SPF %.3f   SMRP %.3f  (%+.1f%%)\n\
       RD reduction (local)  %.1f%%\n\
       delay penalty         %.1f%%\n\
       local vs global       %.1f%%\n"
      seed n group alpha d_thresh s.Scenario.average_degree s.Scenario.cost_spf
      s.Scenario.cost_smrp
      (100.0 *. a.Scenario.cost_relative)
      (100.0 *. a.Scenario.rd_relative)
      (100.0 *. a.Scenario.delay_relative)
      (100.0 *. a.Scenario.local_vs_global)
  in
  let n = Arg.(value & opt positive 100 & info [ "n" ] ~docv:"N" ~doc:"Network size.") in
  let group = Arg.(value & opt positive 30 & info [ "group" ] ~docv:"N_G" ~doc:"Group size.") in
  let alpha = Arg.(value & opt float 0.2 & info [ "alpha" ] ~docv:"A" ~doc:"Waxman alpha.") in
  let d_thresh =
    Arg.(value & opt float 0.3 & info [ "d-thresh" ] ~docv:"D" ~doc:"SMRP delay bound.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run and summarise one scenario.")
    Term.(const run $ seed_arg 1 $ n $ group $ alpha $ d_thresh)

let latency_cmd =
  let run seed runs trace metrics openmetrics =
    if trace = None && not metrics && not openmetrics then
      print_string (Latency.render (Latency.run_many ~seed ~runs Latency.default))
    else begin
      let oc = Option.map (open_out_or_exit "latency") trace in
      (match Latency.run_one ~flight:(oc <> None) ~with_metrics:metrics ~seed Latency.default with
      | Some r ->
          Option.iter
            (fun oc ->
              Latency.to_chrome r (fun line ->
                  output_string oc line;
                  output_char oc '\n');
              let dropped (s : Latency.side_result) =
                Option.fold ~none:0 ~some:Flight.dropped s.Latency.flight
              in
              let n = dropped r.Latency.smrp + dropped r.Latency.pim in
              if n > 0 then Printf.eprintf "latency: the trace lost its %d oldest flight records\n%!" n)
            oc;
          if openmetrics then begin
            let emit label (side : Latency.side_result) =
              Printf.printf "# side: %s\n%s" label
                (Causal.openmetrics_of_episodes side.Latency.episodes)
            in
            emit "smrp" r.Latency.smrp;
            emit "pim" r.Latency.pim;
            print_string "# EOF\n"
          end
          else print_string (Latency.render [ r ])
      | None -> prerr_endline "latency: no recoverable scenario found for this seed");
      Option.iter close_out oc;
      Option.iter
        (Printf.printf
           "trace written to %s (Chrome trace_event JSONL; load in Perfetto or chrome://tracing)\n")
        trace
    end
  in
  let runs =
    Arg.(value & opt positive 10 & info [ "runs" ] ~docv:"N" ~doc:"Topologies to simulate.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Trace one scenario (both protocol sides) to $(docv) as Chrome trace_event JSONL, \
             keyed on the simulation clock.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Run one scenario and dump engine/net/protocol metric registries per side.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Run one scenario and emit its recovery episodes (both protocol sides) as an \
             OpenMetrics-style text exposition.")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Packet-level restoration latency, SMRP vs PIM/OSPF.")
    Term.(const run $ seed_arg 25 $ runs $ trace $ metrics $ openmetrics)

let profile_cmd =
  let module Metrics = Smrp_obs.Metrics in
  let module Profile = Smrp_obs.Profile in
  let module Pool = Smrp_experiments.Pool in
  let module Dijkstra = Smrp_graph.Dijkstra in
  let module Reshape = Smrp_core.Reshape in
  let run seed scenarios jobs trace_file =
    let prof = Profile.create () in
    let metrics = Metrics.create () in
    let flight = Option.map (fun _ -> Flight.create ~capacity:262144 ()) trace_file in
    let rows =
      Profile.phase prof "fig9.sweep" (fun () ->
          Pool.with_instrumentation ~profile:prof ?flight (fun () ->
              Figures.Fig9.run ?jobs ~metrics ~seed ~scenarios ~degree_ten_row:false ()))
    in
    let rendered = Profile.phase prof "fig9.render" (fun () -> Figures.Fig9.render rows) in
    (* Condition-II reshape sweeps on a few freshly built trees: the
       per-round counters and wall-time sketches land in the shared
       registry, the per-round/per-sweep spans in the trace. *)
    let reshape_stats =
      Profile.phase prof "reshape.stabilize" (fun () ->
          List.map
            (fun s ->
              let sc = Scenario.run { Scenario.default with Scenario.seed = s } in
              let tree = sc.Scenario.smrp_tree in
              let ws =
                Dijkstra.workspace
                  ~capacity:(Smrp_graph.Graph.node_count sc.Scenario.graph)
                  ()
              in
              Option.iter (fun fl -> Dijkstra.set_flight ws (Flight.recorder fl)) flight;
              Reshape.stabilize ~ws ~metrics tree)
            (List.init 5 (fun i -> seed + 900 + i)))
    in
    print_string rendered;
    Printf.printf "\n-- reshape stabilize (%d sweeps) --\nrounds %d, switches %d\n"
      (List.length reshape_stats)
      (List.fold_left (fun a (s : Reshape.stats) -> a + s.Reshape.rounds) 0 reshape_stats)
      (List.fold_left (fun a (s : Reshape.stats) -> a + s.Reshape.switches) 0 reshape_stats);
    Printf.printf "\n-- metrics (merged across %d shard(s)) --\n%s"
      (Metrics.shard_count metrics) (Metrics.render metrics);
    Printf.printf "\n-- phases and pool workers --\n%s" (Profile.render prof);
    match (trace_file, flight) with
    | Some file, Some fl ->
        let oc = open_out_or_exit "profile" file in
        let events = ref 0 in
        Causal.to_chrome
          (fun line ->
            incr events;
            output_string oc line;
            output_char oc '\n')
          (Flight.snapshot fl);
        close_out oc;
        Printf.printf
          "\ntrace written to %s (%d events, %d records dropped, Chrome trace_event JSONL; tids \
           are domain ids; load in Perfetto or chrome://tracing)\n"
          file !events (Flight.dropped fl)
    | _ -> ()
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's stitched multi-domain trace (pool task/worker spans) to $(docv) \
             as Chrome trace_event JSONL.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a Fig. 9 sweep: merged sharded metrics, per-domain pool utilisation, per-phase \
          GC deltas, and optionally the stitched multi-domain trace.")
    Term.(const run $ seed_arg 9 $ scenarios_arg $ jobs_arg $ trace)

let report_cmd =
  let module Report = Smrp_obs.Report in
  let module Dashboard = Smrp_experiments.Dashboard in
  let run seed scenarios quick jobs html json =
    with_crash_dump "smrp-crash.flight" @@ fun () ->
    let base = if quick then Dashboard.quick else Dashboard.default in
    let scenarios = Option.value scenarios ~default:base.Dashboard.scenarios in
    let report = Dashboard.run ?jobs { base with Dashboard.seed; scenarios } in
    print_string (Report.render_ascii report);
    write_file "report" html (Report.render_html report);
    Printf.printf "\nHTML dashboard written to %s\n" html;
    Option.iter
      (fun file ->
        write_file "report" file (Report.to_string report);
        Printf.printf "report JSON written to %s\n" file)
      json
  in
  let scenarios =
    Arg.(
      value
      & opt (some positive) None
      & info [ "scenarios" ] ~docv:"N" ~doc:"Random topologies per variant (default 20; 4 with --quick).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down campaign (CI/smoke scale).")
  in
  let html =
    Arg.(
      value & opt string "smrp-report.html"
      & info [ "html" ] ~docv:"FILE" ~doc:"Where to write the HTML comparison dashboard.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the structured report as JSON.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the comparison campaign (SPF baseline vs SMRP D_thresh sweep vs query scheme, plus \
          the packet-level latency simulation) and emit an ASCII summary and a self-contained \
          HTML dashboard.")
    Term.(const run $ seed_arg 42 $ scenarios $ quick $ jobs_arg $ html $ json)

let campaign_cmd =
  let module Report = Smrp_obs.Report in
  let module Campaign = Smrp_experiments.Campaign in
  let run seed matrix quick jobs json html summary_only =
    with_crash_dump "smrp-crash.flight" @@ fun () ->
    let base = if quick then Campaign.quick else Campaign.default in
    let spec =
      match matrix with
      | None -> base
      | Some m -> (
          match Campaign.spec_of_matrix ~base m with
          | Ok spec -> spec
          | Error msg ->
              Printf.eprintf "campaign: bad --matrix: %s\n" msg;
              exit 2)
    in
    let spec = match seed with None -> spec | Some seed -> { spec with Campaign.seed } in
    let report = Campaign.run ?jobs spec in
    if not summary_only then print_string (Report.render_ascii report);
    print_newline ();
    print_string (Campaign.render_summary report);
    Printf.printf "\ndigest %s\n" (Campaign.digest report);
    Option.iter
      (fun file ->
        write_file "campaign" file (Report.to_string report);
        Printf.printf "campaign JSON written to %s\n" file)
      json;
    Option.iter
      (fun file ->
        write_file "campaign" file (Report.render_html report);
        Printf.printf "HTML dashboard written to %s\n" file)
      html
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (default: the preset's).")
  in
  let matrix =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"SPEC"
          ~doc:
            "Matrix description, overriding the preset axis-wise: \
             $(b,axis=value,value;...) with axes $(b,topo) (waxman[:N], ts, locality[:N], \
             scale:N), $(b,churn) (static[:K], flash, diurnal, heavy), $(b,fail) (indep[:K], \
             correlated, regional, cascade, adversarial[:B]), $(b,proto) (spf, smrp[:D], \
             protected[:D], query[:D]), plus $(b,instances=N), $(b,horizon=T) and $(b,seed=S).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"The pinned CI matrix (3x3x2x3, 2 instances per cell).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the structured report as JSON.")
  in
  let html =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE" ~doc:"Write the self-contained HTML comparison dashboard.")
  in
  let summary_only =
    Arg.(
      value & flag
      & info [ "summary" ] ~doc:"Print only the per-cell summary table, not the full report.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a declarative scenario matrix — topology family x churn model x failure model x \
          protocol variant — every cell independently seeded, fanned out across domains, and \
          collected into one comparison report.")
    Term.(const run $ seed $ matrix $ quick $ jobs_arg $ json $ html $ summary_only)

let fuzz_cmd =
  let module Fuzz = Smrp_check.Fuzz in
  let module Case = Smrp_check.Case in
  let module Exec = Smrp_check.Exec in
  let replay_one ~bug ~engine_diff ~protection file =
    match Case.load file with
    | Error msg ->
        Printf.eprintf "fuzz: cannot load %s: %s\n" file msg;
        exit 2
    | Ok case -> (
        Format.printf "%a@." Case.pp case;
        Flight.reset Flight.global;
        match Fuzz.replay ~bug ~engine_diff ~protection case with
        | Exec.Pass s ->
            Printf.printf "replay: all invariants held (%d event(s) applied, %d skipped)\n"
              s.Exec.applied s.Exec.skipped;
            exit 0
        | Exec.Fail v ->
            Format.printf "replay: VIOLATION %a@." Exec.pp_violation v;
            let dump = file ^ ".flight" in
            write_flight_dump dump;
            Printf.printf "replay: flight dump written to %s (inspect with: smrp inspect %s)\n"
              dump dump;
            exit 1)
  in
  let campaign ~seed ~runs ~bug ~engine_diff ~protection ~max_nodes ~out =
    let params = { Smrp_check.Gen.default with Smrp_check.Gen.max_nodes } in
    let report =
      Fuzz.run { Fuzz.default with Fuzz.seed; runs; bug; params; engine_diff; protection }
    in
    print_string (Fuzz.render report);
    match report.Fuzz.failures with
    | [] -> exit 0
    | f :: _ ->
        Case.save out f.Fuzz.shrunk;
        Printf.printf "fuzz: shrunk repro written to %s (replay with: smrp fuzz --replay %s%s)\n"
          out out
          (match bug with
          | Exec.No_bug -> ""
          | b -> Printf.sprintf " --inject %s" (Exec.bug_to_string b));
        (* Crash dump: re-run the shrunk case on an empty ring so the dump
           holds exactly the failing episode, not the whole campaign's (and
           the shrinker's) record soup. *)
        let dump = out ^ ".flight" in
        Flight.reset Flight.global;
        ignore (Fuzz.replay ~bug ~engine_diff ~protection f.Fuzz.shrunk : Smrp_check.Exec.outcome);
        write_flight_dump dump;
        Printf.printf "fuzz: flight dump written to %s (inspect with: smrp inspect %s)\n" dump
          dump;
        exit 1
  in
  let run seed runs inject engine_diff protection replay max_nodes out =
    let bug =
      match Exec.bug_of_string inject with
      | Ok b -> b
      | Error msg ->
          Printf.eprintf "fuzz: %s\n" msg;
          exit 2
    in
    if engine_diff && bug <> Exec.No_bug then begin
      Printf.eprintf "fuzz: --engine-diff replays the real stack; --inject does not apply\n";
      exit 2
    end;
    if engine_diff && protection then begin
      Printf.eprintf "fuzz: --engine-diff bypasses the tree-level session; --protection does not apply\n";
      exit 2
    end;
    with_crash_dump "smrp-crash.flight" (fun () ->
        match replay with
        | Some file -> replay_one ~bug ~engine_diff ~protection file
        | None -> campaign ~seed ~runs ~bug ~engine_diff ~protection ~max_nodes ~out)
  in
  let runs =
    Arg.(value & opt int 500 & info [ "runs" ] ~docv:"N" ~doc:"Random cases to execute.")
  in
  let inject =
    Arg.(
      value & opt string "none"
      & info [ "inject" ] ~docv:"BUG"
          ~doc:
            "Deliberately inject a protocol bug (oracle self-test): $(b,skip-shr) drops an \
             N_R/SHR bookkeeping update on every join; $(b,drop-member) makes reshaping \
             silently unsubscribe a member; $(b,none) fuzzes the real stack.")
  in
  let engine_diff =
    Arg.(
      value & flag
      & info [ "engine-diff" ]
          ~doc:
            "Engine-differential mode: replay each case as a packet-level simulation on both \
             the timer-wheel and the reference-heap event queues and fail unless the engine \
             fingerprint, frame accounting and member reports are byte-identical.")
  in
  let protection =
    Arg.(
      value & flag
      & info [ "protection" ]
          ~doc:
            "Arm the precomputed-protection layer in every fuzzed session: single link/node \
             failures are repaired by table lookup and audited against a from-scratch branch \
             detour search, on top of the usual oracle battery.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE" ~doc:"Replay one repro file instead of fuzzing.")
  in
  let max_nodes =
    Arg.(
      value
      & opt int Smrp_check.Gen.default.Smrp_check.Gen.max_nodes
      & info [ "max-nodes" ] ~docv:"N" ~doc:"Topology size ceiling for generated cases.")
  in
  let out =
    Arg.(
      value
      & opt string "smrp-fuzz-repro.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the shrunk repro on failure.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fault-injection fuzzing: random topologies and event schedules driven through \
          Session/Recovery/Reshape with invariant oracles after every event; failures shrink \
          to replayable repro files.")
    Term.(
      const run $ seed_arg 42 $ runs $ inject $ engine_diff $ protection $ replay $ max_nodes
      $ out)

let inspect_cmd =
  let run file codes since episode openmetrics limit =
    let records, dropped =
      match Flight.read_dump file with
      | r -> r
      | exception Flight.Bad_dump msg ->
          Printf.eprintf "inspect: %s\n" msg;
          exit 2
      | exception Sys_error msg ->
          Printf.eprintf "inspect: %s\n" msg;
          exit 2
    in
    let analysis = Causal.of_records ~dropped records in
    if openmetrics then print_string (Causal.to_openmetrics analysis)
    else begin
      print_string (Causal.render analysis);
      let code_ids =
        List.map
          (fun name ->
            match Flight.code_of_name name with
            | Some c -> c
            | None ->
                Printf.eprintf "inspect: unknown --code %S\n" name;
                exit 2)
          codes
      in
      (* b packs src and dst for net records. *)
      let src = Flight.hi and dst = Flight.lo in
      let is_net c = c >= Flight.net_send && c <= Flight.net_drop_loss in
      let touches_member m (r : Flight.decoded) =
        if is_net r.Flight.d_code then src r.Flight.d_b = m || dst r.Flight.d_b = m
        else if r.Flight.d_code = Flight.exec_event then
          Causal.exec_event_operand r.Flight.d_a = m
        else if r.Flight.d_code = Flight.exec_violation then false
        else r.Flight.d_a = m
      in
      let keep (r : Flight.decoded) =
        (code_ids = [] || List.mem r.Flight.d_code code_ids)
        && r.Flight.d_tick >= since
        && match episode with None -> true | Some m -> touches_member m r
      in
      let filtered = List.filter keep records in
      let shown = if limit > 0 then List.filteri (fun i _ -> i < limit) filtered else filtered in
      Printf.printf "records (%d shown of %d matching):\n" (List.length shown)
        (List.length filtered);
      List.iter
        (fun (r : Flight.decoded) ->
          let operands =
            if is_net r.Flight.d_code then
              Printf.sprintf "msg=%d src=%d dst=%d" r.Flight.d_a (src r.Flight.d_b)
                (dst r.Flight.d_b)
            else Printf.sprintf "a=%d b=%d" r.Flight.d_a r.Flight.d_b
          in
          Printf.printf "  %12d %-18s %s (dom %d seq %d)\n" r.Flight.d_tick
            (Flight.code_name r.Flight.d_code)
            operands r.Flight.d_domain r.Flight.d_seq)
        shown;
      if List.length filtered > List.length shown then
        Printf.printf "  ... %d more (raise --limit, or 0 for all)\n"
          (List.length filtered - List.length shown)
    end
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DUMP" ~doc:"Flight-recorder dump file (written next to fuzz repros).")
  in
  let codes =
    Arg.(
      value
      & opt (list string) []
      & info [ "code" ] ~docv:"NAME,..."
          ~doc:
            "Only list records with these event codes (symbolic like $(b,net.send), \
             $(b,proto.detected), $(b,exec.violation) — or numeric).")
  in
  let since =
    Arg.(
      value & opt int 0
      & info [ "since" ] ~docv:"TICK" ~doc:"Only list records at or after this tick.")
  in
  let episode =
    Arg.(
      value
      & opt (some int) None
      & info [ "episode" ] ~docv:"MEMBER"
          ~doc:"Only list records touching this member's recovery episode.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Emit the analysis as an OpenMetrics-style text exposition instead.")
  in
  let limit =
    Arg.(
      value & opt int 40
      & info [ "limit" ] ~docv:"N" ~doc:"Cap the record listing (0 = unlimited).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Decode a flight-recorder crash dump: record counts, causal recovery episodes with \
          per-phase critical paths, oracle violations attributed to recovery phases, and a \
          filterable record listing.")
    Term.(const run $ file $ codes $ since $ episode $ openmetrics $ limit)

let ablations_cmd =
  let run seed scenarios =
    print_string (Ablation.Reshaping.render (Ablation.Reshaping.run ~seed ~scenarios ()));
    print_newline ();
    print_string (Ablation.Query.render (Ablation.Query.run ~seed ~scenarios ()));
    print_newline ();
    print_string
      (Ablation.Hierarchical.render (Ablation.Hierarchical.run ~seed ~scenarios:(max 5 (scenarios / 2)) ()))
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Reshaping, query-scheme and hierarchy ablations.")
    Term.(const run $ seed_arg 11 $ scenarios_arg)

let related_cmd =
  let run seed scenarios =
    let feas = Related_work.feasibility ~seed ~samples:scenarios () in
    let cmp = Related_work.compare_schemes ~seed ~scenarios:(max 10 (scenarios / 2)) () in
    print_string (Related_work.render feas cmp)
  in
  Cmd.v
    (Cmd.info "related-work" ~doc:"SMRP vs redundant trees (Medard et al. [16]).")
    Term.(const run $ seed_arg 16 $ scenarios_arg)

let scale_cmd =
  let run seed ns json =
    (* Open the report file before the sweep, so a bad path fails at once. *)
    let out = Option.map (fun file -> (file, open_out_or_exit "scale" file)) json in
    let rows = Scaling.run ~ns ~seed () in
    print_string (Scaling.render rows);
    Option.iter
      (fun (file, oc) ->
        output_string oc (Scaling.to_json rows);
        close_out oc;
        Printf.printf "scale: JSON report written to %s\n" file)
      out
  in
  let ns =
    Arg.(
      value
      & opt (list (int_at_least 2)) [ 10_000; 100_000 ]
      & info [ "n" ] ~docv:"N,N,..."
          ~doc:
            "Topology sizes to sweep (comma-separated node counts; pass 1000000 for the \
             million-node run).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable report here.")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Large-n scaling sweep: grid-bucketed Waxman and transit-stub generation, incremental \
          SPF build/repair and protection-table precompute/lookup, per size.")
    Term.(const run $ seed_arg 17 $ ns $ json)

let dot_cmd =
  let run seed protocol =
    let s = Scenario.run { Scenario.default with Scenario.seed } in
    let tree =
      match protocol with "spf" -> s.Scenario.spf_tree | _ -> s.Scenario.smrp_tree
    in
    print_string (Dot.network ~tree s.Scenario.graph)
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("smrp", "smrp"); ("spf", "spf") ]) "smrp"
      & info [ "protocol" ] ~docv:"PROTO" ~doc:"Tree to highlight (smrp or spf).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz rendering of one scenario's tree.")
    Term.(const run $ seed_arg 1 $ protocol)

let () =
  let doc = "Reproduction of SMRP (Wu & Shin, DSN 2005)." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "smrp" ~version:"1.0.0" ~doc)
          [
            fig7_cmd;
            fig8_cmd;
            fig9_cmd;
            fig10_cmd;
            all_cmd;
            scenario_cmd;
            campaign_cmd;
            fuzz_cmd;
            inspect_cmd;
            latency_cmd;
            profile_cmd;
            report_cmd;
            ablations_cmd;
            related_cmd;
            scale_cmd;
            dot_cmd;
          ]))
