(* campaign_churn: Campaign.default (3 topology families x 4 churn models x
   5 failure models x 5 protocols = 300 cells of about 100 nodes) seeded
   from the workload seed, then rendered as JSON and HTML — what `smrp
   campaign --json --html` produces.  One request is one whole campaign with
   both renderings; the same campaign repeats to fill the run.  It is
   dominated by joins and leaves on small graphs, and is the only workload
   that goes through Pool.

   Requests run at jobs = 1: on a 2-vCPU host the same seeded campaign took
   1.65–2.49 s at jobs = 2 from one run to the next, against 3.87–4.03 s at
   jobs = 1.  The traced run times the campaign at jobs = the core count,
   with Pool's worker profile, for experiments.pool.*. *)

module Campaign = Smrp_experiments.Campaign
module Pool = Smrp_experiments.Pool
module Report = Smrp_obs.Report
module Profile = Smrp_obs.Profile

(* Campaigns per run second, from the rate measured on a 2-core x86 host. *)
let campaigns_per_second = 0.25

let campaigns ~seconds ~traced =
  let n = max 2 (int_of_float (Float.round (campaigns_per_second *. float_of_int seconds))) in
  (* A traced run spends about half its time on the decomposition legs. *)
  if traced then max 2 (n / 2) else n

let parallel_jobs = Domain.recommended_domain_count ()

let variant_named report name =
  List.find_opt (fun v -> String.equal v.Report.v_name name) report.Report.r_variants

(* Set-up: the seeded spec, its cells, and a warm-up campaign of one cell
   per topology family, so the first timed campaign does not pay for lazy
   initialisation. *)
let setup seed =
  let spec = { Campaign.default with Campaign.seed } in
  let cells = Campaign.cells spec in
  let first l = [ List.hd l ] in
  let warm =
    {
      spec with
      Campaign.churns = first spec.Campaign.churns;
      failures = first spec.Campaign.failures;
      protocols = first spec.Campaign.protocols;
    }
  in
  ignore (Campaign.run ~jobs:1 warm : Report.t);
  (spec, List.length cells)

(* Sub-campaigns restricted to one value of an axis re-run exactly the
   full campaign's cells (cells are seeded by name): their variants must
   equal the full run's and their cell counts must sum to its count. *)
let sub_campaigns out spec full ~axis ~restrict names =
  let counted =
    List.map
      (fun name ->
        Out.op out "sub-campaign" (fun () ->
            let sub = restrict name in
            let report, dt = Span.timed "experiments.campaign_run_sub" (fun () -> Campaign.run ~jobs:1 sub) in
            Out.set out (Printf.sprintf "experiments.campaign_%s_s.%s" axis name) "s" dt;
            Out.require
              (List.for_all (fun v -> variant_named full v.Report.v_name = Some v) report.Report.r_variants)
              "%s=%s: a sub-campaign cell differs from the full run" axis name;
            List.length (Campaign.cells sub)))
      names
  in
  let total = List.fold_left (fun a c -> a + Option.value ~default:0 c) 0 counted in
  Out.set out (Printf.sprintf "experiments.campaign_%s_cells" axis) "count" (float_of_int total);
  Out.check out "sub-campaign cells"
    (total = List.length (Campaign.cells spec))
    (Printf.sprintf "%s sub-campaigns cover %d cells, the full run %d" axis total
       (List.length (Campaign.cells spec)))

let run out ~seed ~seconds ~traced =
  let spec, cells = Out.setup out (fun () -> setup seed) in
  let count = campaigns ~seconds ~traced in
  let requests = ref [] and run_s = ref [] and json_ms = ref [] and html_ms = ref [] in
  let digest = ref None and first = ref None in
  let traced_s = ref [] and untraced_s = ref [] in
  for i = 1 to count do
    Span.set_op i;
    (* Traced runs leave every second campaign untraced: the same top-level
       call both ways gives the tracing overhead. *)
    if traced then Span.enabled := i mod 2 = 1;
    ignore
      (Out.op out "campaign" (fun () ->
           let report, dt_run = Span.timed "experiments.campaign_run" (fun () -> Campaign.run ~jobs:1 spec) in
           let json, dt_json = Span.timed "obs.report_json" (fun () -> Report.to_string report) in
           let (_ : string), dt_html = Span.timed "obs.report_html" (fun () -> Report.render_html report) in
           Out.require (Report.of_string json = report) "Report.of_string round-trip is not the identity";
           let d = Campaign.digest report in
           (match !digest with
           | None ->
               digest := Some d;
               first := Some report
           | Some d0 -> Out.require (String.equal d d0) "repeated campaign digest %s differs from %s" d d0);
           requests := ((dt_run +. dt_json +. dt_html) *. 1e3) :: !requests;
           run_s := dt_run :: !run_s;
           if !Span.enabled then traced_s := dt_run :: !traced_s else untraced_s := dt_run :: !untraced_s;
           json_ms := (dt_json *. 1e3) :: !json_ms;
           html_ms := (dt_html *. 1e3) :: !html_ms)
        : unit option);
    if Out.setup_due ~requests:count ~extra:4 (i - 1) then ignore (Out.setup out (fun () -> setup seed) : _ * _)
  done;
  Out.mean_latency out ~name:"request_mean_ms" ~unit:"ms" ~attempted:count !requests;
  Out.percentiles out ~prefix:"request" ~unit:"ms" ~ps:[ 50 ] ~attempted:count !requests;
  let total_s = List.fold_left ( +. ) 0.0 !requests /. 1e3 in
  let cells_per_s = Out.ratio (float_of_int (cells * List.length !requests)) total_s in
  Out.set out "work_per_s" "1/s" cells_per_s;
  Out.set out "cells_per_s" "cells/s" cells_per_s;
  Out.set out "experiments.campaign_cells" "count" (float_of_int cells);
  Out.set out ~samples:(List.length !json_ms) "obs.report_json_ms" "ms" (Out.median !json_ms);
  Out.set out ~samples:(List.length !html_ms) "obs.report_html_ms" "ms" (Out.median !html_ms);
  (match (traced, !first) with
  | true, Some full ->
      Span.enabled := true;
      Out.set out "bench.trace_overhead_ratio" "ratio"
        ((Out.median !traced_s /. Out.median !untraced_s) -. 1.0);
      sub_campaigns out spec full ~axis:"proto"
        ~restrict:(fun name ->
          { spec with Campaign.protocols = [ (name, List.assoc name spec.Campaign.protocols) ] })
        (List.map fst spec.Campaign.protocols);
      sub_campaigns out spec full ~axis:"fail"
        ~restrict:(fun name ->
          { spec with Campaign.failures = [ (name, List.assoc name spec.Campaign.failures) ] })
        (List.map fst spec.Campaign.failures);
      let profile = Profile.create () in
      let parallel =
        Out.op out "campaign parallel" (fun () ->
            let report, dt =
              Pool.with_instrumentation ~profile (fun () ->
                  Span.timed "experiments.campaign_run_parallel" (fun () ->
                      Campaign.run ~jobs:parallel_jobs spec))
            in
            Out.require (report = full) "the jobs=%d report differs from the jobs=1 report" parallel_jobs;
            dt)
      in
      let workers = Profile.workers profile in
      let busy = List.fold_left (fun a w -> a +. w.Profile.busy_s) 0.0 workers in
      let wall = List.fold_left (fun a w -> a +. w.Profile.wall_s) 0.0 workers in
      Out.set out "experiments.pool.busy_ratio" "ratio" (Out.ratio busy wall);
      Out.set out "experiments.pool.idle_s" "s" (wall -. busy);
      Option.iter
        (fun dt -> Out.set out "experiments.pool.speedup" "ratio" (Out.ratio (Out.median !run_s) dt))
        parallel
  | _ -> ());
  Option.value ~default:"" !digest
