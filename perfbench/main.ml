(* End-to-end benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from the repository root, checks its outputs, and
   prints one JSON result line last on stdout: the end-to-end metrics that
   BENCHMARK.json lists (untraced run) or its per-layer metrics (--trace 1).
   A human-readable table with sample counts goes to stderr.  Exits 1 when
   any operation raised or any correctness check failed. *)

let default_seed = 1

let workloads =
  [
    ("failover", Failover.run);
    ("campaign_churn", Campaign_churn.run);
    ("packet_restore", Packet_restore.run);
  ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  let v = scan () in
  close_in ic;
  v

(* Per span name its allocation, and per layer its self time. *)
let report_spans out =
  List.iter
    (fun name ->
      let words = List.fold_left (fun a s -> a +. s.Span.minor_words) 0.0 (Span.named name) in
      Out.set out (name ^ ".minor_words") "words" words)
    (Span.names ());
  let self = Hashtbl.create 8 in
  List.iter
    (fun (s, dt) ->
      let l = Span.layer_of s.Span.name in
      Hashtbl.replace self l (dt +. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
    (Span.self_times ());
  Hashtbl.iter (fun l dt -> Out.set out ("layer." ^ l ^ ".self_s") "s" dt) self

let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S intended measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let catalogue = Out.load_catalogue "BENCHMARK.json" in
  let traced = !trace = 1 in
  Span.enabled := traced;
  let out = Out.create () in
  let digest = run out ~seed:!seed ~seconds:!seconds ~traced in
  Out.set out "peak_rss_mb" "MB" (peak_rss_mb ());
  if traced then report_spans out;
  Printf.eprintf "%s seed=%d seconds=%d trace=%d digest=%s\n" !workload !seed !seconds !trace digest;
  (match List.assoc_opt !workload Pinned.digests with
  | Some (secs, want) when !seed = default_seed && secs = !seconds ->
      Out.check out "pinned digest" (String.equal want digest)
        (Printf.sprintf "digest %s differs from the pinned %s" digest want)
  | _ -> ());
  Out.set out "bench.error_ratio" "ratio" (Out.ratio (float_of_int out.Out.failed) (float_of_int out.Out.attempted));
  if traced then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    Span.write (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload !seed)
  end;
  if not (Out.emit out catalogue ~traced) then exit 1
