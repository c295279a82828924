(* Domain-parallel fan-out for embarrassingly parallel scenario sweeps.

   Every §4 figure averages ~100 independently seeded scenarios per data
   point; each scenario is a pure function of its config (topology, group and
   failure draws all derive from the scenario seed), so the fan-out is
   deterministic by construction: workers write into the slot of the input
   they claimed, and the merged output is read back in input order.  Running
   with 1 job or 64 therefore yields byte-identical results — the contract
   the experiment tables rely on.

   Workers share nothing: each scenario builds its own graph, trees, RNG and
   Dijkstra workspace inside the worker that claimed it.

   Observability: an optional [Smrp_obs.Profile.t] records one utilisation
   entry per worker domain (tasks claimed, busy vs. idle wall time), and an
   optional [Smrp_obs.Flight.t] gets one "pool.task" span record per
   claimed task plus one "pool.worker" span record per worker, each in its
   worker domain's own ring.  Neither hook affects results; with both
   absent the per-task cost is one [None] check and a disabled-recorder
   branch. *)

module Profile = Smrp_obs.Profile
module Flight = Smrp_obs.Flight

let default_jobs () =
  match Sys.getenv_opt "SMRP_BENCH_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf
            "warning: SMRP_BENCH_JOBS=%S is not a positive integer; using the domain count\n%!" v;
          Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Ambient instrumentation, consulted when [map] is not given explicit
   hooks.  Installed and read by the orchestrating domain only (the ref
   holds an immutable pair, so a racy read from a nested call would still
   be memory-safe — it is simply unsupported). *)
let ambient : (Profile.t option * Flight.t option) ref = ref (None, None)

let with_instrumentation ?profile ?flight f =
  let old = !ambient in
  ambient := (profile, flight);
  Fun.protect ~finally:(fun () -> ambient := old) f

(* Worker domains may consult this too: the install happens before
   [Domain.spawn] and the restore after the joins, so the spawn edge makes
   the installed value visible to every worker. *)
let ambient_flight () = snd !ambient

let map ?jobs ?profile ?flight f xs =
  let profile, flight =
    let amb_p, amb_f = !ambient in
    ( (match profile with Some _ -> profile | None -> amb_p),
      match flight with Some _ -> flight | None -> amb_f )
  in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 && profile = None && flight = None then List.map f xs
  else begin
    let results = Array.make n None in
    (* The lowest failing index so far, and each failure's exception: the
       one re-raised is the lowest, as [List.map] would raise it. *)
    let failed = Atomic.make n in
    let errors = Array.make n None in
    let rec fail i =
      let cur = Atomic.get failed in
      if i < cur && not (Atomic.compare_and_set failed cur i) then fail i
    in
    let next = Atomic.make 0 in
    let worker () =
      let wh = Option.map Profile.worker_start profile in
      let recorder = match flight with Some fl -> Flight.recorder fl | None -> Flight.null in
      let w0 = Flight.span_start recorder in
      let run_task i =
        let body () =
          let start = Flight.span_start recorder in
          let v = f tasks.(i) in
          Flight.span recorder ~code:Flight.span_pool_task ~start ~b:i;
          v
        in
        match wh with Some h -> Profile.worker_task h body | None -> body ()
      in
      let rec loop ran =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then ran
        else if i > Atomic.get failed then loop ran (* a lower index already failed *)
        else begin
          (match run_task i with
          | v -> results.(i) <- Some v
          | exception e ->
              errors.(i) <- Some e;
              fail i);
          loop (ran + 1)
        end
      in
      let ran = loop 0 in
      Flight.span recorder ~code:Flight.span_pool_worker ~start:w0 ~b:ran;
      Option.iter Profile.worker_stop wh
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    let k = Atomic.get failed in
    if k < n then raise (Option.get errors.(k));
    Array.to_list (Array.map (function Some v -> v | None -> assert false) results)
  end

let mapi ?jobs ?profile ?flight f xs =
  map ?jobs ?profile ?flight (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)
