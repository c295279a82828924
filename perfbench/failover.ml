(* failover: generate -> build the tree by joins -> persistent failures ->
   repair -> reshape, on 1000-node Scale.waxman graphs (target degree 8).

   Each seeded session (source, 32 members, Smrp d_thresh 0.3) runs twice on
   the same group and the same failure sequence: once with the precomputed
   protection tables and once on the search path.  Failures accumulate, as
   the paper's persistent failures do; they alternate between an on-tree link
   and a non-source on-tree node, drawn from the search session's current
   tree.  One request is one failure restored on both sessions: Session.fail
   then Session.reshape_all on each. *)

module Rng = Smrp_rng.Rng
module Dspf = Smrp_graph.Dspf
module Scale = Smrp_topology.Scale
module Tree = Smrp_core.Tree
module Session = Smrp_core.Session
module Failure = Smrp_core.Failure
module Protect = Smrp_core.Protect
module Recovery = Smrp_core.Recovery

let nodes = 1000
let target_degree = 8.0
let group = 32
let d_thresh = 0.3
let failures_per_session = 4

(* Session pairs per run second, from the rate measured on a 2-core x86
   host, so that a run measures about [--seconds] and S x K >= 100 requests
   give the p90 ten samples beyond it at the default length. *)
let sessions_per_second = 0.87

let sessions ~seconds = max 2 (int_of_float (Float.round (sessions_per_second *. float_of_int seconds)))

type kind = Protected | Search

let kind_name = function Protected -> "protected" | Search -> "search"

type plan = { source : int; members : int list; fail_seed : int }

(* Every session gets its own graph: one graph per run made the request
   time of a run swing by ~17% between seeds with the graph's shape. *)
let generate seed ~count =
  let rng = Rng.create seed in
  let alpha, beta = Scale.degree_params ~n:nodes ~target_degree in
  List.init count (fun _ ->
      let r = Rng.split rng in
          let topo, gen_s =
        Span.timed "topology.scale_waxman" (fun () -> Scale.waxman (Rng.split r) ~n:nodes ~alpha ~beta)
      in
      let chosen = Array.of_list (Rng.sample_without_replacement r (group + 1) nodes) in
      Rng.shuffle r chosen;
      ( topo.Scale.graph,
        {
          source = chosen.(0);
          members = Array.to_list (Array.sub chosen 1 group);
          fail_seed = Int64.to_int (Rng.bits64 r) land 0x3FFF_FFFF;
        },
        gen_s ))

(* -- Output digest --------------------------------------------------------- *)

let render_failure b g f = Buffer.add_string b (Format.asprintf "%a" (Failure.pp g) f)

let render_event b g = function
  | Session.Joined m -> Printf.bprintf b "J%d;" m
  | Session.Left m -> Printf.bprintf b "L%d;" m
  | Session.Reshaped { node; switches } -> Printf.bprintf b "S%d/%d;" node switches
  | Session.Failed f ->
      Buffer.add_char b 'F';
      render_failure b g f;
      Buffer.add_char b ';'
  | Session.Repaired { detour = d; strategy } ->
      Printf.bprintf b "R%s:%d>%d@%h[%s];"
        (match strategy with `Local -> "l" | `Global -> "g" | `Protected -> "p")
        d.Recovery.member d.Recovery.merge d.Recovery.recovery_distance
        (String.concat "," (List.map string_of_int d.Recovery.path_edges))
  | Session.Lost m -> Printf.bprintf b "X%d;" m

(* -- Correctness ----------------------------------------------------------- *)

let validate s =
  let tree = Session.tree s in
  (match Tree.validate tree with Ok () -> () | Error e -> Out.require false "Tree.validate: %s" e);
  match Session.active_failure s with
  | None -> ()
  | Some f ->
      let live = Failure.tree_connected tree f in
      List.iter
        (fun m -> Out.require live.(m) "member %d is on the tree but receives no data" m)
        (Tree.members tree)

(* -- Per-run accumulators -------------------------------------------------- *)

type acc = {
  requests : float list ref;  (** ms per request, both kinds *)
  fail_ms : (kind, float list) Hashtbl.t;
  reshape_ms : float list ref;
  join_us : (kind, float list) Hashtbl.t;
  mutable attempted : int;  (** requests: failures drawn *)
  mutable switches : int;
  mutable affected : int;
  mutable failures : int;
  mutable orphaning : int;  (** protected-session failures that orphaned a branch *)
  mutable table_hits : int;  (** ... repaired from the tables *)
  mutable repairs_protected : int;
  mutable repairs_local : int;
  mutable lost : int;
  mutable lookups : int;
  mutable recomputes : int;
  (* Decomposition (traced runs): layer times per kind, and Session.fail
     time over the same failures. *)
  decomposed_s : (kind, float) Hashtbl.t;
  failed_s : (kind, float) Hashtbl.t;
  prepare_ms : float list ref;
  dspf_us : float list ref;
  detour_us : float list ref;
  digest : Buffer.t;
}

let create_acc () =
  {
    requests = ref [];
    fail_ms = Hashtbl.create 2;
    reshape_ms = ref [];
    join_us = Hashtbl.create 2;
    attempted = 0;
    switches = 0;
    affected = 0;
    failures = 0;
    orphaning = 0;
    table_hits = 0;
    repairs_protected = 0;
    repairs_local = 0;
    lost = 0;
    lookups = 0;
    recomputes = 0;
    decomposed_s = Hashtbl.create 2;
    failed_s = Hashtbl.create 2;
    prepare_ms = ref [];
    dspf_us = ref [];
    detour_us = ref [];
    digest = Buffer.create 4096;
  }

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let rec sync_dspf sp = function
  | Failure.Link e -> Dspf.fail_edge sp e
  | Failure.Node v -> Dspf.fail_node sp v
  | Failure.Multi fs -> List.iter (sync_dspf sp) fs

(* The layers one Session.fail runs, timed on a copy of the session's tree
   with a fresh Protect and the benchmark's own Dspf, so the session itself
   is never touched.  Returns the summed layer time. *)
let decompose acc kind s ~dspf f =
  let tree = Tree.copy (Session.tree s) in
  let f_all = Failure.compose (f :: Option.to_list (Session.active_failure s)) in
  let total = ref 0.0 in
  let time name f =
    let v, dt = Span.timed name f in
    total := !total +. dt;
    (v, dt)
  in
  (match kind with
  | Protected ->
      let p = Protect.create tree in
      let (), dt = time "core.protect_prepare" (fun () -> Protect.prepare p) in
      acc.prepare_ms := (dt *. 1e3) :: !(acc.prepare_ms);
      let (), dt = time "graph.dspf_update" (fun () -> sync_dspf dspf f) in
      acc.dspf_us := (dt *. 1e6) :: !(acc.dspf_us)
  | Search -> ());
  let affected, _ = time "core.failure_affected_members" (fun () -> Failure.affected_members tree f_all) in
  let fresh, _ = time "core.recovery_surviving_tree" (fun () -> Recovery.surviving_tree tree f_all) in
  List.iter
    (fun m ->
      let _, dt = time "core.recovery_local_detour" (fun () -> Recovery.local_detour fresh f_all ~member:m) in
      acc.detour_us := (dt *. 1e6) :: !(acc.detour_us))
    affected;
  add acc.decomposed_s kind !total

let draw_failure rng tree k =
  if k mod 2 = 0 then
    match Tree.tree_edges tree with [] -> None | es -> Some (Failure.Link (Rng.pick rng (Array.of_list es)))
  else
    match List.filter (fun v -> v <> Tree.source tree) (Tree.on_tree_nodes tree) with
    | [] -> None
    | vs -> Some (Failure.Node (Rng.pick rng (Array.of_list vs)))

(* One session pair; returns the host time of its top-level calls.  With
   [decomposed], every failure is first decomposed into its layers. *)
let run_session out acc ~decomposed ~failures g plan =
  let mk protection = Session.create ~protection g ~source:plan.source ~protocol:(Session.Smrp { d_thresh }) in
  let pairs = [ (Protected, mk true); (Search, mk false) ] in
  let dspf = if decomposed then Some (Dspf.create g ~source:plan.source) else None in
  let top = ref 0.0 in
  let note dt = top := !top +. dt in
  List.iter
    (fun m ->
      List.iter
        (fun (kind, s) ->
          ignore
            (Out.op out "Session.join" (fun () ->
                 let (), dt = Span.timed ("core.session_join." ^ kind_name kind) (fun () -> Session.join s m) in
                 note dt;
                 validate s;
                 push acc.join_us kind (dt *. 1e6))
              : unit option))
        pairs)
    plan.members;
  let rng = Rng.create plan.fail_seed in
  for k = 0 to failures - 1 do
    match draw_failure rng (Session.tree (List.assoc Search pairs)) k with
    | None -> ()
    | Some f ->
        let request = ref 0.0 and completed = ref 0 in
        acc.attempted <- acc.attempted + 1;
        Span.set_op acc.attempted;
        Span.run "bench.request" (fun () ->
            List.iter
              (fun (kind, s) ->
                Option.iter
                  (fun dspf ->
                    ignore (Out.op out "decompose" (fun () -> decompose acc kind s ~dspf f) : unit option))
                  dspf;
                let affected = Failure.affected_members (Session.tree s) f in
                ignore
                  (Out.op out "Session.fail" (fun () ->
                       let repairs, dt =
                         Span.timed ("core.session_fail." ^ kind_name kind) (fun () -> Session.fail s f)
                       in
                       let (_ : int), dt' =
                         Span.timed ("core.reshape_all." ^ kind_name kind) (fun () ->
                             let sw = Session.reshape_all s in
                             acc.switches <- acc.switches + sw;
                             sw)
                       in
                       note (dt +. dt');
                       validate s;
                       request := !request +. dt;
                       incr completed;
                       push acc.fail_ms kind (dt *. 1e3);
                       if decomposed then add acc.failed_s kind dt;
                       acc.reshape_ms := (dt' *. 1e3) :: !(acc.reshape_ms);
                       acc.failures <- acc.failures + 1;
                       acc.affected <- acc.affected + List.length affected;
                       let count st = List.length (List.filter (fun r -> r.Session.strategy = st) repairs) in
                       acc.repairs_protected <- acc.repairs_protected + count `Protected;
                       acc.repairs_local <- acc.repairs_local + count `Local;
                       if kind = Protected && affected <> [] then begin
                         acc.orphaning <- acc.orphaning + 1;
                         if count `Protected > 0 then acc.table_hits <- acc.table_hits + 1
                       end)
                    : unit option))
              pairs);
        (* A request with a failed half is missing: it counts as failed. *)
        if !completed = 2 then acc.requests := (!request *. 1e3) :: !(acc.requests)
  done;
  List.iter
    (fun (kind, s) ->
      Printf.bprintf acc.digest "%s:" (kind_name kind);
      List.iter
        (fun e ->
          (match e with Session.Lost _ -> acc.lost <- acc.lost + 1 | _ -> ());
          render_event acc.digest g e)
        (Session.events s);
      match Session.protection_stats s with
      | Some st ->
          acc.lookups <- acc.lookups + st.Protect.lookups;
          acc.recomputes <- acc.recomputes + st.Protect.recomputes
      | None -> ())
    pairs;
  !top

let run out ~seed ~seconds ~traced =
  let count = sessions ~seconds in
  (* Set-up is generating the graph and the session plans; it runs several
     times and reports the median. *)
  let make () = generate seed ~count in
  let sessions = Out.setup out make in
  Out.set out "topology.scale_waxman_s" "s" ~samples:count
    (Out.median (List.map (fun (_, _, dt) -> dt) sessions));
  let acc = create_acc () in
  (* A traced run decomposes the failures of every second session: the
     decomposition repeats Protect.prepare, which would double the run. *)
  List.iteri
    (fun i (g, plan, _) ->
      ignore
        (run_session out acc ~decomposed:(traced && i mod 2 = 1) ~failures:failures_per_session g plan
          : float);
      if Out.setup_due ~requests:count ~extra:4 i then ignore (Out.setup out make : _ list))
    sessions;
  (* Tracing overhead: the first session's joins and first two failures,
     untraced then traced, twice, after the caches are warm. *)
  if traced then begin
    let g, plan, _ = List.hd sessions in
    let probe spans =
      Span.enabled := spans;
      let top = run_session out (create_acc ()) ~decomposed:false ~failures:2 g plan in
      Span.enabled := true;
      top
    in
    let pair () =
      let untraced = probe false in
      (untraced, probe true)
    in
    let u1, t1 = pair () in
    let u2, t2 = pair () in
    Out.set out "bench.trace_overhead_ratio" "ratio" (((t1 +. t2) /. (u1 +. u2)) -. 1.0)
  end;
  let attempted = acc.attempted in
  Out.mean_latency out ~name:"request_mean_ms" ~unit:"ms" ~attempted !(acc.requests);
  Out.percentiles out ~prefix:"request" ~unit:"ms" ~attempted !(acc.requests);
  (* Joins per second at the median cost of a join of each kind: the pooled
     total swung with the few slowest search-path joins. *)
  let join_us kind = Option.value ~default:[] (Hashtbl.find_opt acc.join_us kind) in
  let joins_per_s = 2e6 /. (Out.median (join_us Protected) +. Out.median (join_us Search)) in
  Out.set out "work_per_s" "1/s" joins_per_s;
  let lat kind = Option.value ~default:[] (Hashtbl.find_opt acc.fail_ms kind) in
  Out.percentiles out ~prefix:"restore_protected" ~unit:"ms" ~attempted (lat Protected);
  Out.percentiles out ~prefix:"restore_search" ~unit:"ms" ~attempted (lat Search);
  Out.percentiles out ~prefix:"reshape" ~unit:"ms" ~ps:[ 50 ] ~attempted:(2 * attempted) !(acc.reshape_ms);
  Out.set out "joins_per_s" "joins/s" joins_per_s;
  List.iter
    (fun kind ->
      let us = join_us kind in
      Out.set out ~samples:(List.length us) ("core.session_join_us." ^ kind_name kind) "us" (Out.median us))
    [ Protected; Search ];
  Out.set out "core.reshape.switches" "count" (float_of_int acc.switches);
  Out.set out "core.repairs.protected" "count" (float_of_int acc.repairs_protected);
  Out.set out "core.repairs.local" "count" (float_of_int acc.repairs_local);
  Out.set out "core.lost_members" "count" (float_of_int acc.lost);
  Out.set out "core.protect.lookups" "count" (float_of_int acc.lookups);
  Out.set out "core.protect.recomputes" "count" (float_of_int acc.recomputes);
  Out.set out "core.protect.hit_ratio" "ratio"
    (Out.ratio (float_of_int acc.table_hits) (float_of_int acc.orphaning));
  Out.set out "core.protect.recomputes_per_hit" "ratio"
    (float_of_int acc.recomputes /. float_of_int (max 1 acc.table_hits));
  Out.set out "core.affected_members" "members/failure"
    (Out.ratio (float_of_int acc.affected) (float_of_int acc.failures));
  if traced then begin
    Out.set out ~samples:(List.length !(acc.prepare_ms)) "core.protect_prepare_ms" "ms"
      (Out.median !(acc.prepare_ms));
    Out.set out ~samples:(List.length !(acc.dspf_us)) "graph.dspf_update_us" "us" (Out.median !(acc.dspf_us));
    Out.set out ~samples:(List.length !(acc.detour_us)) "core.recovery_local_detour_us" "us"
      (Out.median !(acc.detour_us));
    List.iter
      (fun kind ->
        let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl kind) in
        Out.set out ("core.decomposition_coverage." ^ kind_name kind) "ratio"
          (Out.ratio (get acc.decomposed_s) (get acc.failed_s)))
      [ Protected; Search ]
  end;
  Digest.to_hex (Digest.string (Buffer.contents acc.digest))
