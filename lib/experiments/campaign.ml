module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Smrp = Smrp_core.Smrp
module Session = Smrp_core.Session
module Waxman = Smrp_topology.Waxman
module Transit_stub = Smrp_topology.Transit_stub
module Flat_models = Smrp_topology.Flat_models
module Scale = Smrp_topology.Scale
module Metrics = Smrp_obs.Metrics
module Sketch = Smrp_obs.Sketch
module Series = Smrp_obs.Series
module Report = Smrp_obs.Report

type topology =
  | Waxman of { n : int; alpha : float; beta : float; link_delay : Waxman.link_delay }
  | Transit_stub of Transit_stub.params
  | Locality of { n : int; radius : float; p_near : float; p_far : float }
  | Scale_waxman of { n : int; target_degree : float }

type protocol =
  | Spf_baseline
  | Smrp of { d_thresh : float; protection : bool }
  | Smrp_query of { d_thresh : float }

type spec = {
  seed : int;
  instances : int;
  horizon : float;
  topologies : (string * topology) list;
  churns : (string * Churn.model) list;
  failures : (string * Failure_model.model) list;
  protocols : (string * protocol) list;
}

let default =
  {
    seed = 1;
    instances = 3;
    horizon = 200.0;
    topologies =
      [
        ("waxman100", Waxman { n = 100; alpha = 0.2; beta = 0.2; link_delay = `Euclidean });
        ("ts", Transit_stub Transit_stub.default_params);
        ("loc100", Locality { n = 100; radius = 0.3; p_near = 0.4; p_far = 0.01 });
      ];
    churns =
      [
        ("static", Churn.Static { group_size = 20 });
        ( "flash",
          Churn.Flash_crowd { crowds = 4; mean_size = 8.0; spread = 2.0; mean_lifetime = 30.0 } );
        ("diurnal", Churn.Diurnal { waves = 3; wave_size = 10 });
        ("heavy", Churn.Heavy_tail { arrivals = 40; alpha = 2.5; x_min = 5.0 });
      ];
    failures =
      [
        ("indep", Failure_model.Independent { events = 6; elements = 1 });
        ("correlated", Failure_model.Correlated { events = 4; burst = 3 });
        ("regional", Failure_model.Regional { events = 3; radius = 1 });
        ("cascade", Failure_model.Cascading { events = 3; depth = 3 });
        ("adversarial", Failure_model.Adversarial { events = 3; budget = 3; passes = 1 });
      ];
    protocols =
      [
        ("spf", Spf_baseline);
        ("smrp0.1", Smrp { d_thresh = 0.1; protection = false });
        ("smrp0.3", Smrp { d_thresh = 0.3; protection = false });
        ("protected0.3", Smrp { d_thresh = 0.3; protection = true });
        ("query0.3", Smrp_query { d_thresh = 0.3 });
      ];
  }

let quick =
  {
    seed = 42;
    instances = 2;
    horizon = 100.0;
    topologies =
      [
        ("waxman60", Waxman { n = 60; alpha = 0.25; beta = 0.2; link_delay = `Euclidean });
        ( "ts",
          Transit_stub
            {
              Transit_stub.transit_domains = 1;
              transit_nodes_per_domain = 3;
              stubs_per_transit_node = 2;
              stub_nodes = 7;
              stub_alpha = 0.9;
              stub_beta = 0.6;
            } );
        ("loc60", Locality { n = 60; radius = 0.3; p_near = 0.4; p_far = 0.01 });
      ];
    churns =
      [
        ( "flash",
          Churn.Flash_crowd { crowds = 3; mean_size = 6.0; spread = 2.0; mean_lifetime = 25.0 } );
        ("diurnal", Churn.Diurnal { waves = 2; wave_size = 8 });
        ("heavy", Churn.Heavy_tail { arrivals = 25; alpha = 2.5; x_min = 5.0 });
      ];
    failures =
      [
        ("indep", Failure_model.Independent { events = 4; elements = 1 });
        ("adversarial", Failure_model.Adversarial { events = 3; budget = 3; passes = 1 });
      ];
    protocols =
      [
        ("spf", Spf_baseline);
        ("smrp0.3", Smrp { d_thresh = 0.3; protection = false });
        ("query0.3", Smrp_query { d_thresh = 0.3 });
      ];
  }

type cell = {
  c_name : string;
  c_topology : string * topology;
  c_churn : string * Churn.model;
  c_failure : string * Failure_model.model;
  c_protocol : string * protocol;
}

let cells spec =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun topo ->
      List.iter
        (fun churn ->
          List.iter
            (fun fail ->
              List.iter
                (fun proto ->
                  let name =
                    String.concat "/" [ fst topo; fst churn; fst fail; fst proto ]
                  in
                  if not (Hashtbl.mem seen name) then begin
                    Hashtbl.replace seen name ();
                    out :=
                      {
                        c_name = name;
                        c_topology = topo;
                        c_churn = churn;
                        c_failure = fail;
                        c_protocol = proto;
                      }
                      :: !out
                  end)
                spec.protocols)
            spec.failures)
        spec.churns)
    spec.topologies;
  List.rev !out

(* FNV-1a over the cell name: the per-cell seed depends only on the cell's
   own coordinates, never on enumeration order or matrix shape. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0x3FFF_FFFF_FFFF_FFFFL)

let cell_seed spec cell = spec.seed lxor fnv1a cell.c_name

(* -- Cell execution ------------------------------------------------------ *)

let build_topology topo rng =
  match topo with
  | Waxman { n; alpha; beta; link_delay } ->
      (Waxman.generate ~link_delay rng ~n ~alpha ~beta).Waxman.graph
  | Transit_stub params -> (Transit_stub.generate rng params).Transit_stub.graph
  | Locality { n; radius; p_near; p_far } ->
      (Flat_models.locality rng ~n ~radius ~p_near ~p_far).Flat_models.graph
  | Scale_waxman { n; target_degree } ->
      let alpha, beta = Scale.degree_params ~n ~target_degree in
      (Scale.waxman rng ~n ~alpha ~beta).Scale.graph

let session_of g ~source = function
  | Spf_baseline -> Session.create g ~source ~protocol:Session.Spf
  | Smrp { d_thresh; protection } ->
      Session.create ~protection g ~source ~protocol:(Session.Smrp { d_thresh })
  | Smrp_query { d_thresh } ->
      Session.create g ~source ~protocol:(Session.Smrp_query { d_thresh })

(* Plain measurements a worker returns for one cell; the orchestrator turns
   them into metric registries after the fan-out joins, so the report is
   byte-identical whatever the job count. *)
type row = {
  mutable joins : int;
  mutable leaves : int;
  mutable skipped : int;
  mutable fail_events : int;
  mutable disrupted : int;
  mutable repaired : int;
  mutable lost : int;
  mutable members_final : int;
  mutable rd : float list;  (** reversed *)
  mutable delays : float list;  (** reversed *)
  mutable disrupted_t : (float * float) list;  (** reversed *)
}

let empty_row () =
  {
    joins = 0;
    leaves = 0;
    skipped = 0;
    fail_events = 0;
    disrupted = 0;
    repaired = 0;
    lost = 0;
    members_final = 0;
    rd = [];
    delays = [];
    disrupted_t = [];
  }

type action = Churn_op of Churn.op | Fail_draw

let timeline churn fail_times =
  let churn = List.map (fun { Churn.at; op } -> (at, Churn_op op)) churn in
  let fails = List.map (fun at -> (at, Fail_draw)) fail_times in
  (* Stable merge: on equal instants churn applies before the failure. *)
  List.merge (fun (t1, _) (t2, _) -> compare (t1 : float) t2) churn fails

let run_instance spec cell acc rng =
  let g = build_topology (snd cell.c_topology) (Rng.split rng) in
  let n = Graph.node_count g in
  let source = Rng.int rng n in
  let churn_rng = Rng.split rng in
  let fail_rng = Rng.split rng in
  let churn =
    Churn.schedule (snd cell.c_churn) churn_rng ~n ~source ~horizon:spec.horizon
  in
  let fmodel = snd cell.c_failure in
  let k = Failure_model.events fmodel in
  let fail_times =
    List.init k (fun i -> spec.horizon *. float_of_int (i + 1) /. float_of_int (k + 1))
  in
  let s = session_of g ~source (snd cell.c_protocol) in
  let ws = Failure_model.create_ws () in
  let apply (at, act) =
    match act with
    | Churn_op (Churn.Join m) ->
        let tree = Session.tree s in
        let failure = Session.active_failure s in
        let dead =
          match failure with Some f -> not (Failure.node_ok f m) | None -> false
        in
        if Tree.is_member tree m || dead then acc.skipped <- acc.skipped + 1
        else begin
          match Smrp.spf_distance ?failure tree m with
          | None -> acc.skipped <- acc.skipped + 1
          | Some _ ->
              Session.join s m;
              acc.joins <- acc.joins + 1
        end
    | Churn_op (Churn.Leave m) ->
        (* The member may already be gone: dropped as [Lost] by a failure. *)
        if Tree.is_member (Session.tree s) m then begin
          Session.leave s m;
          acc.leaves <- acc.leaves + 1
        end
        else acc.skipped <- acc.skipped + 1
    | Fail_draw -> (
        let tree = Session.tree s in
        match Failure_model.draw ws fmodel fail_rng g ~tree with
        | None -> ()
        | Some f ->
            acc.fail_events <- acc.fail_events + 1;
            let d = Failure_model.disrupted tree f in
            acc.disrupted <- acc.disrupted + d;
            acc.disrupted_t <- (at, float_of_int d) :: acc.disrupted_t;
            let before = Tree.member_count tree in
            let repairs = Session.fail s f in
            acc.repaired <- acc.repaired + List.length repairs;
            List.iter
              (fun r ->
                acc.rd <- r.Session.detour.Smrp_core.Recovery.recovery_distance :: acc.rd)
              repairs;
            let after = Tree.member_count (Session.tree s) in
            acc.lost <- acc.lost + (before - after))
  in
  List.iter apply (timeline churn fail_times);
  let tree = Session.tree s in
  acc.members_final <- acc.members_final + Tree.member_count tree;
  List.iter (fun m -> acc.delays <- Tree.delay_to_source tree m :: acc.delays) (Tree.members tree)

let run_cell spec cell =
  let root = Rng.create (cell_seed spec cell) in
  let acc = empty_row () in
  for _ = 1 to spec.instances do
    run_instance spec cell acc (Rng.split root)
  done;
  acc.rd <- List.rev acc.rd;
  acc.delays <- List.rev acc.delays;
  acc.disrupted_t <- List.rev acc.disrupted_t;
  acc

let variant_of spec cell row =
  let m = Metrics.create () in
  let set name v = Metrics.Counter.add (Metrics.counter m name) v in
  set "churn.joins" row.joins;
  set "churn.leaves" row.leaves;
  set "churn.skipped" row.skipped;
  set "fail.events" row.fail_events;
  set "fail.disrupted" row.disrupted;
  set "fail.repaired" row.repaired;
  set "fail.lost" row.lost;
  set "members.final" row.members_final;
  let rd = Metrics.sketch m "rd.q" in
  List.iter (Sketch.observe rd) row.rd;
  let delay = Metrics.sketch m "delay.q" in
  List.iter (Sketch.observe delay) row.delays;
  let series =
    Metrics.series m ~kind:Series.Sum ~interval:(spec.horizon /. 32.0) "disrupted.t"
  in
  List.iter (fun (ts, v) -> Series.observe series ~ts v) row.disrupted_t;
  let attrs =
    [
      ("topology", fst cell.c_topology);
      ("churn", fst cell.c_churn);
      ("failure", fst cell.c_failure);
      ("protocol", fst cell.c_protocol);
      ("seed", string_of_int (cell_seed spec cell));
    ]
  in
  Report.of_metrics ~name:cell.c_name ~attrs m

let run ?jobs spec =
  let cs = cells spec in
  let rows = Pool.map ?jobs (run_cell spec) cs in
  let variants = List.map2 (variant_of spec) cs rows in
  let meta =
    [
      ("campaign.seed", string_of_int spec.seed);
      ("campaign.instances", string_of_int spec.instances);
      ("campaign.horizon", Printf.sprintf "%g" spec.horizon);
      ( "campaign.matrix",
        Printf.sprintf "%dx%dx%dx%d"
          (List.length spec.topologies) (List.length spec.churns)
          (List.length spec.failures) (List.length spec.protocols) );
      ("campaign.cells", string_of_int (List.length cs));
    ]
  in
  Report.make ~title:"smrp campaign" ~meta variants

(* -- Analysis ------------------------------------------------------------ *)

let digest report = Digest.to_hex (Digest.string (Report.to_string ~minify:true report))

let count v name = match List.assoc_opt name v.Report.v_counts with Some c -> c | None -> 0

let matrix_variants report =
  List.filter_map
    (fun v ->
      match String.split_on_char '/' v.Report.v_name with
      | [ topo; churn; fail; proto ] -> Some (v, (topo, churn, fail, proto))
      | _ -> None)
    report.Report.r_variants

let mean_disrupted report ~failure =
  let num, den =
    List.fold_left
      (fun (num, den) (v, (_, _, fail, _)) ->
        if String.equal fail failure then
          (num + count v "fail.disrupted", den + count v "fail.events")
        else (num, den))
      (0, 0) (matrix_variants report)
  in
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let render_summary report =
  let rows = matrix_variants report in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-40s %6s %6s %6s %10s %8s %6s\n" "cell" "joins" "fails" "lost"
       "disr/fail" "rd.p90" "final");
  List.iter
    (fun (v, _) ->
      let fails = count v "fail.events" in
      let per_fail =
        if fails = 0 then 0.0 else float_of_int (count v "fail.disrupted") /. float_of_int fails
      in
      let p90 =
        match List.assoc_opt "rd.q" v.Report.v_dists with
        | Some d -> Printf.sprintf "%8.3f" d.Report.d_p90
        | None -> "       -"
      in
      Buffer.add_string b
        (Printf.sprintf "%-40s %6d %6d %6d %10.2f %s %6d\n" v.Report.v_name
           (count v "churn.joins") fails (count v "fail.lost") per_fail p90
           (count v "members.final")))
    rows;
  let failures =
    List.sort_uniq compare (List.map (fun (_, (_, _, f, _)) -> f) rows)
  in
  if List.mem "indep" failures && List.mem "adversarial" failures then begin
    let indep = mean_disrupted report ~failure:"indep" in
    let adv = mean_disrupted report ~failure:"adversarial" in
    Buffer.add_string b
      (Printf.sprintf
         "\nmean disrupted/failure: indep %.2f, adversarial %.2f (x%.2f)\n"
         indep adv
         (if indep > 0.0 then adv /. indep else Float.nan))
  end;
  Buffer.contents b

(* -- Matrix grammar ------------------------------------------------------ *)

let label_of_token t = String.concat "" (String.split_on_char ':' t)

let split_token t =
  match String.index_opt t ':' with
  | None -> (t, None)
  | Some i -> (String.sub t 0 i, Some (String.sub t (i + 1) (String.length t - i - 1)))

let int_param ~what ~default = function
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v > 0 -> v
      | _ -> failwith (Printf.sprintf "%s: expected a positive integer, got %S" what s))

let float_param ~what ~default = function
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some v when v > 0.0 && Float.is_finite v -> v
      | _ -> failwith (Printf.sprintf "%s: expected a positive finite number, got %S" what s))

let topo_of_token t =
  let base, param = split_token t in
  let topo =
    match base with
    | "waxman" ->
        let n = int_param ~what:t ~default:100 param in
        Waxman { n; alpha = 0.2; beta = 0.2; link_delay = `Euclidean }
    | "ts" -> Transit_stub Transit_stub.default_params
    | "locality" ->
        let n = int_param ~what:t ~default:100 param in
        Locality { n; radius = 0.3; p_near = 0.4; p_far = 0.01 }
    | "scale" ->
        let n = int_param ~what:t ~default:10_000 param in
        Scale_waxman { n; target_degree = 4.0 }
    | _ ->
        failwith
          (Printf.sprintf "topo %S: expected waxman[:N], ts, locality[:N] or scale:N" t)
  in
  (label_of_token t, topo)

let churn_of_token t =
  let base, param = split_token t in
  let churn =
    match base with
    | "static" -> Churn.Static { group_size = int_param ~what:t ~default:20 param }
    | "flash" ->
        Churn.Flash_crowd { crowds = 4; mean_size = 8.0; spread = 2.0; mean_lifetime = 30.0 }
    | "diurnal" -> Churn.Diurnal { waves = 3; wave_size = 10 }
    | "heavy" -> Churn.Heavy_tail { arrivals = 40; alpha = 2.5; x_min = 5.0 }
    | _ ->
        failwith (Printf.sprintf "churn %S: expected static[:K], flash, diurnal or heavy" t)
  in
  (label_of_token t, churn)

let fail_of_token t =
  let base, param = split_token t in
  let fail =
    match base with
    | "indep" ->
        Failure_model.Independent { events = 5; elements = int_param ~what:t ~default:1 param }
    | "correlated" -> Failure_model.Correlated { events = 4; burst = 3 }
    | "regional" -> Failure_model.Regional { events = 3; radius = 1 }
    | "cascade" -> Failure_model.Cascading { events = 3; depth = 3 }
    | "adversarial" ->
        Failure_model.Adversarial
          { events = 3; budget = int_param ~what:t ~default:3 param; passes = 1 }
    | _ ->
        failwith
          (Printf.sprintf
             "fail %S: expected indep[:K], correlated, regional, cascade or adversarial[:B]" t)
  in
  (label_of_token t, fail)

let proto_of_token t =
  let base, param = split_token t in
  let proto =
    match base with
    | "spf" -> Spf_baseline
    | "smrp" -> Smrp { d_thresh = float_param ~what:t ~default:0.3 param; protection = false }
    | "protected" ->
        Smrp { d_thresh = float_param ~what:t ~default:0.3 param; protection = true }
    | "query" -> Smrp_query { d_thresh = float_param ~what:t ~default:0.3 param }
    | _ ->
        failwith
          (Printf.sprintf "proto %S: expected spf, smrp[:D], protected[:D] or query[:D]" t)
  in
  (label_of_token t, proto)

let single ~axis = function
  | [ v ] -> v
  | _ -> failwith (Printf.sprintf "%s: expected a single value" axis)

let spec_of_matrix ?(base = default) s =
  try
    let spec = ref base in
    let clauses =
      String.split_on_char ';' s |> List.map String.trim
      |> List.filter (fun c -> not (String.equal c ""))
    in
    if clauses = [] then failwith "empty matrix spec";
    List.iter
      (fun clause ->
        match String.index_opt clause '=' with
        | None ->
            failwith (Printf.sprintf "clause %S: expected axis=value[,value...]" clause)
        | Some i ->
            let axis = String.trim (String.sub clause 0 i) in
            let values =
              String.sub clause (i + 1) (String.length clause - i - 1)
              |> String.split_on_char ',' |> List.map String.trim
              |> List.filter (fun v -> not (String.equal v ""))
            in
            if values = [] then failwith (Printf.sprintf "axis %S: no values" axis);
            (* A token naming one of the base's own cells keeps the base's
               value, so each label means one cell. *)
            let cells of_token base_cells =
              List.map
                (fun t ->
                  match List.assoc_opt t base_cells with Some v -> (t, v) | None -> of_token t)
                values
            in
            (match axis with
            | "topo" -> spec := { !spec with topologies = cells topo_of_token base.topologies }
            | "churn" -> spec := { !spec with churns = cells churn_of_token base.churns }
            | "fail" -> spec := { !spec with failures = cells fail_of_token base.failures }
            | "proto" -> spec := { !spec with protocols = cells proto_of_token base.protocols }
            | "instances" ->
                spec :=
                  { !spec with instances = int_param ~what:axis ~default:0 (Some (single ~axis values)) }
            | "horizon" ->
                spec :=
                  { !spec with horizon = float_param ~what:axis ~default:0.0 (Some (single ~axis values)) }
            | "seed" -> (
                match int_of_string_opt (single ~axis values) with
                | Some v -> spec := { !spec with seed = v }
                | None -> failwith "seed: expected an integer")
            | _ ->
                failwith
                  (Printf.sprintf
                     "unknown axis %S: expected topo, churn, fail, proto, instances, horizon \
                      or seed"
                     axis)))
      clauses;
    Ok !spec
  with Failure msg -> Error msg
