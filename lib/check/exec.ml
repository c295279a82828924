module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Smrp = Smrp_core.Smrp
module Query = Smrp_core.Query
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Session = Smrp_core.Session
module Flight = Smrp_obs.Flight
module Causal = Smrp_obs.Causal

type bug = No_bug | Skip_n_r_update | Drop_member_on_reshape

let bug_of_string = function
  | "none" -> Ok No_bug
  | "skip-shr" -> Ok Skip_n_r_update
  | "drop-member" -> Ok Drop_member_on_reshape
  | s -> Error (Printf.sprintf "unknown bug %S (expected none, skip-shr or drop-member)" s)

let bug_to_string = function
  | No_bug -> "none"
  | Skip_n_r_update -> "skip-shr"
  | Drop_member_on_reshape -> "drop-member"

type stats = {
  applied : int;
  skipped : int;
  repairs : int;
  protected : int;
  lost : int;
  switches : int;
}

type violation = { index : int; event : Case.event; oracle : string; message : string }

type outcome = Pass of stats | Fail of violation

let eps = 1e-6

(* Events are folded with an explicit result so one violation stops the
   run; each step yields what happened plus any stat increments. *)
type step =
  | Applied of { repairs : int; protected : int; lost : int; switches : int }
  | Skipped
  | Bad of Oracle.violation

let applied = Applied { repairs = 0; protected = 0; lost = 0; switches = 0 }

let bad (v : Oracle.violation) = Bad v

let check checks =
  let rec first = function
    | [] -> applied
    | c :: rest -> ( match c () with Some v -> bad v | None -> first rest)
  in
  first checks

(* -- Join -------------------------------------------------------------- *)

(* The delay-bound oracle (§3.2.2) plus the differential oracle: the join
   the session executed must match the exhaustive naive merge-point scan,
   merge node and delay alike. *)
let smrp_join_checks s ~d_thresh ~spf ~pre_on_tree ~expected ~bounded_exists m () =
  let tree = Session.tree s in
  if not (Tree.is_member tree m) then
    Some { Oracle.oracle = "join"; message = Printf.sprintf "join of %d did not subscribe it" m }
  else begin
    let delay = Tree.delay_to_source tree m in
    let bound = ((1.0 +. d_thresh) *. spf) +. 1e-9 in
    if bounded_exists && delay > bound +. eps then
      Some
        {
          Oracle.oracle = "join-delay-bound";
          message =
            Printf.sprintf
              "member %d joined at delay %g, over the bound %g despite a bounded candidate" m
              delay bound;
        }
    else begin
      let actual_merge =
        List.find_opt (fun v -> pre_on_tree.(v)) (Tree.path_to_source tree m)
      in
      match (actual_merge, expected) with
      | Some got, Some (exp : Oracle.naive_candidate) ->
          if got <> exp.Oracle.merge then
            Some
              {
                Oracle.oracle = "join-differential";
                message =
                  Printf.sprintf "member %d merged at %d; the naive scan selects %d" m got
                    exp.Oracle.merge;
              }
          else if abs_float (delay -. exp.Oracle.total_delay) > eps then
            Some
              {
                Oracle.oracle = "join-differential";
                message =
                  Printf.sprintf "member %d joined at delay %g; the naive scan computes %g" m
                    delay exp.Oracle.total_delay;
              }
          else None
      | None, _ ->
          Some
            {
              Oracle.oracle = "join";
              message = Printf.sprintf "member %d's new path never meets the old tree" m;
            }
      | _, None -> None
    end
  end

(* §3.3.1 differential: every query-discovered candidate must be a (possibly
   longer) connection to a merge point the full-topology scan also knows,
   and when the query's choice meets the delay bound, the full-topology
   selection can only be at least as good on SHR. *)
let query_join_checks s ~d_thresh ~spf ~pre_on_tree ~qcands ~full m () =
  let tree = Session.tree s in
  let unsound =
    List.find_opt
      (fun (q : Smrp.candidate) ->
        not
          (List.exists
             (fun (f : Oracle.naive_candidate) ->
               f.Oracle.merge = q.Smrp.merge
               && f.Oracle.attach_delay <= q.Smrp.attach_delay +. eps)
             full))
      qcands
  in
  match unsound with
  | Some q ->
      Some
        {
          Oracle.oracle = "query-differential";
          message =
            Printf.sprintf
              "query candidate at merge %d (delay %g) beats the exhaustive scan or names an \
               unknown merge point"
              q.Smrp.merge q.Smrp.attach_delay;
        }
  | None -> (
      match Smrp.select ~d_thresh ~spf_distance:spf qcands with
      | None -> None (* the session fell back to the SPF join *)
      | Some chosen ->
          let delay = Tree.delay_to_source tree m in
          let got = List.find_opt (fun v -> pre_on_tree.(v)) (Tree.path_to_source tree m) in
          if got <> Some chosen.Smrp.merge then
            Some
              {
                Oracle.oracle = "query-differential";
                message =
                  Printf.sprintf
                    "query join of %d merged at %s; selection over the query answers picks %d" m
                    (match got with Some v -> string_of_int v | None -> "?")
                    chosen.Smrp.merge;
              }
          else if abs_float (delay -. chosen.Smrp.total_delay) > eps then
            Some
              {
                Oracle.oracle = "query-differential";
                message =
                  Printf.sprintf "query join of %d landed at delay %g, selection computes %g" m
                    delay chosen.Smrp.total_delay;
              }
          else begin
            let bound = ((1.0 +. d_thresh) *. spf) +. 1e-9 in
            let full_best = Oracle.naive_select ~d_thresh ~spf_distance:spf full in
            match full_best with
            | Some fb
              when chosen.Smrp.total_delay <= bound
                   && fb.Oracle.total_delay <= bound
                   && fb.Oracle.shr > chosen.Smrp.shr ->
                Some
                  {
                    Oracle.oracle = "query-differential";
                    message =
                      Printf.sprintf
                        "full-topology selection (SHR %d) is worse than the partial-topology one \
                         (SHR %d) — the query set cannot beat the exhaustive scan"
                        fb.Oracle.shr chosen.Smrp.shr;
                  }
            | _ -> None
          end)

(* The session answers reachability from its incremental source SPF; the
   reference is a fresh filtered search from the joiner. *)
let reachable_violation m ~reference =
  {
    Oracle.oracle = "join-reachable";
    message =
      Printf.sprintf "session says %d %s the source; the reference search says it %s" m
        (if reference then "cannot reach" else "reaches")
        (if reference then "can" else "cannot");
  }

let apply_join s (case : Case.t) ~bug m =
  let tree = Session.tree s in
  let failure = Session.active_failure s in
  let dead = match failure with Some f -> not (Failure.node_ok f m) | None -> false in
  let spf = if dead then None else Smrp.spf_distance ?failure tree m in
  let reference = spf <> None in
  if Session.reachable s m <> reference then bad (reachable_violation m ~reference)
  else if Tree.is_member tree m || dead then Skipped
  else
    match spf with
    | None -> Skipped
    | Some spf ->
        let inject_bug () =
          if bug = Skip_n_r_update then
            Tree.unsafe_tweak_subtree_members (Session.tree s) m (-1)
        in
        if Tree.is_on_tree tree m then begin
          (* Relay subscription: zero-cost, path kept verbatim. *)
          let d0 = Tree.delay_to_source tree m in
          Session.join s m;
          inject_bug ();
          check
            [
              (fun () ->
                if abs_float (Tree.delay_to_source (Session.tree s) m -. d0) > eps then
                  Some
                    {
                      Oracle.oracle = "join";
                      message =
                        Printf.sprintf "relay subscription of %d changed its path delay" m;
                    }
                else None);
            ]
        end
        else begin
          let pre_on_tree =
            Array.init (Graph.node_count (Tree.graph tree)) (fun v -> Tree.is_on_tree tree v)
          in
          let d_thresh = case.Case.d_thresh in
          match (case.Case.protocol, failure) with
          | Case.Spf, _ ->
              Session.join s m;
              applied
          | Case.Smrp, _ | Case.Smrp_query, Some _ ->
              let cands = Oracle.naive_candidates ?failure tree ~joiner:m in
              if cands = [] then Skipped
              else begin
                let bound = ((1.0 +. d_thresh) *. spf) +. 1e-9 in
                let bounded_exists =
                  List.exists (fun c -> c.Oracle.total_delay <= bound) cands
                in
                let expected = Oracle.naive_select ~d_thresh ~spf_distance:spf cands in
                Session.join s m;
                inject_bug ();
                check
                  [ smrp_join_checks s ~d_thresh ~spf ~pre_on_tree ~expected ~bounded_exists m ]
              end
          | Case.Smrp_query, None ->
              let qcands = Query.candidates tree ~joiner:m in
              let full = Oracle.naive_candidates tree ~joiner:m in
              if full = [] then Skipped
              else begin
                Session.join s m;
                inject_bug ();
                check [ query_join_checks s ~d_thresh ~spf ~pre_on_tree ~qcands ~full m ]
              end
        end

(* -- Fail -------------------------------------------------------------- *)

let lost_since events pre_len =
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  List.filter_map (function Session.Lost m -> Some m | _ -> None) (drop pre_len events)

let apply_fail s (case : Case.t) ev =
  match Case.failure ev with
  | None -> Skipped
  | Some f ->
      let kills_source =
        match ev with
        | Case.Fail { nodes; _ } -> List.mem case.Case.source nodes
        | _ -> false
      in
      if kills_source then Skipped
      else begin
        let pre = Session.tree s in
        let pre_events = List.length (Session.events s) in
        let repairs = Session.fail s f in
        let f_all = Option.get (Session.active_failure s) in
        let lost = lost_since (Session.events s) pre_events in
        (* The session either answered from the protection tables (every
           repair is [`Protected] — the fallback is all-or-nothing) or ran
           the staged search; each gets its own oracle. *)
        let protected_run =
          List.exists (fun r -> r.Session.strategy = `Protected) repairs
        in
        match
          if protected_run then
            Oracle.protected_replay ~pre ~failure:f_all ~repairs ~post:(Session.tree s) ~lost
          else Oracle.repair_replay ~pre ~failure:f_all ~repairs ~post:(Session.tree s) ~lost
        with
        | Some v -> bad v
        | None ->
            Applied
              {
                repairs = List.length repairs;
                protected = (if protected_run then List.length repairs else 0);
                lost = List.length lost;
                switches = 0;
              }
      end

(* -- Reshape ----------------------------------------------------------- *)

let apply_reshape s ~bug =
  let pre_members = Tree.members (Session.tree s) in
  let switches = Session.reshape_all s in
  if bug = Drop_member_on_reshape then begin
    match Tree.members (Session.tree s) with
    | m :: _ -> Tree.remove_member (Session.tree s) m
    | [] -> ()
  end;
  let post_members = Tree.members (Session.tree s) in
  if pre_members <> post_members then
    bad
      {
        Oracle.oracle = "reshape-membership";
        message =
          Printf.sprintf "reshaping changed the member set (%d members before, %d after)"
            (List.length pre_members) (List.length post_members);
      }
  else Applied { repairs = 0; protected = 0; lost = 0; switches }

(* -- Driver ------------------------------------------------------------ *)

let common_oracles s () =
  let tree = Session.tree s in
  match Oracle.structure tree with
  | Some v -> Some v
  | None -> (
      match Oracle.members_connected tree with
      | Some v -> Some v
      | None -> (
          match Oracle.bookkeeping tree with
          | Some v -> Some v
          | None -> (
              match Session.active_failure s with
              | Some f -> Oracle.avoids_failure tree f
              | None -> None)))

(* Flight records for the tree-level driver: no engine, so the pseudo-tick
   is the schedule event index. One record per event before it executes,
   one per oracle violation — enough for `smrp inspect` to rebuild the
   causal story of a failing case. *)
let record_event fl index ev =
  let kind, operand =
    match ev with
    | Case.Join m -> (Causal.kind_join, m)
    | Case.Leave m -> (Causal.kind_leave, m)
    | Case.Fail { links; nodes } -> (Causal.kind_fail, List.length links + List.length nodes)
    | Case.Reshape -> (Causal.kind_reshape, 0)
  in
  Flight.record fl ~tick:index ~code:Flight.exec_event
    ~a:(Causal.pack_exec_event ~kind ~operand)
    ~b:index

let record_violation fl index oracle =
  Flight.record fl ~tick:index ~code:Flight.exec_violation ~a:(Causal.oracle_id oracle)
    ~b:index

let run ?(bug = No_bug) ?(protection = false) (case : Case.t) =
  let fl = Flight.recorder Flight.global in
  let g = Case.graph case in
  let protocol =
    match case.Case.protocol with
    | Case.Spf -> Session.Spf
    | Case.Smrp -> Session.Smrp { d_thresh = case.Case.d_thresh }
    | Case.Smrp_query -> Session.Smrp_query { d_thresh = case.Case.d_thresh }
  in
  let s = Session.create ~protection g ~source:case.Case.source ~protocol in
  let stats = ref { applied = 0; skipped = 0; repairs = 0; protected = 0; lost = 0; switches = 0 } in
  let rec go index = function
    | [] -> Pass !stats
    | ev :: rest -> (
        record_event fl index ev;
        let step =
          match
            match ev with
            | Case.Join m -> apply_join s case ~bug m
            | Case.Leave m ->
                if Tree.is_member (Session.tree s) m then begin
                  Session.leave s m;
                  applied
                end
                else Skipped
            | Case.Fail _ -> apply_fail s case ev
            | Case.Reshape -> apply_reshape s ~bug
          with
          | step -> step
          | exception exn ->
              bad
                {
                  Oracle.oracle = "exception";
                  message = Printf.sprintf "event raised %s" (Printexc.to_string exn);
                }
        in
        match step with
        | Bad { Oracle.oracle; message } ->
            record_violation fl index oracle;
            Fail { index; event = ev; oracle; message }
        | Skipped ->
            stats := { !stats with skipped = !stats.skipped + 1 };
            go (index + 1) rest
        | Applied d -> (
            stats :=
              {
                applied = !stats.applied + 1;
                skipped = !stats.skipped;
                repairs = !stats.repairs + d.repairs;
                protected = !stats.protected + d.protected;
                lost = !stats.lost + d.lost;
                switches = !stats.switches + d.switches;
              };
            match common_oracles s () with
            | Some { Oracle.oracle; message } ->
                record_violation fl index oracle;
                Fail { index; event = ev; oracle; message }
            | None -> go (index + 1) rest))
  in
  go 0 case.Case.events

(* -- Engine differential ------------------------------------------------ *)

(* The whole-run oracle has no single offending event; violations anchor at
   the schedule head so the report and shrinker machinery apply unchanged. *)
let anchor (case : Case.t) =
  match case.Case.events with ev :: _ -> ev | [] -> Case.Reshape

let run_engine_diff (case : Case.t) =
  match Engine_diff.check case with
  | { Engine_diff.mismatch = None; applied; skipped } ->
      Pass { applied; skipped; repairs = 0; protected = 0; lost = 0; switches = 0 }
  | { Engine_diff.mismatch = Some message; _ } ->
      record_violation (Flight.recorder Flight.global) 0 "engine-differential";
      Fail { index = 0; event = anchor case; oracle = "engine-differential"; message }
  | exception exn ->
      Fail
        {
          index = 0;
          event = anchor case;
          oracle = "exception";
          message = Printf.sprintf "engine-differential replay raised %s" (Printexc.to_string exn);
        }

let pp_violation ppf v =
  Format.fprintf ppf "event %d (%a): oracle %S: %s" v.index Case.pp_event v.event v.oracle
    v.message
