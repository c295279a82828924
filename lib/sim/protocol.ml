module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Reshape = Smrp_core.Reshape
module Metrics = Smrp_obs.Metrics
module Timeline = Smrp_obs.Timeline
module Causal = Smrp_obs.Causal
module Flight = Smrp_obs.Flight

type recovery_strategy = Local | Global

type join_mode = Oracle | Query_scheme

type config = {
  hello_period : float;
  hello_dead_factor : float;
  refresh_period : float;
  hold_factor : float;
  data_period : float;
  starvation_factor : float;
  ospf_convergence : float;
  strategy : recovery_strategy;
  join_mode : join_mode;
  query_timeout : float;
  reshape_period : float option;
      (* Condition-II timer (§3.2.3); [None] disables reshaping. *)
  d_thresh : float;
}

let default_config =
  {
    hello_period = 1.0;
    hello_dead_factor = 3.5;
    refresh_period = 5.0;
    hold_factor = 3.0;
    data_period = 0.1;
    starvation_factor = 5.0;
    ospf_convergence = 5.0;
    strategy = Local;
    join_mode = Oracle;
    query_timeout = 2.0;
    reshape_period = None;
    d_thresh = 0.3;
  }

(* Wire messages are packed ints: the low 3 bits are the type tag, the rest
   is either an immediate payload (data sequence number) or a slot index
   into a side pool holding the variable-length part (join / query paths).
   Hot-path messages (hello, refresh, prune, data) carry no pool slot, so
   sending them allocates nothing at all. *)
type msg = int

let tag_hello = 0
let tag_refresh = 1
let tag_prune = 2
let tag_data = 3
let tag_join = 4
let tag_query = 5
let tag_resp = 6

let msg_hello = tag_hello
let msg_refresh = tag_refresh
let msg_prune = tag_prune
let[@inline] msg_data seq = (seq lsl 3) lor tag_data
let[@inline] msg_join slot = (slot lsl 3) lor tag_join
let[@inline] msg_query slot = (slot lsl 3) lor tag_query
let[@inline] msg_resp slot = (slot lsl 3) lor tag_resp

type member_report = {
  member : int;
  detected : float option;
  restored : float option;
  data_received : int;
}

(* Pre-resolved instruments (message counters by type, recovery-phase
   sketches) so the hot send path pays one increment when metrics are on. *)
type meters = {
  p_hello : Metrics.Counter.t;
  p_query : Metrics.Counter.t;
  p_join : Metrics.Counter.t;
  p_refresh : Metrics.Counter.t;
  p_prune : Metrics.Counter.t;
  p_data : Metrics.Counter.t;
  (* Per-episode recovery latency (detection -> first data) and its
     per-phase breakdown. *)
  q_phase : (Timeline.phase * Smrp_obs.Sketch.t) list;
  q_total : Smrp_obs.Sketch.t;
  s_disrupted : Smrp_obs.Series.t; (* members currently disrupted, over sim time *)
}

(* Per-node soft state as struct-of-arrays: flat int/float/bool columns
   indexed by node id instead of per-node records full of Hashtbls.  Children
   are per-node (id, expiry) growable parallel arrays scanned inline — child
   sets are small (tree degree) so a scan beats hashing.  Hello liveness is
   one flat float per directed edge endpoint.  [nan] / [neg_infinity] /
   [-1] stand in for the absent case of what used to be options. *)
type t = {
  engine : Engine.t;
  config : config;
  graph : Graph.t;
  source : int;
  mutable net : msg Net.t option; (* set right after creation *)
  mutable tree : Tree.t;
  mutable failure : Failure.t option;
  mutable failure_time : float;
  mutable control_sent : int;
  mutable data_sent : int;
  mutable hello_sent : int;
  mutable query_sent : int;
  mutable join_sent : int;
  mutable refresh_sent : int;
  mutable prune_sent : int;
  mutable next_seq : int;
  mutable disrupted_now : int; (* members detected-but-not-yet-restored *)
  (* node columns *)
  n_member : bool array;
  n_parent : int array; (* -1 = none *)
  n_last_data : float array;
  n_last_forwarded : int array;
  n_data_received : int array;
  n_recovering : bool array;
  (* disruption/restoration timestamps live in [causal]: the milestone
     tracker is the single source of truth for episode bookkeeping *)
  n_last_attempt : float array;
  n_responses : (int * float * int list) list array;
      (* (SHR, merge tree delay, path requester..merge) collected while a
         query-scheme join is pending — cold, kept as lists *)
  (* children: parallel (id, soft-state expiry) arrays per node *)
  ch_id : int array array;
  ch_expiry : float array array;
  ch_n : int array;
  (* stored hops towards the merge node, for periodic join refresh
     (PIM-style): at_path.(v).(0..at_len v) is next-hop-first *)
  at_path : int array array;
  at_len : int array;
  (* last hello arrival per directed edge endpoint: index 2*eid + side,
     side 0 = the edge's [u] endpoint heard it *)
  hello_seen : float array;
  (* side pools for variable-length message payloads *)
  mutable j_req : int array;
  mutable j_path : int array array;
  mutable j_plen : int array;
  mutable j_idx : int array;
  mutable j_next : int array;
  mutable j_free : int;
  mutable q_req : int array;
  mutable q_path : int array array;
  mutable q_plen : int array;
  mutable q_next : int array;
  mutable q_free : int;
  mutable r_shr : int array;
  mutable r_delay : float array;
  mutable r_path : int array array;
  mutable r_plen : int array;
  mutable r_back : int array;
  mutable r_next : int array;
  mutable r_free : int;
  causal : Causal.tracker;
  flight : Flight.recorder; (* the engine's ring; milestone records *)
  meters : meters option;
}

let net t = Option.get t.net

let tree t = t.tree

let free_chain n off = Array.init n (fun i -> if i = n - 1 then -1 else off + i + 1)

let msg_label (m : msg) =
  match m land 7 with
  | 0 -> "hello"
  | 1 -> "refresh"
  | 2 -> "prune"
  | 3 -> "data"
  | 4 -> "join_req"
  | 5 -> "query"
  | _ -> "query_resp"

(* -- Payload pools ------------------------------------------------------- *)

(* Each pool slot owns a reusable path buffer; [ensure] grows it without
   preserving contents (callers overwrite), [ensure_keep] preserves for
   in-place appends. *)
let ensure paths s n =
  if Array.length paths.(s) < n then paths.(s) <- Array.make (max 8 n) 0

let ensure_keep paths s n =
  if Array.length paths.(s) < n then begin
    let na = Array.make (max 8 (2 * n)) 0 in
    Array.blit paths.(s) 0 na 0 (Array.length paths.(s));
    paths.(s) <- na
  end

let alloc_join t =
  if t.j_free = -1 then begin
    let cap = Array.length t.j_req in
    t.j_req <- Array.append t.j_req (Array.make cap 0);
    t.j_path <- Array.append t.j_path (Array.make cap [||]);
    t.j_plen <- Array.append t.j_plen (Array.make cap 0);
    t.j_idx <- Array.append t.j_idx (Array.make cap 0);
    t.j_next <- Array.append t.j_next (free_chain cap cap);
    t.j_free <- cap
  end;
  let s = t.j_free in
  t.j_free <- t.j_next.(s);
  s

let[@inline] free_join t s =
  t.j_next.(s) <- t.j_free;
  t.j_free <- s

let alloc_query t =
  if t.q_free = -1 then begin
    let cap = Array.length t.q_req in
    t.q_req <- Array.append t.q_req (Array.make cap 0);
    t.q_path <- Array.append t.q_path (Array.make cap [||]);
    t.q_plen <- Array.append t.q_plen (Array.make cap 0);
    t.q_next <- Array.append t.q_next (free_chain cap cap);
    t.q_free <- cap
  end;
  let s = t.q_free in
  t.q_free <- t.q_next.(s);
  s

let[@inline] free_query t s =
  t.q_next.(s) <- t.q_free;
  t.q_free <- s

let alloc_resp t =
  if t.r_free = -1 then begin
    let cap = Array.length t.r_shr in
    t.r_shr <- Array.append t.r_shr (Array.make cap 0);
    t.r_delay <- Array.append t.r_delay (Array.make cap 0.0);
    t.r_path <- Array.append t.r_path (Array.make cap [||]);
    t.r_plen <- Array.append t.r_plen (Array.make cap 0);
    t.r_back <- Array.append t.r_back (Array.make cap 0);
    t.r_next <- Array.append t.r_next (free_chain cap cap);
    t.r_free <- cap
  end;
  let s = t.r_free in
  t.r_free <- t.r_next.(s);
  s

let[@inline] free_resp t s =
  t.r_next.(s) <- t.r_free;
  t.r_free <- s

(* A slot-carrying frame that will never be delivered must still return its
   pool slot; Net calls this for every dropped frame. *)
let reclaim t m =
  let slot = m asr 3 in
  match m land 7 with
  | 4 -> free_join t slot
  | 5 -> free_query t slot
  | 6 -> free_resp t slot
  | _ -> ()

(* -- Sending ------------------------------------------------------------- *)

let send t ~src ~dst m =
  let mt = t.meters in
  let meter f = match mt with Some mt -> Metrics.Counter.incr (f mt) | None -> () in
  (match m land 7 with
  | 3 ->
      t.data_sent <- t.data_sent + 1;
      meter (fun m -> m.p_data)
  | 0 ->
      t.control_sent <- t.control_sent + 1;
      t.hello_sent <- t.hello_sent + 1;
      meter (fun m -> m.p_hello)
  | 5 | 6 ->
      t.control_sent <- t.control_sent + 1;
      t.query_sent <- t.query_sent + 1;
      meter (fun m -> m.p_query)
  | 4 ->
      t.control_sent <- t.control_sent + 1;
      t.join_sent <- t.join_sent + 1;
      meter (fun m -> m.p_join)
  | 1 ->
      t.control_sent <- t.control_sent + 1;
      t.refresh_sent <- t.refresh_sent + 1;
      meter (fun m -> m.p_refresh)
  | _ ->
      t.control_sent <- t.control_sent + 1;
      t.prune_sent <- t.prune_sent + 1;
      meter (fun m -> m.p_prune));
  ignore (Net.send (net t) ~src ~dst m : bool)

let hold_time t = t.config.hold_factor *. t.config.refresh_period

(* Distributed on-tree test: the node believes it has an upstream. *)
let[@inline] dist_on_tree t v = v = t.source || t.n_parent.(v) >= 0

(* -- Children (inline scans over small parallel arrays) ------------------ *)

let child_refresh t v child expiry =
  let ids = t.ch_id.(v) in
  let n = t.ch_n.(v) in
  let i = ref 0 in
  while !i < n && ids.(!i) <> child do
    incr i
  done;
  if !i < n then t.ch_expiry.(v).(!i) <- expiry
  else begin
    if n = Array.length ids then begin
      let cap = max 4 (2 * n) in
      let nid = Array.make cap 0 and nex = Array.make cap 0.0 in
      Array.blit ids 0 nid 0 n;
      Array.blit t.ch_expiry.(v) 0 nex 0 n;
      t.ch_id.(v) <- nid;
      t.ch_expiry.(v) <- nex
    end;
    t.ch_id.(v).(n) <- child;
    t.ch_expiry.(v).(n) <- expiry;
    t.ch_n.(v) <- n + 1
  end

let child_remove t v child =
  let ids = t.ch_id.(v) in
  let n = t.ch_n.(v) in
  let i = ref 0 in
  while !i < n && ids.(!i) <> child do
    incr i
  done;
  if !i < n then begin
    ids.(!i) <- ids.(n - 1);
    t.ch_expiry.(v).(!i) <- t.ch_expiry.(v).(n - 1);
    t.ch_n.(v) <- n - 1
  end

let maybe_prune t v =
  if v <> t.source && (not t.n_member.(v)) && t.ch_n.(v) = 0 then begin
    let p = t.n_parent.(v) in
    if p >= 0 then begin
      t.n_parent.(v) <- -1;
      send t ~src:v ~dst:p msg_prune
    end
  end

(* Fan a data packet out to live children, expiring stale entries in place
   (swap-remove keeps the scan index valid). *)
let fanout_data t v ~except ~now ~seq =
  let i = ref 0 in
  while !i < t.ch_n.(v) do
    if t.ch_expiry.(v).(!i) < now then begin
      let n = t.ch_n.(v) - 1 in
      t.ch_id.(v).(!i) <- t.ch_id.(v).(n);
      t.ch_expiry.(v).(!i) <- t.ch_expiry.(v).(n);
      t.ch_n.(v) <- n
    end
    else begin
      let child = t.ch_id.(v).(!i) in
      if child <> except then send t ~src:v ~dst:child (msg_data seq);
      incr i
    end
  done

(* -- Message handling ---------------------------------------------------- *)

let handle_data t ~at ~from seq =
  let now = Engine.now t.engine in
  t.n_last_data.(at) <- now;
  if t.n_member.(at) then begin
    t.n_data_received.(at) <- t.n_data_received.(at) + 1;
    if Causal.disrupted t.causal at then begin
      t.n_recovering.(at) <- false;
      t.disrupted_now <- t.disrupted_now - 1;
      Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_first_data
        ~a:at ~b:0;
      Causal.note_first_data t.causal ~member:at ~ts:now;
      (match t.meters with
      | Some m -> Smrp_obs.Series.observe m.s_disrupted ~ts:now (float_of_int t.disrupted_now)
      | None -> ());
      (match (t.meters, Causal.episode t.causal at) with
      | Some m, Some ep ->
          List.iter
            (fun (phase, dur) ->
              match dur with
              | Some d ->
                  Option.iter (fun q -> Smrp_obs.Sketch.observe q d)
                    (List.assoc_opt phase m.q_phase)
              | None -> ())
            (Timeline.phase_durations ep);
          Option.iter (Smrp_obs.Sketch.observe m.q_total) (Timeline.total ep)
      | _ -> ())
    end
  end;
  (* Forward fresh packets only: duplicates (transient double attachment)
     and loops die here. *)
  if seq > t.n_last_forwarded.(at) then begin
    t.n_last_forwarded.(at) <- seq;
    let before = t.ch_n.(at) in
    fanout_data t at ~except:from ~now ~seq;
    if t.ch_n.(at) < before then maybe_prune t at
  end

let handle_join t ~at ~from slot =
  let now = Engine.now t.engine in
  child_refresh t at from (now +. hold_time t);
  let idx = t.j_idx.(slot) in
  if idx >= t.j_plen.(slot) then begin
    (* We are the merge node: the requester's forwarding state is now
       installed along the whole attach path. *)
    let requester = t.j_req.(slot) in
    free_join t slot;
    Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_installed
      ~a:requester ~b:at;
    Causal.note_installed t.causal ~member:requester ~ts:now
  end
  else begin
    (* Forward when we have no upstream — or when our upstream is stale (no
       data for a starvation window): a disconnected relay must adopt the
       detour rather than black-hole the re-join. *)
    let starving =
      now -. t.n_last_data.(at) > t.config.starvation_factor *. t.config.data_period
    in
    if (not (dist_on_tree t at)) || (at <> t.source && starving) then begin
      let next = t.j_path.(slot).(idx) in
      t.n_parent.(at) <- next;
      t.j_idx.(slot) <- idx + 1;
      send t ~src:at ~dst:next (msg_join slot)
    end
    else free_join t slot
  end

let handle_query t ~at slot =
  let requester = t.q_req.(slot) in
  let path = t.q_path.(slot) in
  let plen = t.q_plen.(slot) in
  let on_path v =
    let rec go i = i < plen && (path.(i) = v || go (i + 1)) in
    go 0
  in
  if at = requester || on_path at then free_query t slot
  else if dist_on_tree t at && Tree.is_on_tree t.tree at then begin
    (* First on-tree node met: answer with the (deferred, 3.3.2) SHR and
       route the response back along the traversed path. *)
    let r = alloc_resp t in
    t.r_shr.(r) <- Tree.shr t.tree at;
    t.r_delay.(r) <- Tree.delay_to_source t.tree at;
    ensure t.r_path r (plen + 1);
    Array.blit path 0 t.r_path.(r) 0 plen;
    t.r_path.(r).(plen) <- at;
    t.r_plen.(r) <- plen + 1;
    (* Walk back down the recorded path: first hop is the last traversed
       node, then indices plen-2 .. 0 (the requester records). *)
    t.r_back.(r) <- plen - 2;
    let back_first = path.(plen - 1) in
    free_query t slot;
    send t ~src:at ~dst:back_first (msg_resp r)
  end
  else begin
    (* Forward along our unicast next hop towards the source. *)
    match Smrp_graph.Dijkstra.shortest_path t.graph ~src:at ~dst:t.source with
    | Some (_, _ :: next :: _, _) when (not (on_path next)) && next <> requester ->
        ensure_keep t.q_path slot (plen + 1);
        t.q_path.(slot).(plen) <- at;
        t.q_plen.(slot) <- plen + 1;
        send t ~src:at ~dst:next (msg_query slot)
    | _ -> free_query t slot
  end

let handle_resp t ~at slot =
  let back = t.r_back.(slot) in
  if back >= 0 then begin
    let next = t.r_path.(slot).(back) in
    t.r_back.(slot) <- back - 1;
    send t ~src:at ~dst:next (msg_resp slot)
  end
  else begin
    (* We are the requester: record the answer for the pending selection.
       Cold path — materializing a list here is fine. *)
    let path = ref [] in
    for i = t.r_plen.(slot) - 1 downto 0 do
      path := t.r_path.(slot).(i) :: !path
    done;
    t.n_responses.(at) <- (t.r_shr.(slot), t.r_delay.(slot), !path) :: t.n_responses.(at);
    free_resp t slot
  end

let handle t ~at ~from ~eid m =
  match m land 7 with
  | 3 -> handle_data t ~at ~from (m asr 3)
  | 0 ->
      let e = Graph.edge t.graph eid in
      let side = if at = e.Graph.u then 0 else 1 in
      t.hello_seen.((2 * eid) + side) <- Engine.now t.engine
  | 1 -> child_refresh t at from (Engine.now t.engine +. hold_time t)
  | 2 ->
      child_remove t at from;
      maybe_prune t at
  | 4 -> handle_join t ~at ~from (m asr 3)
  | 5 -> handle_query t ~at (m asr 3)
  | _ -> handle_resp t ~at (m asr 3)

let create ?(config = default_config) ?metrics engine graph ~source =
  let metrics = match metrics with Some _ as m -> m | None -> Engine.metrics engine in
  let meters =
    Option.map
      (fun m ->
        {
          p_hello = Metrics.counter m "proto.sent.hello";
          p_query = Metrics.counter m "proto.sent.query";
          p_join = Metrics.counter m "proto.sent.join_req";
          p_refresh = Metrics.counter m "proto.sent.refresh";
          p_prune = Metrics.counter m "proto.sent.prune";
          p_data = Metrics.counter m "proto.sent.data";
          q_phase =
            List.map
              (fun p ->
                ( p,
                  Metrics.sketch m
                    ("recovery.phase."
                    ^ String.map (function ' ' -> '_' | c -> c) (Timeline.phase_name p)
                    ^ ".q") ))
              Timeline.phases;
          q_total = Metrics.sketch m "recovery.total.q";
          s_disrupted = Metrics.series m ~kind:Smrp_obs.Series.Last "proto.members_disrupted";
        })
      metrics
  in
  let n = Graph.node_count graph in
  let pool0 = 16 in
  let t =
    {
      engine;
      config;
      graph;
      source;
      net = None;
      tree = Tree.create graph ~source;
      failure = None;
      failure_time = nan;
      control_sent = 0;
      data_sent = 0;
      hello_sent = 0;
      query_sent = 0;
      join_sent = 0;
      refresh_sent = 0;
      prune_sent = 0;
      next_seq = 0;
      disrupted_now = 0;
      n_member = Array.make n false;
      n_parent = Array.make n (-1);
      n_last_data = Array.make n neg_infinity;
      n_last_forwarded = Array.make n (-1);
      n_data_received = Array.make n 0;
      n_recovering = Array.make n false;
      n_last_attempt = Array.make n neg_infinity;
      n_responses = Array.make n [];
      ch_id = Array.make n [||];
      ch_expiry = Array.make n [||];
      ch_n = Array.make n 0;
      at_path = Array.make n [||];
      at_len = Array.make n 0;
      hello_seen = Array.make (2 * Graph.edge_count graph) neg_infinity;
      j_req = Array.make pool0 0;
      j_path = Array.make pool0 [||];
      j_plen = Array.make pool0 0;
      j_idx = Array.make pool0 0;
      j_next = free_chain pool0 0;
      j_free = 0;
      q_req = Array.make pool0 0;
      q_path = Array.make pool0 [||];
      q_plen = Array.make pool0 0;
      q_next = free_chain pool0 0;
      q_free = 0;
      r_shr = Array.make pool0 0;
      r_delay = Array.make pool0 0.0;
      r_path = Array.make pool0 [||];
      r_plen = Array.make pool0 0;
      r_back = Array.make pool0 0;
      r_next = free_chain pool0 0;
      r_free = 0;
      causal = Causal.create ();
      flight = Engine.flight engine;
      meters;
    }
  in
  let net =
    Net.create ?metrics ~msg_int:(fun m -> m) ~on_drop:(reclaim t) engine graph
      ~handler:(fun _ ~at ~from ~eid m -> handle t ~at ~from ~eid m)
  in
  t.net <- Some net;
  t

(* Store the attach hops (next-hop-first) for periodic join refresh. *)
let set_attach t v hops =
  let len = List.length hops in
  if Array.length t.at_path.(v) < len then t.at_path.(v) <- Array.make (max 4 len) 0;
  List.iteri (fun i h -> t.at_path.(v).(i) <- h) hops;
  t.at_len.(v) <- len

(* Allocate a join slot carrying [remaining] (the hops after the first
   destination). *)
let join_slot_of_list t ~requester remaining =
  let s = alloc_join t in
  let len = List.length remaining in
  t.j_req.(s) <- requester;
  ensure t.j_path s len;
  List.iteri (fun i h -> t.j_path.(s).(i) <- h) remaining;
  t.j_plen.(s) <- len;
  t.j_idx.(s) <- 0;
  s

(* Issue a Join_req along an attach path given merge-node-first (as the core
   library produces them). *)
let signal_join t ~requester ~attach_nodes =
  let now = Engine.now t.engine in
  match List.rev attach_nodes with
  | [] | [ _ ] ->
      (* Already attached: nothing to signal, the "installation" is
         instantaneous for the recovery timeline. *)
      Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_signal
        ~a:requester ~b:0;
      Causal.note_signalled t.causal ~member:requester ~ts:now;
      Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_installed
        ~a:requester ~b:requester;
      Causal.note_installed t.causal ~member:requester ~ts:now
  | me :: next :: rest ->
      assert (me = requester);
      if t.n_parent.(requester) < 0 && requester <> t.source then
        t.n_parent.(requester) <- next;
      set_attach t requester (next :: rest);
      Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_signal
        ~a:requester ~b:(List.length rest + 1);
      Causal.note_signalled t.causal ~member:requester ~ts:now;
      send t ~src:requester ~dst:next (msg_join (join_slot_of_list t ~requester rest))

(* Full-knowledge path selection (§3.2.2): min-SHR for SMRP, unicast
   shortest path for the PIM baseline. *)
let oracle_join t m =
  let attach_nodes, attach_edges =
    match t.config.strategy with
    | Local -> begin
        if Tree.is_on_tree t.tree m then ([ m ], [])
        else
          match Smrp.spf_distance t.tree m with
          | None -> invalid_arg "Protocol.join: source unreachable"
          | Some spf_dist -> begin
              match
                Smrp.select ~d_thresh:t.config.d_thresh ~spf_distance:spf_dist
                  (Smrp.candidates t.tree ~joiner:m)
              with
              | Some c -> (c.Smrp.attach_nodes, c.Smrp.attach_edges)
              | None -> invalid_arg "Protocol.join: no connection to the tree"
            end
      end
    | Global -> Spf.attach_path t.tree m
  in
  (match (attach_nodes, attach_edges) with
  | [ _ ], [] -> ()
  | nodes, edges -> Tree.graft t.tree ~nodes ~edges);
  if not (Tree.is_member t.tree m) then Tree.add_member t.tree m;
  signal_join t ~requester:m ~attach_nodes

(* Turn a collected query response into a candidate the selection criterion
   understands. *)
let candidate_of_response t (shr, tree_delay, path) =
  let rec edges_of = function
    | a :: (b :: _ as rest) -> (
        match Graph.edge_between t.graph a b with
        | Some e -> e.Graph.id :: edges_of rest
        | None -> invalid_arg "Protocol: query path not a walk")
    | _ -> []
  in
  let edges = edges_of path in
  let attach_delay =
    List.fold_left (fun acc eid -> acc +. (Graph.edge t.graph eid).Graph.delay) 0.0 edges
  in
  match List.rev path with
  | merge :: _ ->
      {
        Smrp.merge;
        attach_nodes = List.rev path;
        attach_edges = List.rev edges;
        attach_delay;
        total_delay = attach_delay +. tree_delay;
        shr;
      }
  | [] -> invalid_arg "Protocol: empty query path"

let finalize_query_join t m =
  if t.n_member.(m) && t.at_len.(m) = 0 && not (Tree.is_on_tree t.tree m) then begin
    let responses = t.n_responses.(m) in
    t.n_responses.(m) <- [];
    let graftable c =
      (* The merge node must still be on-tree and the interior still off-tree
         (another join may have raced us during the query round trip). *)
      match c.Smrp.attach_nodes with
      | merge :: interior_and_self ->
          Tree.is_on_tree t.tree merge
          && List.for_all
               (fun v -> v = m || not (Tree.is_on_tree t.tree v))
               interior_and_self
      | [] -> false
    in
    let candidates = List.filter graftable (List.map (candidate_of_response t) responses) in
    match Smrp.spf_distance t.tree m with
    | None -> ()
    | Some spf_dist -> (
        match Smrp.select ~d_thresh:t.config.d_thresh ~spf_distance:spf_dist candidates with
        | Some c ->
            Tree.graft t.tree ~nodes:c.Smrp.attach_nodes ~edges:c.Smrp.attach_edges;
            Tree.add_member t.tree m;
            signal_join t ~requester:m ~attach_nodes:c.Smrp.attach_nodes
        | None ->
            (* No query was answered in time: degrade to the full-knowledge
               join, as Query.join degrades to SPF in the core library. *)
            oracle_join t m)
  end

let join t m =
  if m = t.source then invalid_arg "Protocol.join: the source cannot join";
  if t.n_member.(m) then invalid_arg "Protocol.join: already a member";
  t.n_member.(m) <- true;
  t.n_last_data.(m) <- Engine.now t.engine;
  match t.config.join_mode with
  | Oracle -> oracle_join t m
  | Query_scheme ->
      if Tree.is_on_tree t.tree m then begin
        if not (Tree.is_member t.tree m) then Tree.add_member t.tree m
      end
      else begin
        t.n_responses.(m) <- [];
        List.iter
          (fun (nb, _) ->
            let s = alloc_query t in
            t.q_req.(s) <- m;
            ensure t.q_path s 1;
            t.q_path.(s).(0) <- m;
            t.q_plen.(s) <- 1;
            send t ~src:m ~dst:nb (msg_query s))
          (Graph.neighbors t.graph m);
        ignore
          (Engine.schedule t.engine ~delay:t.config.query_timeout (fun () ->
               finalize_query_join t m))
      end

(* Condition-II reshape at a member (§3.2.3): re-run path selection with the
   subtree discounted; on a switch, install the new path make-before-break —
   join the new upstream first, then release the old one. *)
let reshape_node t r =
  if
    t.n_member.(r) && dist_on_tree t r && r <> t.source
    && (not t.n_recovering.(r))
    && t.failure = None
    && Tree.is_on_tree t.tree r
  then begin
    let old_parent = t.n_parent.(r) in
    if Reshape.try_reshape ~d_thresh:t.config.d_thresh t.tree r then begin
      Flight.record t.flight
        ~tick:(Engine.tick_of_time (Engine.now t.engine))
        ~code:Flight.proto_reshape ~a:r ~b:old_parent;
      match Tree.path_to_source t.tree r with
      | _ :: (next :: _ as rest) ->
          t.n_parent.(r) <- next;
          set_attach t r rest;
          send t ~src:r ~dst:next (msg_join (join_slot_of_list t ~requester:r (List.tl rest)));
          if old_parent >= 0 && old_parent <> next then begin
            (* Break after make: hold the old branch until the join has
               propagated up the new path and data has flowed back down —
               a full round trip at the new path's delay, plus margin. *)
            let round_trip = 2.0 *. Tree.delay_to_source t.tree r in
            ignore
              (Engine.schedule t.engine
                 ~delay:(round_trip +. (2.0 *. t.config.data_period))
                 (fun () -> send t ~src:r ~dst:old_parent msg_prune))
          end
      | _ -> ()
    end
  end

let leave t m =
  if not t.n_member.(m) then invalid_arg "Protocol.leave: not a member";
  t.n_member.(m) <- false;
  t.at_len.(m) <- 0;
  maybe_prune t m;
  if Tree.is_member t.tree m then Tree.remove_member t.tree m

let recover_member t m =
  let f = Option.get t.failure in
  let detour =
    match t.config.strategy with
    | Local -> Recovery.local_detour t.tree f ~member:m
    | Global -> Recovery.global_detour t.tree f ~member:m
  in
  match detour with
  | None -> () (* isolated: stays disrupted *)
  | Some d ->
      (match d.Recovery.path_edges with
      | [] -> () (* already re-attached through an earlier repair *)
      | _ ->
          Tree.graft t.tree
            ~nodes:(List.rev d.Recovery.path_nodes)
            ~edges:(List.rev d.Recovery.path_edges));
      if not (Tree.is_member t.tree m) then Tree.add_member t.tree m;
      (* Clear the stale upstream so the join installs the detour. *)
      t.n_parent.(m) <- -1;
      signal_join t ~requester:m ~attach_nodes:(List.rev d.Recovery.path_nodes)

let declare_disrupted t m =
  if not t.n_recovering.(m) then begin
    let now = Engine.now t.engine in
    t.n_recovering.(m) <- true;
    t.n_last_attempt.(m) <- now;
    let first = Causal.detected_at t.causal m = None in
    if first then begin
      t.disrupted_now <- t.disrupted_now + 1;
      match t.meters with
      | Some mt -> Smrp_obs.Series.observe mt.s_disrupted ~ts:now (float_of_int t.disrupted_now)
      | None -> ()
    end;
    Flight.record t.flight ~tick:(Engine.tick_of_time now) ~code:Flight.proto_detected ~a:m
      ~b:0;
    Causal.note_detected t.causal ~member:m ~ts:now;
    match t.config.strategy with
    | Local -> recover_member t m
    | Global ->
        (* PIM must wait for the unicast tables to reconverge ([25]). *)
        ignore (Engine.schedule t.engine ~delay:t.config.ospf_convergence (fun () -> recover_member t m))
  end

let start t =
  (* Source data stream. *)
  ignore
    (Engine.every t.engine ~period:t.config.data_period (fun () ->
         let seq = t.next_seq in
         t.next_seq <- seq + 1;
         t.n_last_forwarded.(t.source) <- seq;
         let now = Engine.now t.engine in
         fanout_data t t.source ~except:(-1) ~now ~seq));
  (* Hellos on every live link. *)
  ignore
    (Engine.every t.engine ~period:t.config.hello_period (fun () ->
         for v = 0 to Graph.node_count t.graph - 1 do
           if Net.node_up (net t) v then
             List.iter
               (fun (nb, eid) -> if Net.link_up (net t) eid then send t ~src:v ~dst:nb msg_hello)
               (Graph.neighbors t.graph v)
         done));
  (* Refreshes from every attached node towards its parent, and PIM-style
     periodic join refresh from members along their stored attach paths —
     this re-instantiates any hop whose state was lost (dropped frames,
     expired entries). *)
  ignore
    (Engine.every t.engine ~period:t.config.refresh_period (fun () ->
         for v = 0 to Array.length t.n_parent - 1 do
           let p = t.n_parent.(v) in
           if p >= 0 then send t ~src:v ~dst:p msg_refresh;
           if t.n_member.(v) && t.at_len.(v) > 0 then begin
             let next = t.at_path.(v).(0) in
             let s = alloc_join t in
             let len = t.at_len.(v) - 1 in
             t.j_req.(s) <- v;
             ensure t.j_path s len;
             Array.blit t.at_path.(v) 1 t.j_path.(s) 0 len;
             t.j_plen.(s) <- len;
             t.j_idx.(s) <- 0;
             send t ~src:v ~dst:next (msg_join s)
           end
         done));
  (* Condition-II reshaping timer (when enabled). *)
  (match t.config.reshape_period with
  | Some period ->
      ignore
        (Engine.every t.engine ~period (fun () ->
             for v = 0 to Array.length t.n_member - 1 do
               if t.n_member.(v) then reshape_node t v
             done))
  | None -> ());
  (* Starvation detector at members; hello-timeout detector for the node
     right below a failed link. *)
  ignore
    (Engine.every t.engine ~period:t.config.data_period (fun () ->
         let now = Engine.now t.engine in
         let starve = t.config.starvation_factor *. t.config.data_period in
         (* A recovery that has not brought data back well past its expected
            completion is retried (e.g. it raced another member's repair).
            Global recoveries only complete after the reconvergence wait. *)
         let retry_after =
           (2.0 *. starve)
           +. (match t.config.strategy with Global -> t.config.ospf_convergence | Local -> 0.0)
         in
         for v = 0 to Array.length t.n_member - 1 do
           if t.n_member.(v) && t.failure <> None && now -. t.n_last_data.(v) > starve then begin
             if not t.n_recovering.(v) then declare_disrupted t v
             else if
               Causal.restored_at t.causal v = None && now -. t.n_last_attempt.(v) > retry_after
             then begin
               t.n_recovering.(v) <- false;
               declare_disrupted t v
             end
           end
         done));
  ignore
    (Engine.every t.engine ~period:t.config.hello_period (fun () ->
         let now = Engine.now t.engine in
         let dead = t.config.hello_dead_factor *. t.config.hello_period in
         for v = 0 to Array.length t.n_parent - 1 do
           let p = t.n_parent.(v) in
           if p >= 0 && t.n_member.(v) && not t.n_recovering.(v) then begin
             match Graph.edge_between t.graph v p with
             | Some e ->
                 let side = if v = e.Graph.u then 0 else 1 in
                 let seen = t.hello_seen.((2 * e.Graph.id) + side) in
                 if seen > neg_infinity && now -. seen > dead && t.failure <> None then
                   declare_disrupted t v
             | None -> ()
           end
         done))

let inject_link_failure t eid =
  if t.failure <> None then invalid_arg "Protocol.inject_link_failure: one failure per run";
  Net.fail_link (net t) eid;
  t.failure <- Some (Failure.Link eid);
  t.failure_time <- Engine.now t.engine;
  Flight.record t.flight ~tick:(Engine.tick_of_time t.failure_time) ~code:Flight.proto_failure
    ~a:eid ~b:0;
  Causal.note_failure t.causal ~ts:t.failure_time;
  (* Control-plane view: keep only the structure that still receives data;
     disconnected members re-enter through their recoveries. *)
  t.tree <- Recovery.surviving_tree t.tree (Failure.Link eid)

let reports t =
  let acc = ref [] in
  for v = Array.length t.n_member - 1 downto 0 do
    if t.n_member.(v) || Causal.detected_at t.causal v <> None then
      acc :=
        {
          member = v;
          detected = Option.map (fun ts -> ts -. t.failure_time) (Causal.detected_at t.causal v);
          restored = Option.map (fun ts -> ts -. t.failure_time) (Causal.restored_at t.causal v);
          data_received = t.n_data_received.(v);
        }
        :: !acc
  done;
  !acc

let control_messages t = t.control_sent

let data_messages t = t.data_sent

let message_breakdown t =
  [
    ("hello", t.hello_sent);
    ("query", t.query_sent);
    ("join_req", t.join_sent);
    ("refresh", t.refresh_sent);
    ("prune", t.prune_sent);
    ("data", t.data_sent);
  ]

let timeline t = Causal.episodes t.causal

let phase_table t = Timeline.render (Causal.episodes t.causal)
