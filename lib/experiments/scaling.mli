(** Large-n scaling sweep: how generation, the incremental SPF, the
    protection tables and SMRP joins behave as the topology grows to
    10⁵–10⁶ nodes.

    Each row draws one topology, a Waxman graph with
    {!Smrp_topology.Scale.waxman} (degree held at ~8 via
    {!Smrp_topology.Scale.degree_params}) or a transit–stub graph with
    {!Smrp_topology.Transit_stub.generate}, then measures on it:

    - [gen_s]: the draw, connectivity repair and CSR freeze;
    - [spf_build_s]: {!Smrp_graph.Dspf.create}, the one full Dijkstra a
      protection session ever runs;
    - [spf_repair_us]: mean incremental update for a tree-edge
      fail/restore pair, over a sample of tree edges;
    - [protect_entry_ms]: mean branch-detour computation per protection
      table entry (one nearest-target search), over a bounded sample of the
      sample tree's edges; a full [Protect.prepare] costs entries x this,
      while a session computes only the entries its first failure reads;
    - [protect_lookup_ns]: the O(1) table read answering a recovery query;
    - [join_us]: mean {!Smrp_core.Smrp.join} (d_thresh 0.3) over a fixed
      sample of up to 32 off-tree joiners, joined one after another on a
      copy of the sample tree with the Dspf's distances as D_SPF and
      search bounds, as a session's join reads them.

    The member and entry samples are deliberately small: table precompute
    is per tree edge, and the sweep bounds wall-clock so CI can run it;
    the bench suite measures the same quantities statistically at fixed
    size. *)

type row = {
  model : string;  (** ["waxman"] or ["transit-stub"]. *)
  n : int;
  edges : int;
  avg_degree : float;
  gen_s : float;
  spf_build_s : float;
  spf_repair_us : float;
  tree_edges : int;
  protect_entry_ms : float;
  protect_lookup_ns : float;
  join_us : float;
}

val run : ?ns:int list -> seed:int -> unit -> row list
(** Two rows (Waxman, transit–stub) per requested size; [ns] defaults to
    [[10_000; 100_000]].  Each draw uses a {!Smrp_rng.Rng.split} of the
    seed, so rows are reproducible independently. *)

val render : row list -> string
(** Fixed-width table, one row per measurement. *)

val to_json : row list -> string
(** Machine-readable report ([smrp-scaling-v1]) for the CI artifact. *)
