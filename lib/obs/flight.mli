(** Always-on binary flight recorder.

    A fixed-size per-domain ring of packed int records — (scaled-int tick,
    1-byte event code, two operand words) — written straight from the
    engine's int-coded dispatch. Recording is a mask, three stores and a
    counter bump; no allocation. Snapshot/decode merges all per-domain rings
    into one time-ordered stream for the causal analyzer ({!Causal}), its
    Chrome trace projection and the [smrp inspect] crash-dump reader. *)

type recorder
(** A single domain's ring. Writers only ever touch their own recorder. *)

type t
(** A sharded set of per-domain rings. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is records per domain, rounded up to a power of two
    (default 8192). *)

val global : t
(** The process-wide recorder engines attach to by default. *)

val recorder : t -> recorder
(** The calling domain's ring in [t], created on first use. *)

val null : recorder
(** A disabled recorder: {!record} on it is a single predicate check.
    Used to measure recorder overhead ([Engine.create ~flight:Flight.null]). *)

val record : recorder -> tick:int -> code:int -> a:int -> b:int -> unit
(** Append one record. [tick] is truncated to 54 bits, [code] to 8; the
    operand words are stored raw. Hot-path safe: no allocation. *)

val enabled : recorder -> bool
(** [false] only for {!null}. *)

(** {1 Wall-clock spans}

    A span over host computation is one record: tick = its start, [a] =
    its duration, [b] = its integer arguments (two packed with {!pack}).
    Span ticks count {!ticks_per_second} from process start. Callers pass
    the recorder explicitly (a {!t} of their own, never {!global}), so
    spans stay out of the crash-dump rings. *)

val now : unit -> int
(** Wall-clock ticks since process start. *)

val span_start : recorder -> int
(** {!now} when the recorder is enabled, else 0 (no clock read). *)

val span : recorder -> code:int -> start:int -> b:int -> unit
(** Record a span from [start] to {!now}; nothing on a disabled recorder. *)

val pack : int -> int -> int
(** [pack hi lo] = [(hi lsl 31) lor lo], the two-operand form of [b]; [lo]
    must be below 2{^31}. *)

val hi : int -> int
val lo : int -> int
(** The two halves of a {!pack}ed word. *)

val reset : t -> unit
(** Rewind every ring to empty. Existing {!recorder} handles stay valid. *)

val dropped : t -> int
(** Total records overwritten by ring wrap-around since the last reset. *)

val ticks_per_second : float
(** The timestamp scale records are written in: the engine's tick clock
    ([Engine.tick_of_time 1.0] ticks per simulated second). *)

(** {1 Event codes} *)

(* engine: fire (a = handler code, b = event operand a), schedule (tick =
   target tick, a = handler code, b = event id).
   net: a = packed message, b = pack src dst.
   proto: a = member (or failed edge for proto_failure); b = hops/merge.
   exec: tick = event index; exec_event a = (kind lsl 32) lor operand,
   exec_violation a = oracle id, b = event index.
   span: tick = wall-clock start, a = duration; b = pack source n
   (dijkstra), joiner (candidate search), pack scans switches (reshape
   round), pack rounds switches (reshape stabilize), input index (pool
   task), tasks run (pool worker). *)

val ev_fire : int
val ev_schedule : int
val net_send : int
val net_deliver : int
val net_drop_send : int
val net_drop_flight : int
val proto_failure : int
val proto_detected : int
val proto_signal : int
val proto_installed : int
val proto_first_data : int
val proto_reshape : int
val exec_event : int
val exec_violation : int
val span_dijkstra : int
val span_candidate_search : int
val span_reshape_round : int
val span_reshape_stabilize : int
val span_pool_task : int
val span_pool_worker : int

val code_name : int -> string
val code_of_name : string -> int option
(** Accepts either a symbolic name ("net.send") or a decimal code. *)

(** {1 Decoding} *)

type decoded = {
  d_tick : int;
  d_code : int;
  d_a : int;
  d_b : int;
  d_domain : int;
  d_seq : int;  (** per-domain emission index *)
}

val order : decoded -> decoded -> int
(** By (tick, domain, seq). *)

val snapshot : t -> decoded list
(** Merge every domain's ring into one stream ordered by
    (tick, domain, seq). Intended for quiesced or post-mortem use. *)

(** {1 Crash dumps} *)

exception Bad_dump of string

val write_dump : ?dropped:int -> string -> decoded list -> unit
(** Write a text dump: a [smrp-flight-dump 1 <ticks/s>] header, a
    [dropped N] line, then one [domain seq tick code a b] line per record. *)

val read_dump : string -> decoded list * int
(** Read a dump back; returns the records and the dropped count.
    @raise Bad_dump on any malformed header, count or record: a token that
    is not an integer, a negative count, tick or seq, or a code past 255. *)
