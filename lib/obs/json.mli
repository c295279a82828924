(** Hand-rolled JSON for the bench results and baseline files (the
    toolchain ships no JSON library).  Covers the full JSON grammar; every
    number is a float, and the printer round-trips the values the bench
    harness emits ([%.0f] for integral magnitudes below 1e15, [%.17g]
    otherwise). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** Member order preserved. *)

exception Parse_error of string  (** Message includes the byte offset. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing content.  Numbers
    follow JSON's grammar (no leading zero, no bare [.] or exponent), and
    one too large for a float is malformed: no number parses to an
    infinity. *)

val to_string : ?minify:bool -> t -> string
(** Two-space-indented by default; [~minify:true] yields one line (for
    JSONL appends).  No trailing newline. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val mem_path : string list -> t -> t option
(** Nested lookup: [mem_path ["a"; "b"] v] is [v.a.b]. *)

val to_num : t -> float option

val to_str : t -> string option

val to_bool : t -> bool option

val obj_members : t -> (string * t) list
(** [[]] on non-objects. *)
