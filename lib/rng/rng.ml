(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.  The mixing constants below
   are the published ones.

   The 64-bit state lives unboxed in 8 bytes: an [int64] record field would
   box a fresh state on every draw.  [next] and [mix64] are inlined into
   every draw in this unit, so the state update and the mixing stay in
   registers and [int] and [bits53] allocate nothing; [float] and [bits64]
   box only the value they return. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

(* Advance the state by the golden gamma and mix it: one SplitMix64 step. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let create seed = of_state (mix64 (Int64.of_int seed))

let bits64 t = next t

let split t = of_state (mix64 (next t))

(* Rejection sampling over the low 62 bits keeps the draw exactly uniform:
   a draw from the final partial block is discarded to avoid modulo bias. *)
let rec draw_below t bound =
  let v = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  let r = v mod bound in
  if v - r > max_int - bound + 1 then draw_below t bound else r

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

let float t bound =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let bool t = Int64.logand (next t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected insertions, exact uniformity. *)
  let module S = Set.Make (Int) in
  let chosen = ref S.empty in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    chosen := if S.mem v !chosen then S.add j !chosen else S.add v !chosen
  done;
  S.elements !chosen

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate
