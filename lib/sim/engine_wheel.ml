(* Hierarchical timer wheel over the scaled-int sim clock.

   Layout: [levels] levels of [wheel_size] slots.  A level-0 slot spans
   [2^slot0_bits] ticks and level [l] slots span [2^(shift l)] ticks, so the
   level-[l] slot number of a tick is [tick asr shift l] and its ring index
   is that number [land mask].  An entry lives at the smallest level whose
   slot number lies within [mask] slots of the hand's slot number at that
   level; entries beyond the top level go to an unsorted overflow list.
   [hand] is a lower bound on the minimum pending tick (not the engine
   clock).

   Level-0 slots are lists sorted by [(tick, seq)]: a slot holds many ticks,
   and equal ticks must pop in scheduling order.  Higher-level slots are
   unsorted; they are cascaded (re-placed relative to the hand) when the hand
   reaches them.  Wide level-0 slots are what keep cascades rare: level 0
   spans 26 ms and level 1 0.84 s, so a frame delayed by 0.01–0.5 s is placed
   at most twice.

   Slot lists are singly linked through a parallel-array entry pool; a
   per-level occupancy bitmap makes the min search O(levels) bit scans rather
   than a slot walk.  Three invariants carry the search:

   - INV-P: every entry at level [l] has a slot number [0 .. mask] slots at
     or after the hand's.  Placement establishes it and raising the hand (to
     at most the minimum tick) preserves it.  Lowering the hand — an [add]
     below it, which the engine never does once running — re-places every
     entry.
   - INV-H: at every level >= 1 the hand's own slot is empty.  A placement
     never lands there (such a tick would fit a lower level), and [fixup]
     cascades the hand's slots whenever the search moves the hand.
   - INV-O: overflow entries do not fit the top level relative to the hand;
     every hand move drains the ones that do.

   Together they make the hand's own level-0 slot, when non-empty, hold the
   minimum at its head, so [min_tick] and [pop_min] answer in O(1) until that
   slot runs dry; only then does the search scan the levels. *)

let slot0_bits = 13 (* 8192 ticks, 0.82 ms *)
let slot_bits = 5
let wheel_size = 1 lsl slot_bits (* 32 *)
let mask = wheel_size - 1
let levels = 4 (* horizon 2^(slot0_bits + slot_bits * levels) = 2^33 ticks *)

let[@inline] shift l = slot0_bits + (slot_bits * l)

type t = {
  (* entry pool: parallel arrays linked through [enext]; [free] heads the
     free list (threaded through [enext] as well) *)
  mutable etick : int array;
  mutable eseq : int array;
  mutable eeid : int array;
  mutable enext : int array;
  mutable free : int;
  mutable cap : int;
  (* slot ring: [head]/[tail] indexed by [level * wheel_size + index] *)
  head : int array;
  tail : int array;
  bits : int array; (* per-level occupancy bitmap *)
  mutable overflow : int; (* unsorted list of beyond-horizon entries *)
  mutable hand : int; (* lower bound on the min pending tick *)
  mutable n : int;
}

let create () =
  let cap = 64 in
  {
    etick = Array.make cap 0;
    eseq = Array.make cap 0;
    eeid = Array.make cap 0;
    enext = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
    free = 0;
    cap;
    head = Array.make (levels * wheel_size) (-1);
    tail = Array.make (levels * wheel_size) (-1);
    bits = Array.make levels 0;
    overflow = -1;
    hand = 0;
    n = 0;
  }

let grow t =
  let ncap = t.cap * 2 in
  let ext a = Array.append a (Array.make t.cap 0) in
  t.etick <- ext t.etick;
  t.eseq <- ext t.eseq;
  t.eeid <- ext t.eeid;
  t.enext <- ext t.enext;
  for i = t.cap to ncap - 1 do
    t.enext.(i) <- (if i = ncap - 1 then -1 else i + 1)
  done;
  t.free <- t.cap;
  t.cap <- ncap

let[@inline] alloc t =
  if t.free = -1 then grow t;
  let e = t.free in
  t.free <- t.enext.(e);
  e

let[@inline] release t e =
  t.enext.(e) <- t.free;
  t.free <- e

(* Count trailing zeros of a non-zero value that fits 32 bits, via de
   Bruijn multiplication. *)
let ctz_table =
  let tab = Array.make 32 0 in
  let db = 0x077CB531 in
  for i = 0 to 31 do
    tab.(((db lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tab

let[@inline] ctz b = ctz_table.((((b land -b) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Entry [a] pops before entry [b]. *)
let[@inline] before t a b =
  let ta = t.etick.(a) and tb = t.etick.(b) in
  ta < tb || (ta = tb && t.eseq.(a) < t.eseq.(b))

(* Link [e] into level-0 slot [s] in [(tick, seq)] order.  Most entries
   sort last, so the tail is tried first. *)
let insert0 t s e =
  let tl = t.tail.(s) in
  if tl = -1 then begin
    t.enext.(e) <- -1;
    t.head.(s) <- e;
    t.tail.(s) <- e;
    t.bits.(0) <- t.bits.(0) lor (1 lsl s)
  end
  else if before t tl e then begin
    t.enext.(e) <- -1;
    t.enext.(tl) <- e;
    t.tail.(s) <- e
  end
  else begin
    let h = t.head.(s) in
    if before t e h then begin
      t.enext.(e) <- h;
      t.head.(s) <- e
    end
    else begin
      (* the tail sorts after [e], so the scan stops before it *)
      let p = ref h in
      while before t t.enext.(!p) e do
        p := t.enext.(!p)
      done;
      t.enext.(e) <- t.enext.(!p);
      t.enext.(!p) <- e
    end
  end

(* Place entry [e] (tick/seq/eid already set) relative to [t.hand]. *)
let place t e =
  let x = ref (t.etick.(e) asr slot0_bits) in
  let h = ref (t.hand asr slot0_bits) in
  let l = ref 0 in
  while !l < levels && !x - !h > mask do
    x := !x asr slot_bits;
    h := !h asr slot_bits;
    incr l
  done;
  let l = !l in
  if l = levels then begin
    t.enext.(e) <- t.overflow;
    t.overflow <- e
  end
  else if l = 0 then insert0 t (!x land mask) e
  else begin
    let s = (l lsl slot_bits) lor (!x land mask) in
    t.enext.(e) <- -1;
    let tl = t.tail.(s) in
    if tl = -1 then begin
      t.head.(s) <- e;
      t.bits.(l) <- t.bits.(l) lor (1 lsl (s land mask))
    end
    else t.enext.(tl) <- e;
    t.tail.(s) <- e
  end

(* Detach the slot at ring position [s] and re-place each entry relative to
   the current [hand]. *)
let cascade t s =
  let l = s lsr slot_bits in
  let e = ref t.head.(s) in
  t.head.(s) <- -1;
  t.tail.(s) <- -1;
  t.bits.(l) <- t.bits.(l) land lnot (1 lsl (s land mask));
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    place t !e;
    e := nxt
  done

(* Re-establish INV-H after the hand moved: empty the hand's slot at every
   higher level.  Cascaded entries land strictly below their old level, so
   one top-down sweep suffices. *)
let fixup t =
  for l = levels - 1 downto 1 do
    let i = (t.hand asr shift l) land mask in
    if t.bits.(l) land (1 lsl i) <> 0 then cascade t ((l lsl slot_bits) lor i)
  done

let[@inline] fits_top t tick = (tick asr shift (levels - 1)) - (t.hand asr shift (levels - 1)) <= mask

(* Re-establish INV-O: move overflow entries the top level now holds into
   the wheel. *)
let drain_overflow t =
  let keep = ref (-1) in
  let e = ref t.overflow in
  t.overflow <- -1;
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    if fits_top t t.etick.(!e) then place t !e
    else begin
      t.enext.(!e) <- !keep;
      keep := !e
    end;
    e := nxt
  done;
  t.overflow <- !keep

(* Re-place every entry after the hand was lowered. *)
let replace_all t =
  let all = ref t.overflow in
  t.overflow <- -1;
  for l = 0 to levels - 1 do
    let b = ref t.bits.(l) in
    while !b <> 0 do
      let s = (l lsl slot_bits) lor ctz !b in
      b := !b land (!b - 1);
      t.enext.(t.tail.(s)) <- !all;
      all := t.head.(s);
      t.head.(s) <- -1;
      t.tail.(s) <- -1
    done;
    t.bits.(l) <- 0
  done;
  let e = ref !all in
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    place t !e;
    e := nxt
  done

let add t ~tick ~seq ~eid =
  if t.n = 0 then t.hand <- tick
  else if tick < t.hand then begin
    (* Rare: the engine only schedules at or after the clock, and the hand
       runs ahead of the clock only between [run ~until] calls. *)
    t.hand <- tick;
    replace_all t
  end;
  let e = alloc t in
  t.etick.(e) <- tick;
  t.eseq.(e) <- seq;
  t.eeid.(e) <- eid;
  t.n <- t.n + 1;
  place t e

(* Slow path of the min search, taken when the hand's level-0 slot is
   empty: find the first occupied level-0 slot, bound each higher level by
   the start of its first occupied slot, and cascade until the minimum sits
   at the head of the hand's level-0 slot.  Returns [max_int] when empty. *)
let rec search t =
  if t.n = 0 then max_int
  else begin
    (* Level 0: the head of the first occupied slot cyclically from the
       hand's is the exact level-0 minimum (INV-P, sorted slots). *)
    let b0 = t.bits.(0) in
    let cand0 =
      if b0 = 0 then max_int
      else
        let hi = b0 land (-1 lsl ((t.hand asr slot0_bits) land mask)) in
        t.etick.(t.head.(ctz (if hi <> 0 then hi else b0)))
    in
    (* Higher levels: the start of the first occupied slot strictly after
       the hand's (empty under INV-H) bounds that level from below. *)
    let best = ref max_int in
    for l = 1 to levels - 1 do
      let b = t.bits.(l) in
      if b <> 0 then begin
        let sh = shift l in
        let x = t.hand asr sh in
        let cur = x land mask in
        let hi = if cur = mask then 0 else b land (-1 lsl (cur + 1)) in
        let d = if hi <> 0 then ctz hi - cur else ctz b + wheel_size - cur in
        let start = (x + d) lsl sh in
        if start < !best then best := start
      end
    done;
    let omin = ref max_int in
    let e = ref t.overflow in
    while !e <> -1 do
      if t.etick.(!e) < !omin then omin := t.etick.(!e);
      e := t.enext.(!e)
    done;
    if cand0 < !best && cand0 < !omin then begin
      (* The level-0 head is the minimum.  Moving the hand to it enters no
         occupied higher slot (that slot's start would be <= cand0). *)
      t.hand <- cand0;
      if !omin <> max_int && fits_top t !omin then begin
        drain_overflow t;
        search t
      end
      else cand0
    end
    else begin
      (* A higher slot or the overflow may hold the minimum: raise the hand
         to the smallest bound and cascade what it reaches. *)
      t.hand <- Int.min cand0 (Int.min !best !omin);
      if t.overflow <> -1 then drain_overflow t;
      fixup t;
      search t
    end
  end

let[@inline] find_min t =
  let e = t.head.((t.hand asr slot0_bits) land mask) in
  if e >= 0 then t.etick.(e) else search t

let min_tick t = find_min t

let pop_min t =
  let tick = find_min t in
  if tick = max_int then -1
  else begin
    (* The minimum heads the hand's level-0 slot; moving the hand to it
       stays inside that slot at every level. *)
    t.hand <- tick;
    let s = (tick asr slot0_bits) land mask in
    let e = t.head.(s) in
    let nxt = t.enext.(e) in
    t.head.(s) <- nxt;
    if nxt = -1 then begin
      t.tail.(s) <- -1;
      t.bits.(0) <- t.bits.(0) land lnot (1 lsl s)
    end;
    let eid = t.eeid.(e) in
    release t e;
    t.n <- t.n - 1;
    eid
  end
