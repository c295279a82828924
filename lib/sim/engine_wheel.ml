(* Hierarchical timer wheel over the scaled-int sim clock.

   Layout: [levels] levels of [wheel_size] slots.  Level [l] has slot width
   [w_l = wheel_size^l] ticks and span [wheel_size^(l+1)]; an entry at
   absolute tick T lives at level [l] slot [(T lsr (slot_bits*l)) land mask]
   where [l] is the smallest level whose span exceeds [T - hand].  [hand] is
   a lower bound on the minimum pending tick (not the engine clock): it
   moves down only when an [add] lands below it, and up when the min search
   proves a tighter bound.  Ticks beyond the top level's span go to an
   unsorted overflow list scanned for its min (rare by construction: the
   horizon is ~3436 simulated seconds at the engine's 100 ns tick).

   Slot lists are singly linked through a parallel-array entry pool; a
   per-level occupancy bitmap makes the min search O(levels) bit scans
   rather than a slot walk.  Level-0 slots stay sorted by [seq] so that
   equal-tick entries pop in scheduling order: direct adds are seq-monotone
   and append at the tail, and the rare cascade that would break tail order
   triggers an insertion re-sort of that one slot.

   Two invariants carry the min search:

   - INV0: every level-0 entry satisfies [tick < hand + wheel_size].  This
     makes the level-0 slot interpretation exact (each slot holds a single
     tick value and its position relative to the hand's slot determines
     which 32-tick window it is in).  Placements establish it, raising the
     hand preserves it, and the one operation that can break it — an [add]
     below the current hand — re-places all level-0 entries.
   - INV1: for every level >= 1 the slot containing [hand] is empty, so the
     search may start strictly after the hand's slot index and read a
     lagging index as next-window.  Exact placements cannot land in the
     hand's slot (such a delta would fit a lower level); [fixup] cascades
     any slot the hand moves into.

   Higher-level slot starts computed from a stale hand are lower bounds on
   the true start, so a premature cascade is safe: entries are simply
   re-placed (possibly one level up, where their placement becomes exact
   relative to the tightened hand) and the search repeats. *)

let slot_bits = 5
let wheel_size = 1 lsl slot_bits (* 32 *)
let mask = wheel_size - 1
let levels = 7
let horizon = 1 lsl (slot_bits * levels) (* 32^7 ticks *)

type t = {
  (* entry pool: parallel arrays linked through [enext]; [free] heads the
     free list (threaded through [enext] as well) *)
  mutable etick : int array;
  mutable eseq : int array;
  mutable eeid : int array;
  mutable enext : int array;
  mutable free : int;
  mutable cap : int;
  (* slot ring: [head]/[tail] indexed by [level * wheel_size + slot] *)
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

(* Insertion-sort a level-0 slot list by [seq]; slots are tiny and this
   runs only when a cascade appended out of scheduling order. *)
let sort_slot t s =
  let sorted = ref (-1) in
  let e = ref t.head.(s) in
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    let sq = t.eseq.(!e) in
    if !sorted = -1 || sq < t.eseq.(!sorted) then begin
      t.enext.(!e) <- !sorted;
      sorted := !e
    end
    else begin
      let p = ref !sorted in
      while t.enext.(!p) <> -1 && t.eseq.(t.enext.(!p)) < sq do
        p := t.enext.(!p)
      done;
      t.enext.(!e) <- t.enext.(!p);
      t.enext.(!p) <- !e
    end;
    e := nxt
  done;
  t.head.(s) <- !sorted;
  let tl = ref !sorted in
  while !tl <> -1 && t.enext.(!tl) <> -1 do
    tl := t.enext.(!tl)
  done;
  t.tail.(s) <- !tl

(* Place entry [e] (tick/seq/eid already set) relative to [t.hand]. *)
let place t e =
  let tick = t.etick.(e) in
  let delta = tick - t.hand in
  if delta >= horizon then begin
    t.enext.(e) <- t.overflow;
    t.overflow <- e
  end
  else begin
    (* smallest level whose span (wheel_size^(l+1)) exceeds delta *)
    let l = ref 0 in
    let span = ref wheel_size in
    while delta >= !span do
      incr l;
      span := !span lsl slot_bits
    done;
    let l = !l in
    let s = (l lsl slot_bits) lor ((tick lsr (slot_bits * l)) land mask) in
    t.enext.(e) <- -1;
    let tl = t.tail.(s) in
    if tl = -1 then begin
      t.head.(s) <- e;
      t.tail.(s) <- e;
      t.bits.(l) <- t.bits.(l) lor (1 lsl (s land mask))
    end
    else begin
      t.enext.(tl) <- e;
      t.tail.(s) <- e;
      (* level-0 slots must stay seq-sorted for FIFO pops *)
      if l = 0 && t.eseq.(tl) > t.eseq.(e) then sort_slot t s
    end
  end

(* Detach slot [s] of level [l] and re-place each entry relative to the
   current [hand]. *)
let cascade t l s =
  let e = ref t.head.(s) in
  t.head.(s) <- -1;
  t.tail.(s) <- -1;
  t.bits.(l) <- t.bits.(l) land lnot (1 lsl (s land mask));
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    place t !e;
    e := nxt
  done

(* Re-establish INV1 after the hand moved: empty the hand's slot at every
   higher level.  Cascaded entries re-place exactly relative to the current
   hand and exact placements never land in the hand's slot, so one top-down
   sweep suffices. *)
let fixup t =
  for l = levels - 1 downto 1 do
    let i = (t.hand lsr (slot_bits * l)) land mask in
    if t.bits.(l) land (1 lsl i) <> 0 then cascade t l ((l lsl slot_bits) lor i)
  done

(* Move overflow entries now within the horizon into the wheel. *)
let drain_overflow t =
  let keep = ref (-1) in
  let e = ref t.overflow in
  t.overflow <- -1;
  while !e <> -1 do
    let nxt = t.enext.(!e) in
    if t.etick.(!e) - t.hand < horizon then place t !e
    else begin
      t.enext.(!e) <- !keep;
      keep := !e
    end;
    e := nxt
  done;
  t.overflow <- !keep

let add t ~tick ~seq ~eid =
  if t.n = 0 then t.hand <- tick
  else if tick < t.hand then begin
    (* Lowering the hand invalidates INV0 (level-0 windows) and possibly
       INV1; re-place the level-0 population and sweep the hand's slots.
       Rare: the facade only schedules at or after the sim clock, so this
       fires only before the first run or after an over-tightened search. *)
    t.hand <- tick;
    let b = ref t.bits.(0) in
    while !b <> 0 do
      let i = ctz !b in
      b := !b land (!b - 1);
      cascade t 0 i
    done;
    fixup t
  end;
  let e = alloc t in
  t.etick.(e) <- tick;
  t.eseq.(e) <- seq;
  t.eeid.(e) <- eid;
  t.n <- t.n + 1;
  place t e

(* Find the minimum pending tick, cascading higher-level slots down until
   the minimum lives at level 0.  Returns [max_int] when empty. *)
let rec find_min t =
  if t.n = 0 then max_int
  else begin
    (* Level-0 candidate: first occupied slot cyclically from the hand's
       slot; indices below it hold the next 32-tick window (exact under
       INV0). *)
    let idx0 = t.hand land mask in
    let base0 = t.hand - idx0 in
    let b0 = t.bits.(0) in
    let cand0 =
      if b0 = 0 then max_int
      else
        let hi = b0 land (-1 lsl idx0) in
        if hi <> 0 then base0 + ctz hi else base0 + wheel_size + ctz b0
    in
    (* Higher levels: interpreted start of the first occupied slot strictly
       after the hand's slot index (empty under INV1); a stale hand can
       only under-estimate the start, which is safe. *)
    let best_s = ref max_int and best_l = ref (-1) and best_slot = ref (-1) in
    for l = 1 to levels - 1 do
      let b = t.bits.(l) in
      if b <> 0 then begin
        let shift = slot_bits * l in
        let cur = (t.hand lsr shift) land mask in
        let hi = if cur = mask then 0 else b land (-1 lsl (cur + 1)) in
        let i, wrapped = if hi <> 0 then (ctz hi, 0) else (ctz b, wheel_size) in
        let slot_num = (t.hand asr shift) - cur + wrapped + i in
        let s = slot_num lsl shift in
        if s < !best_s then begin
          best_s := s;
          best_l := l;
          best_slot := (l lsl slot_bits) lor i
        end
      end
    done;
    let omin = ref max_int in
    let e = ref t.overflow in
    while !e <> -1 do
      if t.etick.(!e) < !omin then omin := t.etick.(!e);
      e := t.enext.(!e)
    done;
    if cand0 < !best_s && cand0 < !omin then begin
      (* cand0 is the exact min; tightening the hand to it cannot land in
         an occupied higher slot (its interpreted start would have bounded
         best_s by cand0). *)
      t.hand <- cand0;
      cand0
    end
    else begin
      t.hand <- min cand0 (min !best_s !omin);
      if !omin <= !best_s then drain_overflow t
      else cascade t !best_l !best_slot;
      fixup t;
      find_min t
    end
  end

let min_tick t = find_min t

let pop_min t =
  let tick = find_min t in
  if tick = max_int then -1
  else begin
    let s = tick land mask in
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
    t.hand <- tick;
    eid
  end
