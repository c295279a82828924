(* Binary min-heap specialised to [int] values with priorities kept in an
   unboxed [float array] — no per-entry records, no option/tuple allocation
   on the pop path.  Ties break by insertion order ([seq]), matching the
   generic {!Heap} so Dijkstra settles equal-distance nodes in the same
   deterministic order whichever heap backs it. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    prio = Array.make capacity 0.0;
    seq = Array.make capacity 0;
    value = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let is_empty h = h.size = 0

let clear h =
  h.size <- 0;
  h.next_seq <- 0

let grow h =
  let capacity = Array.length h.prio in
  if h.size = capacity then begin
    let capacity' = 2 * capacity in
    let prio' = Array.make capacity' 0.0 in
    Array.blit h.prio 0 prio' 0 h.size;
    h.prio <- prio';
    let seq' = Array.make capacity' 0 in
    Array.blit h.seq 0 seq' 0 h.size;
    h.seq <- seq';
    let value' = Array.make capacity' 0 in
    Array.blit h.value 0 value' 0 h.size;
    h.value <- value'
  end

(* Hole-based sift-up: keep the inserted entry in registers, shift larger
   ancestors down, write once into the final hole.  Same final layout as a
   swap-based sift, a third of the array traffic. *)
let add h prio value =
  grow h;
  let pa = h.prio and sa = h.seq and va = h.value in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.size in
  h.size <- !i + 1;
  let continue = ref (!i > 0) in
  while !continue do
    let p = (!i - 1) / 2 in
    let pp = Array.unsafe_get pa p in
    if prio < pp || (prio = pp && seq < Array.unsafe_get sa p) then begin
      Array.unsafe_set pa !i pp;
      Array.unsafe_set sa !i (Array.unsafe_get sa p);
      Array.unsafe_set va !i (Array.unsafe_get va p);
      i := p;
      continue := p > 0
    end
    else continue := false
  done;
  Array.unsafe_set pa !i prio;
  Array.unsafe_set sa !i seq;
  Array.unsafe_set va !i value

let top_prio h =
  if h.size = 0 then invalid_arg "Int_heap.top_prio: empty heap";
  h.prio.(0)

let top h =
  if h.size = 0 then invalid_arg "Int_heap.top: empty heap";
  h.value.(0)

(* Hole-based sift-down of the displaced last entry. *)
let drop h =
  if h.size = 0 then invalid_arg "Int_heap.drop: empty heap";
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let pa = h.prio and sa = h.seq and va = h.value in
    let prio = Array.unsafe_get pa n
    and seq = Array.unsafe_get sa n
    and value = Array.unsafe_get va n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        (* Pick the smaller child (insertion order breaks ties). *)
        let c =
          let r = l + 1 in
          if r < n then begin
            let pl = Array.unsafe_get pa l and pr = Array.unsafe_get pa r in
            if pr < pl || (pr = pl && Array.unsafe_get sa r < Array.unsafe_get sa l) then r else l
          end
          else l
        in
        let pc = Array.unsafe_get pa c in
        if pc < prio || (pc = prio && Array.unsafe_get sa c < seq) then begin
          Array.unsafe_set pa !i pc;
          Array.unsafe_set sa !i (Array.unsafe_get sa c);
          Array.unsafe_set va !i (Array.unsafe_get va c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set pa !i prio;
    Array.unsafe_set sa !i seq;
    Array.unsafe_set va !i value
  end
