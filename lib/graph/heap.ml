type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  initial_capacity : int;
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  { data = [||]; size = 0; next_seq = 0; initial_capacity = max 16 capacity }

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h entry =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = max h.initial_capacity (2 * capacity) in
    let data' = Array.make capacity' entry in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let add h prio value =
  let entry = { prio; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  (* Sift up.  The parent index is computed once per level. *)
  let i = ref (h.size - 1) in
  let continue = ref (!i > 0) in
  while !continue do
    let parent = (!i - 1) / 2 in
    if before h.data.(!i) h.data.(parent) then begin
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      i := parent;
      continue := !i > 0
    end
    else continue := false
  done

let pop_min h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && before h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && before h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (root.prio, root.value)
  end
