module Heap = Smrp_graph.Heap
module Int_heap = Smrp_graph.Int_heap

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

(* [Int_heap]'s allocation-free pop, as Dijkstra uses it, returning the
   popped entry. *)
let int_pop h =
  if Int_heap.is_empty h then None
  else begin
    let entry = (Int_heap.top_prio h, Int_heap.top h) in
    Int_heap.drop h;
    Some entry
  end

let pops_in_order () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.add h p p) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = List.init 5 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let fifo_on_ties () =
  let h = Heap.create () in
  List.iteri (fun i name -> ignore i; Heap.add h 1.0 name) [ "a"; "b"; "c"; "d" ];
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list string)) "insertion order on equal priority" [ "a"; "b"; "c"; "d" ] order

let mixed_ties () =
  let h = Heap.create () in
  Heap.add h 2.0 "x1";
  Heap.add h 1.0 "y1";
  Heap.add h 2.0 "x2";
  Heap.add h 1.0 "y2";
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list string)) "priority then fifo" [ "y1"; "y2"; "x1"; "x2" ] order

let empty_pops () =
  let h : int Heap.t = Heap.create () in
  check "pop none" true (Heap.pop_min h = None);
  check "still none" true (Heap.pop_min h = None)

let interleaved () =
  let h = Heap.create () in
  Heap.add h 3.0 3;
  Heap.add h 1.0 1;
  check "min is 1" true (snd (Option.get (Heap.pop_min h)) = 1);
  Heap.add h 2.0 2;
  Heap.add h 0.5 0;
  check "min is 0" true (snd (Option.get (Heap.pop_min h)) = 0);
  check "then 2" true (snd (Option.get (Heap.pop_min h)) = 2);
  check "then 3" true (snd (Option.get (Heap.pop_min h)) = 3)

let grows_large () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.add h (float_of_int i) i
  done;
  for i = 0 to 999 do
    check_int "in order" i (snd (Option.get (Heap.pop_min h)))
  done;
  check "all 1000 popped" true (Heap.pop_min h = None)

let qcheck_sorted_pops =
  QCheck.Test.make ~name:"pop sequence is non-decreasing" ~count:300
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.add h p p) priorities;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let qcheck_stable_ties =
  QCheck.Test.make ~name:"ties pop in insertion order" ~count:300
    QCheck.(list (int_range 0 3))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h (float_of_int k) (k, i)) keys;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (_, (k, i)) -> (
            match last with
            | Some (lk, li) when lk = k -> li < i && drain (Some (k, i))
            | _ -> drain (Some (k, i)))
      in
      drain None)

let capacity_pre_sizing () =
  (* A tiny initial capacity still grows transparently... *)
  let h = Heap.create ~capacity:1 () in
  List.iter (fun p -> Heap.add h p p) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = List.init 5 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list (float 0.0))) "grown from capacity 1" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  (* ...and a generous one is just as correct. *)
  let h = Heap.create ~capacity:64 () in
  List.iter (fun p -> Heap.add h p p) [ 2.0; 1.0 ];
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "pre-sized"
    (Some (1.0, 1.0)) (Heap.pop_min h)

let duplicate_keys_all_values_survive () =
  (* Regression for the sift-up bug where an element equal to its parent
     could shadow it: under heavy key duplication every inserted value must
     still come back out, exactly once, keys non-decreasing. *)
  let h = Heap.create ~capacity:1 () in
  let n = 200 in
  for i = 0 to n - 1 do
    Heap.add h (float_of_int (i mod 3)) i
  done;
  let seen = Array.make n false in
  let rec drain last count =
    match Heap.pop_min h with
    | None -> count
    | Some (p, v) ->
        check "non-decreasing" true (p >= last);
        check "value popped once" false seen.(v);
        seen.(v) <- true;
        drain p (count + 1)
  in
  check_int "every value recovered" n (drain neg_infinity 0)

let pop_after_drain_and_reuse () =
  (* Popping past empty is a stable no-op, and the drained heap is fully
     reusable — no stale storage from the previous episode. *)
  let h = Heap.create () in
  List.iter (fun p -> Heap.add h p p) [ 2.0; 1.0 ];
  ignore (Heap.pop_min h);
  ignore (Heap.pop_min h);
  check "pop past empty" true (Heap.pop_min h = None);
  check "still none" true (Heap.pop_min h = None);
  Heap.add h 3.0 3.0;
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "reusable after drain" (Some (3.0, 3.0)) (Heap.pop_min h)

(* -- Int_heap: the unboxed heap behind the Dijkstra workspace ---------- *)

let int_heap_pops_in_order () =
  let h = Int_heap.create ~capacity:1 () in
  List.iteri (fun i p -> Int_heap.add h p (10 + i)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = List.init 5 (fun _ -> snd (Option.get (int_pop h))) in
  check_ilist "sorted by priority" [ 11; 13; 14; 12; 10 ] order

let int_heap_fifo_on_ties () =
  let h = Int_heap.create () in
  List.iter (fun v -> Int_heap.add h 1.0 v) [ 7; 8; 9 ];
  Int_heap.add h 0.5 6;
  let order = List.init 4 (fun _ -> snd (Option.get (int_pop h))) in
  check_ilist "priority then insertion order" [ 6; 7; 8; 9 ] order

let int_heap_top_and_drop () =
  let h = Int_heap.create () in
  check "empty" true (Int_heap.is_empty h);
  Int_heap.add h 2.0 20;
  Int_heap.add h 1.0 10;
  check_int "size" 2 h.Int_heap.size;
  Alcotest.(check (float 0.0)) "top_prio" 1.0 (Int_heap.top_prio h);
  check_int "top" 10 (Int_heap.top h);
  Int_heap.drop h;
  check_int "top after drop" 20 (Int_heap.top h);
  Int_heap.drop h;
  check "drained" true (Int_heap.is_empty h);
  Alcotest.check_raises "top on empty" (Invalid_argument "Int_heap.top: empty heap") (fun () ->
      ignore (Int_heap.top h))

let int_heap_clear_reuses () =
  let h = Int_heap.create ~capacity:2 () in
  List.iter (fun v -> Int_heap.add h (float_of_int v) v) [ 3; 1; 2 ];
  Int_heap.clear h;
  check "cleared" true (Int_heap.is_empty h);
  (* After clear the sequence stamps restart, so ties are FIFO again. *)
  List.iter (fun v -> Int_heap.add h 1.0 v) [ 4; 5 ];
  let order = List.init 2 (fun _ -> snd (Option.get (int_pop h))) in
  check_ilist "fifo after clear" [ 4; 5 ] order

let int_heap_duplicate_keys_and_empty_pop () =
  let h = Int_heap.create ~capacity:1 () in
  check "pop on fresh heap" true (int_pop h = None);
  let n = 200 in
  for i = 0 to n - 1 do
    Int_heap.add h (float_of_int (i mod 3)) i
  done;
  let seen = Array.make n false in
  let rec drain last count =
    match int_pop h with
    | None -> count
    | Some (p, v) ->
        check "non-decreasing" true (p >= last);
        check "value popped once" false seen.(v);
        seen.(v) <- true;
        drain p (count + 1)
  in
  check_int "every value recovered" n (drain neg_infinity 0);
  check "pop past empty" true (int_pop h = None);
  Int_heap.add h 1.0 7;
  check_int "reusable after drain" 7 (snd (Option.get (int_pop h)))

(* Differential check against the generic heap: identical pop sequences on
   random workloads, including equal priorities — Dijkstra's determinism
   rests on this agreement. *)
let qcheck_int_heap_matches_generic =
  QCheck.Test.make ~name:"Int_heap pops in the same order as Heap" ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 999)))
    (fun entries ->
      let ih = Int_heap.create ~capacity:1 () in
      let gh = Heap.create () in
      List.iter
        (fun (p, v) ->
          let p = float_of_int p in
          Int_heap.add ih p v;
          Heap.add gh p v)
        entries;
      let rec drain () =
        match (int_pop ih, Heap.pop_min gh) with
        | None, None -> true
        | Some a, Some b -> a = b && drain ()
        | _ -> false
      in
      drain ())

let () =
  Alcotest.run "heap"
    [
      ( "ordering",
        [
          Alcotest.test_case "pops in priority order" `Quick pops_in_order;
          Alcotest.test_case "fifo on ties" `Quick fifo_on_ties;
          Alcotest.test_case "mixed ties" `Quick mixed_ties;
          Alcotest.test_case "interleaved add/pop" `Quick interleaved;
          Alcotest.test_case "grows large" `Quick grows_large;
        ] );
      ( "basics",
        [
          Alcotest.test_case "empty pops" `Quick empty_pops;
          Alcotest.test_case "capacity pre-sizing" `Quick capacity_pre_sizing;
          Alcotest.test_case "duplicate keys keep every value" `Quick
            duplicate_keys_all_values_survive;
          Alcotest.test_case "pop after drain and reuse" `Quick pop_after_drain_and_reuse;
        ] );
      ( "int_heap",
        [
          Alcotest.test_case "pops in priority order" `Quick int_heap_pops_in_order;
          Alcotest.test_case "fifo on ties" `Quick int_heap_fifo_on_ties;
          Alcotest.test_case "top and drop" `Quick int_heap_top_and_drop;
          Alcotest.test_case "clear reuses storage" `Quick int_heap_clear_reuses;
          Alcotest.test_case "duplicate keys and empty pops" `Quick
            int_heap_duplicate_keys_and_empty_pop;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_sorted_pops;
          qcheck_case qcheck_stable_ties;
          qcheck_case qcheck_int_heap_matches_generic;
        ] );
    ]
