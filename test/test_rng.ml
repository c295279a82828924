module Rng = Smrp_rng.Rng

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check "split streams differ" true (!same < 2)

(* The stream itself, pinned: every figure and digest is drawn from it, so
   a change to how the state is stored must leave each of these values
   unchanged.  Per seed: three [bits64], three [float 1.0], three
   [int 1000], the first [bits64] of a [split], then the parent's next
   [bits64]. *)
let golden =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2 ],
      [ 913; 228; 299 ],
      136402110108020141L,
      7313543279846440201L );
    ( 1,
      [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L ],
      [ 0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1 ],
      [ 240; 294; 669 ],
      -2462950755002874267L,
      -8945553099086264698L );
    ( 42,
      [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ],
      [ 0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3 ],
      [ 585; 986; 69 ],
      -1118732243571790362L,
      -4345211542386587372L );
    ( -7,
      [ -6657567321482388864L; 2521065584565188649L; -2683386023840429499L ],
      [ 0x1.86b9d1c56630cp-2; 0x1.3f6a24e253b41p-1; 0x1.1640c17424a3p-2 ],
      [ 993; 28; 546 ],
      3340599824860731326L,
      -2439024395002728755L );
    ( max_int,
      [ 3306431589464170407L; -5806950763503052372L; -4461727061837351953L ],
      [ 0x1.92e245b8bb29cp-1; 0x1.679476d0c23bp-1; 0x1.0a947bbe3db31p-1 ],
      [ 103; 437; 918 ],
      -885419287645871649L,
      8218048674794824355L );
  ]

let stream_pinned () =
  List.iter
    (fun (seed, bits, floats, ints, split_first, after) ->
      let r = Rng.create seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int64)) (name "bits64") bits (List.init 3 (fun _ -> Rng.bits64 r));
      Alcotest.(check (list (float 0.0))) (name "float") floats (List.init 3 (fun _ -> Rng.float r 1.0));
      Alcotest.(check (list int)) (name "int") ints (List.init 3 (fun _ -> Rng.int r 1000));
      let child = Rng.split r in
      Alcotest.(check int64) (name "split") split_first (Rng.bits64 child);
      Alcotest.(check int64) (name "after split") after (Rng.bits64 r))
    golden

(* The state lives unboxed, so an integer draw allocates nothing. *)
let int_draws_allocate_nothing () =
  let r = Rng.create 3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 1000
  done;
  let words = Gc.minor_words () -. before in
  check "some draws" true (!acc > 0);
  check (Printf.sprintf "10k draws allocated %.0f words" words) true (words = 0.0)

(* [bits53] is [float]'s draw before the division: the generators' pair
   loops compare it with a probability locally, allocation-free, and must
   see the same draws. *)
let bits53_is_the_float_draw () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      for _ = 1 to 1000 do
        let f = Rng.float a 1.0 and bits = Rng.bits53 b in
        check "same draw" true (f = float_of_int bits /. 0x1p53);
        check "53 bits" true (bits >= 0 && bits < 1 lsl 53)
      done)
    [ 1; 2; 3; 42; 1000 ];
  let r = Rng.create 3 in
  let below = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if float_of_int (Rng.bits53 r) /. 0x1p53 < 0.5 then incr below
  done;
  let words = Gc.minor_words () -. before in
  check "some draws below" true (!below > 0);
  check (Printf.sprintf "10k comparisons allocated %.0f words" words) true (words = 0.0)

let int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    check "in range" true (v >= 0 && v < 7)
  done

let int_covers_range () =
  let r = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int r 5) <- true
  done;
  Array.iteri (fun i s -> check (Printf.sprintf "value %d drawn" i) true s) seen

let int_rejects_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (Rng.create 1) 0))

let float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    check "in range" true (v >= 0.0 && v < 3.5)
  done

let float_mean () =
  let r = Rng.create 4 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.float r 1.0
  done;
  let mean = !total /. float_of_int n in
  check "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let shuffle_is_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted;
  check "actually permuted" true (a <> Array.init 50 Fun.id)

let sample_without_replacement () =
  let r = Rng.create 6 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement r 10 30 in
    check_int "ten values" 10 (List.length s);
    check "sorted distinct in range" true
      (List.for_all (fun v -> v >= 0 && v < 30) s
      && List.sort_uniq compare s = s)
  done

let sample_full_range () =
  let r = Rng.create 8 in
  let s = Rng.sample_without_replacement r 5 5 in
  Alcotest.(check (list int)) "whole population" [ 0; 1; 2; 3; 4 ] s

let exponential_positive () =
  let r = Rng.create 9 in
  for _ = 1 to 1_000 do
    check "positive" true (Rng.exponential r 2.0 >= 0.0)
  done

let exponential_mean () =
  let r = Rng.create 10 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r 2.0
  done;
  check "mean near 1/rate" true (abs_float ((!total /. float_of_int n) -. 0.5) < 0.02)

let pick_rejects_empty () =
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick (Rng.create 1) [||]))

let pick_uniform () =
  let r = Rng.create 11 in
  let arr = [| "a"; "b"; "c" |] in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3_000 do
    let v = Rng.pick r arr in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Array.iter
    (fun v -> check (v ^ " drawn often") true (Option.value ~default:0 (Hashtbl.find_opt counts v) > 800))
    arr

let qcheck_int_in_bound =
  QCheck.Test.make ~name:"Rng.int stays within arbitrary bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let qcheck_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement yields distinct values" ~count:200
    QCheck.(pair small_int (pair (int_range 0 50) (int_range 50 200)))
    (fun (seed, (k, n)) ->
      let r = Rng.create seed in
      let s = Rng.sample_without_replacement r k n in
      List.length s = k && List.sort_uniq compare s = s)

let () =
  Alcotest.run "rng"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same stream" `Quick determinism;
          Alcotest.test_case "split diverges" `Quick split_diverges;
          Alcotest.test_case "stream pinned for five seeds" `Quick stream_pinned;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick int_bounds;
          Alcotest.test_case "int draws allocate nothing" `Quick int_draws_allocate_nothing;
          Alcotest.test_case "bits53 is the float draw, unboxed" `Quick bits53_is_the_float_draw;
          Alcotest.test_case "int covers range" `Quick int_covers_range;
          Alcotest.test_case "int rejects bad bound" `Quick int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick float_bounds;
          Alcotest.test_case "float mean" `Quick float_mean;
          Alcotest.test_case "pick uniform-ish" `Quick pick_uniform;
          Alcotest.test_case "pick rejects empty" `Quick pick_rejects_empty;
          Alcotest.test_case "exponential positive" `Quick exponential_positive;
          Alcotest.test_case "exponential mean" `Quick exponential_mean;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shuffle is a permutation" `Quick shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick sample_without_replacement;
          Alcotest.test_case "sample full range" `Quick sample_full_range;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_int_in_bound;
          qcheck_case qcheck_sample_distinct;
        ] );
    ]
