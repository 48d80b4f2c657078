(* Tests for the support library: PRNG, binary heap, table printer. *)

let test_rng_determinism () =
  let a = Support.Rng.create 7 and b = Support.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Support.Rng.int64 a) (Support.Rng.int64 b)
  done;
  let c = Support.Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true
    (Support.Rng.int64 (Support.Rng.create 7) <> Support.Rng.int64 c)

let test_rng_copy () =
  let a = Support.Rng.create 42 in
  ignore (Support.Rng.int64 a);
  let b = Support.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Support.Rng.int64 a)
    (Support.Rng.int64 b)

let rng_int_in_range =
  QCheck.Test.make ~count:500 ~name:"Rng.int stays in range"
    QCheck.(pair (int_bound 10_000) (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let v = Support.Rng.int rng n in
      v >= 0 && v < n)

let rng_float_in_range =
  QCheck.Test.make ~count:500 ~name:"Rng.float_in stays in range"
    QCheck.(triple (int_bound 10_000) (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (seed, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      QCheck.assume (hi > lo);
      let rng = Support.Rng.create seed in
      let v = Support.Rng.float_in rng lo hi in
      v >= lo && v < hi)

let test_rng_uniformity () =
  (* Coarse sanity: mean of 10_000 draws of int 10 should be close to 4.5. *)
  let rng = Support.Rng.create 99 in
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Support.Rng.int rng 10
  done;
  let mean = float_of_int !sum /. 10_000. in
  Alcotest.(check bool) "mean near 4.5" true (mean > 4.3 && mean < 4.7)

let test_shuffle_is_permutation () =
  let rng = Support.Rng.create 5 in
  let a = Array.init 100 Fun.id in
  Support.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_split_independence () =
  let a = Support.Rng.create 5 in
  let b = Support.Rng.split a in
  (* The split stream differs from the parent's continuation. *)
  let xs = List.init 20 (fun _ -> Support.Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Support.Rng.int64 b) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let test_rng_choose () =
  let rng = Support.Rng.create 9 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Support.Rng.choose rng a) a)
  done;
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Support.Rng.choose rng [||]);
       false
     with Invalid_argument _ -> true)

module Int_heap = Support.Binary_heap.Make (Int)

let test_heap_basic () =
  let h = Int_heap.create () in
  List.iter (Int_heap.add h) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "min" 1 (Int_heap.min_elt h);
  Alcotest.(check int) "pop" 1 (Int_heap.pop_min h);
  Alcotest.(check int) "next" 3 (Int_heap.pop_min h);
  Alcotest.(check int) "length" 3 (Int_heap.length h)

let test_heap_empty () =
  let h = Int_heap.create () in
  Alcotest.check_raises "empty pop" Not_found (fun () ->
      ignore (Int_heap.pop_min h))

let heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains in sorted order"
    QCheck.(list int)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.add h) xs;
      let drained = Int_heap.to_sorted_list h in
      drained = List.sort compare xs
      && Int_heap.length h = List.length xs (* non-destructive *))

let test_table () =
  let t = Support.Table.create [ "name"; "value" ] in
  Support.Table.add_row t [ "alpha"; "1" ];
  Support.Table.add_row t [ "beta"; Printf.sprintf "%.2f" 3.14159 ];
  let csv = Support.Table.to_csv t in
  Alcotest.(check string) "csv" "name,value\nalpha,1\nbeta,3.14" csv

let test_table_escaping () =
  let t = Support.Table.create [ "a" ] in
  Support.Table.add_row t [ "x,y" ];
  Alcotest.(check string) "escaped" "a\n\"x,y\"" (Support.Table.to_csv t)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "support"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          qt rng_int_in_range;
          qt rng_float_in_range;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          qt heap_sorts;
        ] );
      ( "table",
        [
          Alcotest.test_case "csv" `Quick test_table;
          Alcotest.test_case "escaping" `Quick test_table_escaping;
        ] );
    ]
