(* Tests for the arbitrary-precision integers, exact rationals, and the
   exact LP certification layer built on them. *)

module B = Rational.Bigint
module Q = Rational.Rat

(* --- bigint -------------------------------------------------------------- *)

let test_bigint_basics () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "of_int" "123456789" (B.to_string (B.of_int 123456789));
  Alcotest.(check string) "negative" "-42" (B.to_string (B.of_int (-42)));
  Alcotest.(check (option int)) "roundtrip" (Some 987654321)
    (B.to_int_opt (B.of_int 987654321));
  Alcotest.(check (option int)) "max_int" (Some max_int)
    (B.to_int_opt (B.of_int max_int))

let test_bigint_strings () =
  let s = "123456789012345678901234567890" in
  Alcotest.(check string) "parse/print" s (B.to_string (B.of_string s));
  Alcotest.(check string) "negative" ("-" ^ s) (B.to_string (B.of_string ("-" ^ s)));
  Alcotest.(check (option int)) "too big" None (B.to_int_opt (B.of_string s));
  Alcotest.(check bool) "bad input rejected" true
    (try
       ignore (B.of_string "12x4");
       false
     with Invalid_argument _ -> true)

let test_bigint_factorial () =
  (* 30! is a classic cross-check value. *)
  let rec fact acc i =
    if i = 0 then acc else fact (B.mul acc (B.of_int i)) (i - 1)
  in
  Alcotest.(check string) "30!" "265252859812191058636308480000000"
    (B.to_string (fact B.one 30))

let test_bigint_shift () =
  Alcotest.(check string) "1 << 100" "1267650600228229401496703205376"
    (B.to_string (B.shift_left B.one 100));
  Alcotest.(check string) "3 << 31" (string_of_int (3 * 2147483648))
    (B.to_string (B.shift_left (B.of_int 3) 31))

let test_bigint_division_cases () =
  let check_div a b =
    let q, r = B.divmod (B.of_string a) (B.of_string b) in
    let recomposed = B.add (B.mul q (B.of_string b)) r in
    Alcotest.(check string) (a ^ " = q*" ^ b ^ " + r") a (B.to_string recomposed);
    Alcotest.(check bool) "0 <= r" true (B.sign r >= 0);
    Alcotest.(check bool) "r < |b|" true
      (B.compare r (B.abs (B.of_string b)) < 0)
  in
  check_div "1000000000000000000000" "7";
  check_div "-1000000000000000000000" "7";
  check_div "1000000000000000000000" "-7";
  check_div "-1000000000000000000000" "-7";
  check_div "5" "100000000000000000000";
  Alcotest.check_raises "by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let int_pairs = QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))

let bigint_matches_native_arith =
  QCheck.Test.make ~count:500 ~name:"bigint add/sub/mul match native ints"
    int_pairs
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      B.to_int_opt (B.add ba bb) = Some (a + b)
      && B.to_int_opt (B.add ba (B.neg bb)) = Some (a - b)
      && B.to_int_opt (B.mul ba bb) = Some (a * b)
      && B.compare ba bb = compare a b)

let bigint_divmod_identity =
  QCheck.Test.make ~count:500 ~name:"bigint divmod identity on big operands"
    QCheck.(pair (list_of_size Gen.(1 -- 6) (int_bound 1_000_000)) (int_range 1 1_000_000))
    (fun (chunks, b) ->
      (* Build a big number from chunks: a = sum chunk_i * (10^6)^i. *)
      let base = B.of_int 1_000_000 in
      let a =
        List.fold_left (fun acc c -> B.add (B.mul acc base) (B.of_int c)) B.zero chunks
      in
      let bb = B.of_int b in
      let q, r = B.divmod a bb in
      B.equal a (B.add (B.mul q bb) r)
      && B.sign r >= 0
      && B.compare r bb < 0)

let bigint_gcd_properties =
  QCheck.Test.make ~count:300 ~name:"gcd divides both and is maximal-ish"
    int_pairs
    (fun (a, b) ->
      let g = B.gcd (B.of_int a) (B.of_int b) in
      if a = 0 && b = 0 then B.sign g = 0
      else begin
        let divides x =
          B.sign x = 0 || B.sign (snd (B.divmod x g)) = 0
        in
        B.sign g > 0 && divides (B.of_int a) && divides (B.of_int b)
      end)

(* --- rationals ----------------------------------------------------------- *)

let qt_eq =
  Alcotest.testable
    (fun ppf q -> Format.pp_print_string ppf (Q.to_string q))
    Q.equal

let test_rat_basics () =
  Alcotest.check qt_eq "1/2 + 1/3" (Q.of_ints 5 6)
    (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  Alcotest.check qt_eq "normalization" (Q.of_ints 1 2) (Q.of_ints (-3) (-6));
  Alcotest.(check string) "printing" "-2/3" (Q.to_string (Q.of_ints 2 (-3)));
  Alcotest.(check string) "integer printing" "7" (Q.to_string (Q.of_ints 7 1));
  Alcotest.(check bool) "integer" true (B.equal (Q.den (Q.of_ints 14 2)) B.one);
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Q.of_ints 1 0))

let test_rat_of_float_exact () =
  (* Floats are dyadic rationals: 0.1 is NOT 1/10. *)
  Alcotest.(check bool) "0.1 <> 1/10" false (Q.equal (Q.of_float 0.1) (Q.of_ints 1 10));
  Alcotest.check qt_eq "0.5" (Q.of_ints 1 2) (Q.of_float 0.5);
  Alcotest.check qt_eq "-0.75" (Q.of_ints (-3) 4) (Q.of_float (-0.75));
  Alcotest.check qt_eq "2^60" (Q.make (B.shift_left B.one 60) B.one)
    (Q.of_float 1.152921504606846976e18);
  Alcotest.(check bool) "nan rejected" true
    (try
       ignore (Q.of_float Float.nan);
       false
     with Invalid_argument _ -> true)

let rat_of_float_roundtrips =
  QCheck.Test.make ~count:500 ~name:"to_float (of_float x) = x exactly"
    QCheck.(float_bound_exclusive 1e12)
    (fun x ->
      let x = x -. 5e11 in
      QCheck.assume (Float.is_finite x);
      Float.equal (Q.to_float (Q.of_float x)) x)

let rat_field_properties =
  QCheck.Test.make ~count:300 ~name:"rational field laws"
    QCheck.(triple (pair small_int small_nat) (pair small_int small_nat) (pair small_int small_nat))
    (fun ((an, ad), (bn, bd), (cn, cd)) ->
      let q n d = Q.of_ints n (d + 1) in
      let a = q an ad and b = q bn bd and c = q cn cd in
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.mul a b) (Q.mul b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul (Q.mul a b) c) (Q.mul a (Q.mul b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.sub a a) Q.zero
      && (Q.equal a Q.zero || Q.equal (Q.div a a) (Q.of_ints 1 1)))

let rat_compare_matches_float =
  QCheck.Test.make ~count:300 ~name:"rational compare agrees with floats"
    QCheck.(pair (pair small_int small_nat) (pair small_int small_nat))
    (fun ((an, ad), (bn, bd)) ->
      let a = Q.of_ints an (ad + 1) and b = Q.of_ints bn (bd + 1) in
      let fa = float_of_int an /. float_of_int (ad + 1) in
      let fb = float_of_int bn /. float_of_int (bd + 1) in
      QCheck.assume (abs_float (fa -. fb) > 1e-9);
      compare fa fb = Q.compare a b)

(* --- exact certification -------------------------------------------------- *)

let test_certify_simplex_solution () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p "x" in
  let y = Lp.Problem.add_var p "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]) Lp.Problem.Le 4.;
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 3.) ]) Lp.Problem.Le 6.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (x, 3.); (y, 2.) ]);
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal sol ->
      let report = Lp.Certify.analyze p sol.Lp.Simplex.x in
      Alcotest.(check bool) "exactly feasible" true
        (Q.compare report.Lp.Certify.max_violation (Q.of_ints 1 1_000_000) <= 0);
      Alcotest.check qt_eq "exact objective" (Q.of_ints 12 1)
        report.Lp.Certify.objective;
      (match Lp.Certify.check p sol.Lp.Simplex.x with
      | Ok () -> ()
      | Error m -> Alcotest.failf "certification failed: %s" m)
  | _ -> Alcotest.fail "expected optimal"

let test_certify_detects_violation () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~ub:1. "x" in
  Lp.Problem.add_constr p ~name:"cap" (Lp.Expr.term ~coeff:2. x) Lp.Problem.Le 1.;
  let report = Lp.Certify.analyze p [| 1. |] in
  Alcotest.check qt_eq "exact violation 1" (Q.of_ints 1 1) report.Lp.Certify.max_violation;
  Alcotest.(check (option string)) "names the row" (Some "cap")
    report.Lp.Certify.worst;
  match Lp.Certify.check p [| 1. |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "violation not detected"

let test_certify_integrality () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "x" in
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  let report = Lp.Certify.analyze p [| 0.5 |] in
  Alcotest.(check bool) "not integral" false report.Lp.Certify.integral;
  (match Lp.Certify.check p [| 0.5 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fractional binary accepted");
  let report = Lp.Certify.analyze p [| 1. |] in
  Alcotest.(check bool) "integral" true report.Lp.Certify.integral

let certified_simplex_solutions =
  QCheck.Test.make ~count:60 ~name:"random LP optima certify exactly"
    QCheck.(pair (int_bound 100_000) (int_range 1 4))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let p = Lp.Problem.create () in
      let vars =
        Array.init n (fun v ->
            Lp.Problem.add_var p ~lb:0. ~ub:(Support.Rng.float_in rng 1. 10.)
              (Printf.sprintf "x%d" v))
      in
      for _ = 1 to Support.Rng.int_in rng 1 4 do
        let expr =
          Lp.Expr.of_list
            (Array.to_list
               (Array.map (fun v -> (v, Support.Rng.float_in rng (-2.) 3.)) vars))
        in
        Lp.Problem.add_constr p expr Lp.Problem.Le (Support.Rng.float_in rng 0.5 8.)
      done;
      Lp.Problem.set_objective p Lp.Problem.Maximize
        (Lp.Expr.of_list
           (Array.to_list (Array.map (fun v -> (v, Support.Rng.float_in rng 0. 2.)) vars)));
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal sol -> (
          match Lp.Certify.check p sol.Lp.Simplex.x with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "certification failed: %s" m)
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> true)

let certified_medium_lps =
  QCheck.Test.make ~count:10 ~name:"medium random LPs certify exactly"
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* 40 variables, 25 rows, mixed relations and badly scaled
         coefficients: stresses the simplex numerics, and the exact
         certifier is the referee. *)
      let rng = Support.Rng.create (seed + 9) in
      let p = Lp.Problem.create () in
      let n = 40 in
      let vars =
        Array.init n (fun v ->
            Lp.Problem.add_var p ~lb:0. ~ub:(Support.Rng.float_in rng 1. 20.)
              (Printf.sprintf "x%d" v))
      in
      for c = 0 to 24 do
        let scale = if c mod 5 = 0 then 1e6 else 1. in
        let terms =
          Array.to_list
            (Array.map
               (fun v ->
                 if Support.Rng.bernoulli rng 0.3 then
                   (v, scale *. Support.Rng.float_in rng (-2.) 3.)
                 else (v, 0.))
               vars)
        in
        let expr = Lp.Expr.of_list (List.filter (fun (_, c) -> c <> 0.) terms) in
        if Lp.Expr.to_list expr <> [] then
          Lp.Problem.add_constr p expr Lp.Problem.Le
            (scale *. Support.Rng.float_in rng 1. 30.)
      done;
      Lp.Problem.set_objective p Lp.Problem.Maximize
        (Lp.Expr.of_list
           (Array.to_list
              (Array.map (fun v -> (v, Support.Rng.float_in rng 0. 2.)) vars)));
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal sol -> (
          match
            Lp.Certify.check ~tol:(Q.of_ints 1 100_000) p sol.Lp.Simplex.x
          with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "certification failed: %s" m)
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> true
      | exception Failure m -> QCheck.Test.fail_reportf "simplex failure: %s" m)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "rational"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "strings" `Quick test_bigint_strings;
          Alcotest.test_case "factorial" `Quick test_bigint_factorial;
          Alcotest.test_case "shift" `Quick test_bigint_shift;
          Alcotest.test_case "division cases" `Quick test_bigint_division_cases;
          qt bigint_matches_native_arith;
          qt bigint_divmod_identity;
          qt bigint_gcd_properties;
        ] );
      ( "rat",
        [
          Alcotest.test_case "basics" `Quick test_rat_basics;
          Alcotest.test_case "of_float exact" `Quick test_rat_of_float_exact;
          qt rat_of_float_roundtrips;
          qt rat_field_properties;
          qt rat_compare_matches_float;
        ] );
      ( "certify",
        [
          Alcotest.test_case "simplex solution" `Quick test_certify_simplex_solution;
          Alcotest.test_case "detects violation" `Quick test_certify_detects_violation;
          Alcotest.test_case "integrality" `Quick test_certify_integrality;
          qt certified_simplex_solutions;
          qt certified_medium_lps;
        ] );
    ]
