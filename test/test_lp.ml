(* Tests for the LP/MILP substrate: simplex against hand-checked instances
   and a brute-force vertex-enumeration oracle; branch & bound against
   exhaustive grid search. *)

(* Test oracle: bounds, integrality and every constraint of [p] under
   [x], each within [tol] scaled by the row's magnitude; [Error]
   describes the first violation. [~check_integrality:false] validates
   LP-relaxation points. *)
let check_feasible ?(tol = 1e-6) ?(check_integrality = true) p x =
  let module Pb = Lp.Problem in
  if Array.length x <> Pb.n_vars p then Error "assignment has wrong arity"
  else begin
    let problem = ref None in
    let note msg = if !problem = None then problem := Some msg in
    let integer = Pb.integer_vars p in
    for v = 0 to Pb.n_vars p - 1 do
      let lb = Pb.lower_bound p v and ub = Pb.upper_bound p v in
      let scale = Float.max 1. (Float.max (abs_float lb) (abs_float ub)) in
      if x.(v) < lb -. (tol *. scale) || x.(v) > ub +. (tol *. scale) then
        note
          (Printf.sprintf "variable %s = %g outside [%g, %g]" (Pb.var_name p v)
             x.(v) lb ub);
      if
        check_integrality && List.mem v integer
        && abs_float (x.(v) -. Float.round x.(v)) > tol
      then
        note (Printf.sprintf "variable %s = %g not integral" (Pb.var_name p v) x.(v))
    done;
    Array.iter
      (fun { Pb.cname; expr; rel; rhs } ->
        let lhs = Lp.Expr.eval (fun v -> x.(v)) expr in
        let scale =
          List.fold_left
            (fun acc (v, c) -> acc +. abs_float (c *. x.(v)))
            (abs_float rhs) (Lp.Expr.to_list expr)
        in
        let slack = tol *. Float.max 1. scale in
        let ok =
          match rel with
          | Pb.Le -> lhs <= rhs +. slack
          | Pb.Ge -> lhs >= rhs -. slack
          | Pb.Eq -> abs_float (lhs -. rhs) <= slack
        in
        if not ok then
          note
            (Printf.sprintf "constraint %s violated: lhs=%g rhs=%g" cname lhs rhs))
      (Pb.constraints p);
    match !problem with None -> Ok () | Some msg -> Error msg
  end

let check_float = Alcotest.(check (float 1e-6))

let solve_opt problem =
  match Lp.Simplex.solve problem with
  | Lp.Simplex.Optimal sol -> sol
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"

(* --- hand-checked simplex instances ------------------------------------ *)

let test_basic_max () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p "x" in
  let y = Lp.Problem.add_var p "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]) Lp.Problem.Le 4.;
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 3.) ]) Lp.Problem.Le 6.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (x, 3.); (y, 2.) ]);
  let sol = solve_opt p in
  check_float "objective" 12. sol.Lp.Simplex.objective;
  check_float "x" 4. sol.Lp.Simplex.x.(x);
  check_float "y" 0. sol.Lp.Simplex.x.(y)

let test_basic_min_with_ge () =
  (* min 2x + 3y st x + y >= 10, x <= 6, y <= 8 -> x=6,y=4, obj 24. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~ub:6. "x" in
  let y = Lp.Problem.add_var p ~ub:8. "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]) Lp.Problem.Ge 10.;
  Lp.Problem.set_objective p Lp.Problem.Minimize
    (Lp.Expr.of_list [ (x, 2.); (y, 3.) ]);
  let sol = solve_opt p in
  check_float "objective" 24. sol.Lp.Simplex.objective

let test_equality () =
  (* min x + y st x + 2y = 6, x - y = 0 -> x = y = 2, obj 4. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p "x" in
  let y = Lp.Problem.add_var p "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 2.) ]) Lp.Problem.Eq 6.;
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, -1.) ]) Lp.Problem.Eq 0.;
  Lp.Problem.set_objective p Lp.Problem.Minimize
    (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]);
  let sol = solve_opt p in
  check_float "objective" 4. sol.Lp.Simplex.objective;
  check_float "x" 2. sol.Lp.Simplex.x.(x)

let test_free_variable () =
  (* min y st y >= x - 4, y >= -x, x free -> x = 2, y = -2. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lb:neg_infinity "x" in
  let y = Lp.Problem.add_var p ~lb:neg_infinity "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (y, 1.); (x, -1.) ]) Lp.Problem.Ge (-4.);
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (y, 1.); (x, 1.) ]) Lp.Problem.Ge 0.;
  Lp.Problem.set_objective p Lp.Problem.Minimize (Lp.Expr.term y);
  let sol = solve_opt p in
  check_float "objective" (-2.) sol.Lp.Simplex.objective

let test_infeasible () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~ub:1. "x" in
  Lp.Problem.add_constr p (Lp.Expr.term x) Lp.Problem.Ge 2.;
  Lp.Problem.set_objective p Lp.Problem.Minimize (Lp.Expr.term x);
  match Lp.Simplex.solve p with
  | Lp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p "x" in
  let y = Lp.Problem.add_var p "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, -1.) ]) Lp.Problem.Le 1.;
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  match Lp.Simplex.solve p with
  | Lp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_bound_override () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~ub:10. "x" in
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  let lb = [| 0. |] and ub = [| 3.5 |] in
  (match Lp.Simplex.solve ~lb ~ub p with
  | Lp.Simplex.Optimal sol -> check_float "override" 3.5 sol.Lp.Simplex.objective
  | _ -> Alcotest.fail "expected optimal");
  (* Original problem untouched. *)
  let sol = solve_opt p in
  check_float "original" 10. sol.Lp.Simplex.objective

let test_degenerate () =
  (* Classic degenerate LP; must terminate and find the optimum. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p "x" in
  let y = Lp.Problem.add_var p "y" in
  let z = Lp.Problem.add_var p "z" in
  Lp.Problem.add_constr p
    (Lp.Expr.of_list [ (x, 0.5); (y, -5.5); (z, -2.5) ])
    Lp.Problem.Le 0.;
  Lp.Problem.add_constr p
    (Lp.Expr.of_list [ (x, 0.5); (y, -1.5); (z, -0.5) ])
    Lp.Problem.Le 0.;
  Lp.Problem.add_constr p (Lp.Expr.term x) Lp.Problem.Le 1.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (x, 10.); (y, -57.); (z, -9.) ]);
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal sol ->
      Alcotest.(check bool)
        "objective positive" true
        (sol.Lp.Simplex.objective > 0.)
  | _ -> Alcotest.fail "expected optimal"

(* --- brute-force LP oracle --------------------------------------------- *)

(* Solve a k x k linear system by Gaussian elimination with partial
   pivoting; returns None for (near-)singular systems. *)
let gauss_solve a b =
  let k = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let ok = ref true in
  for col = 0 to k - 1 do
    if !ok then begin
      let pivot = ref col in
      for row = col + 1 to k - 1 do
        if abs_float a.(row).(col) > abs_float a.(!pivot).(col) then pivot := row
      done;
      if abs_float a.(!pivot).(col) < 1e-9 then ok := false
      else begin
        let tmp = a.(col) in
        a.(col) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!pivot);
        b.(!pivot) <- tb;
        for row = 0 to k - 1 do
          if row <> col then begin
            let f = a.(row).(col) /. a.(col).(col) in
            for c = col to k - 1 do
              a.(row).(c) <- a.(row).(c) -. (f *. a.(col).(c))
            done;
            b.(row) <- b.(row) -. (f *. b.(col))
          end
        done
      end
    end
  done;
  if not !ok then None
  else Some (Array.init k (fun i -> b.(i) /. a.(i).(i)))

(* All size-k subsets of [0..n-1]. *)
let rec subsets k from n =
  if k = 0 then [ [] ]
  else if from >= n then []
  else
    List.map (fun s -> from :: s) (subsets (k - 1) (from + 1) n)
    @ subsets k (from + 1) n

(* Enumerate candidate vertices of {x in box | rows} and return the best
   objective, or None if no feasible vertex exists. *)
let brute_force_lp ~n ~rows ~lb ~ub ~obj ~maximize =
  (* Hyperplanes: each row as equality, each bound as equality. *)
  let planes =
    List.concat
      [
        List.map (fun (coeffs, rhs) -> (coeffs, rhs)) rows;
        List.init n (fun v ->
            (Array.init n (fun i -> if i = v then 1. else 0.), lb.(v)));
        List.init n (fun v ->
            (Array.init n (fun i -> if i = v then 1. else 0.), ub.(v)));
      ]
  in
  let planes = Array.of_list planes in
  let np = Array.length planes in
  let feasible x =
    let ok = ref true in
    List.iter
      (fun (coeffs, rhs) ->
        let lhs = ref 0. in
        Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
        if !lhs > rhs +. 1e-6 then ok := false)
      rows;
    Array.iteri
      (fun i v -> if v < lb.(i) -. 1e-6 || v > ub.(i) +. 1e-6 then ok := false)
      x;
    !ok
  in
  let best = ref None in
  let try_active active =
    let a = Array.of_list (List.map (fun i -> fst planes.(i)) active) in
    let b = Array.of_list (List.map (fun i -> snd planes.(i)) active) in
    match gauss_solve a b with
    | None -> ()
    | Some x ->
        if feasible x then begin
          let value = ref 0. in
          Array.iteri (fun i c -> value := !value +. (c *. x.(i))) obj;
          match !best with
          | None -> best := Some !value
          | Some b ->
              if (maximize && !value > b) || ((not maximize) && !value < b)
              then best := Some !value
        end
  in
  List.iter try_active (subsets n 0 np);
  !best

let random_lp_agrees_with_brute_force =
  QCheck.Test.make ~count:150 ~name:"simplex agrees with vertex enumeration"
    QCheck.(
      triple (int_bound 1000) (int_range 1 3) (int_range 0 4))
    (fun (seed, n, m) ->
      let rng = Support.Rng.create (seed + (n * 7919) + (m * 104729)) in
      let lb = Array.init n (fun _ -> Support.Rng.float_in rng (-5.) 0.) in
      let ub = Array.init n (fun _ -> Support.Rng.float_in rng 0.5 6.) in
      let rows =
        List.init m (fun _ ->
            let coeffs =
              Array.init n (fun _ -> Support.Rng.float_in rng (-3.) 3.)
            in
            let rhs = Support.Rng.float_in rng (-4.) 8. in
            (coeffs, rhs))
      in
      let obj = Array.init n (fun _ -> Support.Rng.float_in rng (-2.) 2.) in
      let maximize = Support.Rng.bool rng in
      let p = Lp.Problem.create () in
      let vars =
        Array.init n (fun v ->
            Lp.Problem.add_var p ~lb:lb.(v) ~ub:ub.(v) (Printf.sprintf "x%d" v))
      in
      List.iter
        (fun (coeffs, rhs) ->
          let expr =
            Lp.Expr.of_list
              (List.init n (fun v -> (vars.(v), coeffs.(v))))
          in
          Lp.Problem.add_constr p expr Lp.Problem.Le rhs)
        rows;
      Lp.Problem.set_objective p
        (if maximize then Lp.Problem.Maximize else Lp.Problem.Minimize)
        (Lp.Expr.of_list (List.init n (fun v -> (vars.(v), obj.(v)))));
      let expected = brute_force_lp ~n ~rows ~lb ~ub ~obj ~maximize in
      match (Lp.Simplex.solve p, expected) with
      | Lp.Simplex.Optimal sol, Some best ->
          (match check_feasible p sol.Lp.Simplex.x with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "solution infeasible: %s" msg);
          if abs_float (sol.Lp.Simplex.objective -. best) > 1e-5 then
            QCheck.Test.fail_reportf "objective %g, brute force %g"
              sol.Lp.Simplex.objective best
          else true
      | Lp.Simplex.Infeasible, None -> true
      | Lp.Simplex.Optimal sol, None ->
          QCheck.Test.fail_reportf "simplex optimal (%g), oracle infeasible"
            sol.Lp.Simplex.objective
      | Lp.Simplex.Infeasible, Some best ->
          QCheck.Test.fail_reportf "simplex infeasible, oracle %g" best
      | Lp.Simplex.Unbounded, _ ->
          QCheck.Test.fail_reportf "unexpected unbounded on a box-bounded LP")

(* --- branch & bound ----------------------------------------------------- *)

let test_knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a=1,c=1: 17;
     b+c = 17+... check: b,c = 20 with weight 6: better! *)
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "a" in
  let b = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "b" in
  let c = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "c" in
  Lp.Problem.add_constr p
    (Lp.Expr.of_list [ (a, 3.); (b, 4.); (c, 2.) ])
    Lp.Problem.Le 6.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (a, 10.); (b, 13.); (c, 7.) ]);
  let out = Lp.Branch_bound.solve p in
  Alcotest.(check bool) "optimal" true (out.Lp.Branch_bound.status = Lp.Branch_bound.Optimal);
  match out.Lp.Branch_bound.best with
  | Some sol -> check_float "objective" 20. sol.Lp.Simplex.objective
  | None -> Alcotest.fail "no incumbent"

let test_integer_rounding_matters () =
  (* max x st 2x <= 5, x integer -> 2 (LP gives 2.5). *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:10. "x" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 2.) ]) Lp.Problem.Le 5.;
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  let out = Lp.Branch_bound.solve p in
  match out.Lp.Branch_bound.best with
  | Some sol -> check_float "objective" 2. sol.Lp.Simplex.objective
  | None -> Alcotest.fail "no incumbent"

let test_mip_infeasible () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "x" in
  let y = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]) Lp.Problem.Ge 3.;
  Lp.Problem.set_objective p Lp.Problem.Minimize (Lp.Expr.term x);
  let out = Lp.Branch_bound.solve p in
  Alcotest.(check bool) "infeasible" true
    (out.Lp.Branch_bound.status = Lp.Branch_bound.Infeasible)

(* Exhaustive oracle over the integer grid. *)
let brute_force_mip ~n ~ubounds ~rows ~obj ~maximize =
  let best = ref None in
  let x = Array.make n 0 in
  let rec enumerate v =
    if v = n then begin
      let feasible =
        List.for_all
          (fun (coeffs, rel, rhs) ->
            let lhs = ref 0. in
            Array.iteri
              (fun i c -> lhs := !lhs +. (c *. float_of_int x.(i)))
              coeffs;
            match rel with
            | Lp.Problem.Le -> !lhs <= rhs +. 1e-9
            | Lp.Problem.Ge -> !lhs >= rhs -. 1e-9
            | Lp.Problem.Eq -> abs_float (!lhs -. rhs) <= 1e-9)
          rows
      in
      if feasible then begin
        let value = ref 0. in
        Array.iteri (fun i c -> value := !value +. (c *. float_of_int x.(i))) obj;
        match !best with
        | None -> best := Some !value
        | Some b ->
            if (maximize && !value > b) || ((not maximize) && !value < b) then
              best := Some !value
      end
    end
    else
      for value = 0 to ubounds.(v) do
        x.(v) <- value;
        enumerate (v + 1)
      done
  in
  enumerate 0;
  !best

let random_mip_agrees_with_enumeration =
  QCheck.Test.make ~count:100 ~name:"branch&bound agrees with grid search"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, n) ->
      let rng = Support.Rng.create ((seed * 31) + n) in
      let ubounds = Array.init n (fun _ -> Support.Rng.int_in rng 1 3) in
      let m = Support.Rng.int_in rng 1 3 in
      let rows =
        List.init m (fun _ ->
            let coeffs =
              Array.init n (fun _ -> float_of_int (Support.Rng.int_in rng (-3) 4))
            in
            let rhs = float_of_int (Support.Rng.int_in rng 0 8) in
            (coeffs, Lp.Problem.Le, rhs))
      in
      let obj =
        Array.init n (fun _ -> float_of_int (Support.Rng.int_in rng (-5) 5))
      in
      let maximize = Support.Rng.bool rng in
      let p = Lp.Problem.create () in
      let vars =
        Array.init n (fun v ->
            Lp.Problem.add_var p ~kind:Lp.Problem.Integer
              ~ub:(float_of_int ubounds.(v))
              (Printf.sprintf "x%d" v))
      in
      List.iter
        (fun (coeffs, rel, rhs) ->
          let expr =
            Lp.Expr.of_list (List.init n (fun v -> (vars.(v), coeffs.(v))))
          in
          Lp.Problem.add_constr p expr rel rhs)
        rows;
      Lp.Problem.set_objective p
        (if maximize then Lp.Problem.Maximize else Lp.Problem.Minimize)
        (Lp.Expr.of_list (List.init n (fun v -> (vars.(v), obj.(v)))));
      let out = Lp.Branch_bound.solve p in
      let expected = brute_force_mip ~n ~ubounds ~rows ~obj ~maximize in
      match (out.Lp.Branch_bound.best, expected) with
      | Some sol, Some best ->
          if abs_float (sol.Lp.Simplex.objective -. best) > 1e-6 then
            QCheck.Test.fail_reportf "bb %g, grid %g" sol.Lp.Simplex.objective
              best
          else true
      | None, None -> true
      | Some sol, None ->
          QCheck.Test.fail_reportf "bb found %g, grid infeasible"
            sol.Lp.Simplex.objective
      | None, Some best -> QCheck.Test.fail_reportf "bb none, grid %g" best)

(* Dual-simplex warm starts: a child solve from the parent basis must
   return bitwise the same objective as a cold two-phase solve, and a
   primal-feasible point, across random chains of child bound flips —
   the exact access pattern of {!Lp.Branch_bound}. Chains include
   degenerate children (a variable fixed, [lb = ub]) and infeasible
   children (both paths must agree on [Infeas]). 150 cases x up to 5
   flips each gives several hundred warm solves per run. *)
let random_warm_equals_cold =
  QCheck.Test.make ~count:150 ~name:"dual warm start bitwise equals cold"
    QCheck.(triple (int_bound 100_000) (int_range 2 5) (int_range 1 5))
    (fun (seed, n, m) ->
      let rng = Support.Rng.create (seed + (n * 7919) + (m * 104729)) in
      let lb = Array.init n (fun _ -> Support.Rng.float_in rng (-5.) 0.) in
      let ub = Array.init n (fun _ -> Support.Rng.float_in rng 0.5 6.) in
      let p = Lp.Problem.create () in
      let vars =
        Array.init n (fun v ->
            Lp.Problem.add_var p ~lb:lb.(v) ~ub:ub.(v) (Printf.sprintf "x%d" v))
      in
      for _ = 1 to m do
        let coeffs = Array.init n (fun _ -> Support.Rng.float_in rng (-3.) 3.) in
        let rhs = Support.Rng.float_in rng (-4.) 8. in
        Lp.Problem.add_constr p
          (Lp.Expr.of_list (List.init n (fun v -> (vars.(v), coeffs.(v)))))
          Lp.Problem.Le rhs
      done;
      Lp.Problem.set_objective p
        (if Support.Rng.bool rng then Lp.Problem.Maximize
         else Lp.Problem.Minimize)
        (Lp.Expr.of_list
           (List.init n (fun v -> (vars.(v), Support.Rng.float_in rng (-2.) 2.))));
      match Lp.Simplex.solve_detailed p with
      | Lp.Simplex.Infeas | Lp.Simplex.Unbound -> true (* no root, no children *)
      | Lp.Simplex.Opt root ->
          let basis = ref root.Lp.Simplex.sbasis in
          (try
             for _ = 1 to 5 do
               let v = Support.Rng.int_in rng 0 (n - 1) in
               (match Support.Rng.int_in rng 0 3 with
               | 0 -> ub.(v) <- Support.Rng.float_in rng lb.(v) ub.(v)
               | 1 -> lb.(v) <- Support.Rng.float_in rng lb.(v) ub.(v)
               | 2 ->
                   (* Degenerate child: the variable is fixed. *)
                   let x = Support.Rng.float_in rng lb.(v) ub.(v) in
                   lb.(v) <- x;
                   ub.(v) <- x
               | _ ->
                   (* Aggressive fixing at the box corner; with Ge-like
                      rows in the mix this is how children go infeasible. *)
                   ub.(v) <- lb.(v));
               let warm = Lp.Simplex.solve_detailed ~lb ~ub ~warm:!basis p in
               let cold = Lp.Simplex.solve_detailed ~lb ~ub p in
               match (warm, cold) with
               | Lp.Simplex.Opt w, Lp.Simplex.Opt c ->
                   let wo = w.Lp.Simplex.sol.Lp.Simplex.objective
                   and co = c.Lp.Simplex.sol.Lp.Simplex.objective in
                   (* Same final basis: the point is extracted from the
                      same factorization, so the answers must be bitwise
                      identical. Different (alternative-optimal) bases:
                      the objectives still agree to round-off. *)
                   if w.Lp.Simplex.sbasis = c.Lp.Simplex.sbasis then begin
                     if Int64.bits_of_float wo <> Int64.bits_of_float co then
                       QCheck.Test.fail_reportf
                         "same basis, warm objective %.17g /= cold %.17g" wo co
                   end
                   else if
                     abs_float (wo -. co)
                     > 1e-9 *. Float.max 1. (abs_float co)
                   then
                     QCheck.Test.fail_reportf
                       "warm objective %.17g far from cold %.17g" wo co;
                   (* Basis feasibility of the warm answer: inside the
                      child box (and hence the original problem box). *)
                   Array.iteri
                     (fun i x ->
                       if x < lb.(i) -. 1e-7 || x > ub.(i) +. 1e-7 then
                         QCheck.Test.fail_reportf
                           "warm x%d = %.17g outside [%g, %g]" i x lb.(i)
                           ub.(i))
                     w.Lp.Simplex.sol.Lp.Simplex.x;
                   (match
                      check_feasible p w.Lp.Simplex.sol.Lp.Simplex.x
                    with
                   | Ok () -> ()
                   | Error msg ->
                       QCheck.Test.fail_reportf "warm point infeasible: %s" msg);
                   basis := w.Lp.Simplex.sbasis
               | Lp.Simplex.Infeas, Lp.Simplex.Infeas -> raise Exit
               | Lp.Simplex.Unbound, Lp.Simplex.Unbound -> raise Exit
               | _ ->
                   QCheck.Test.fail_reportf
                     "warm/cold status mismatch after a bound flip"
             done
           with Exit -> ());
          true)

let solve_detailed_opt ?lb ?ub ?warm p =
  match Lp.Simplex.solve_detailed ?lb ?ub ?warm p with
  | Lp.Simplex.Opt s -> s
  | Lp.Simplex.Infeas -> Alcotest.fail "unexpected Infeas"
  | Lp.Simplex.Unbound -> Alcotest.fail "unexpected Unbound"

let test_warm_degenerate_child () =
  (* Fix a variable exactly at its fractional parent-optimal value: the
     parent basis is still optimal, the dual repair does zero pivots, and
     the answer must be bitwise the cold one. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lb:0. ~ub:4. "x" in
  let y = Lp.Problem.add_var p ~lb:0. ~ub:4. "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 2.); (y, 1.) ]) Lp.Problem.Le 5.;
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 3.) ]) Lp.Problem.Le 6.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (x, 3.); (y, 2.) ]);
  let root = solve_detailed_opt p in
  let xv = root.Lp.Simplex.sol.Lp.Simplex.x.(0) in
  let lb = [| xv; 0. |] and ub = [| xv; 4. |] in
  let w = solve_detailed_opt ~lb ~ub ~warm:root.Lp.Simplex.sbasis p in
  let c = solve_detailed_opt ~lb ~ub p in
  Alcotest.(check bool)
    "degenerate child bitwise" true
    (Int64.bits_of_float w.Lp.Simplex.sol.Lp.Simplex.objective
    = Int64.bits_of_float c.Lp.Simplex.sol.Lp.Simplex.objective)

let test_warm_infeasible_child () =
  (* The child box contradicts a covering row: the dual phase must prove
     infeasibility exactly like the cold two-phase solve. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lb:0. ~ub:1. "x" in
  let y = Lp.Problem.add_var p ~lb:0. ~ub:1. "y" in
  (* x + y >= 1.5, written as -x - y <= -1.5. *)
  Lp.Problem.add_constr p
    (Lp.Expr.of_list [ (x, -1.); (y, -1.) ])
    Lp.Problem.Le (-1.5);
  Lp.Problem.set_objective p Lp.Problem.Minimize
    (Lp.Expr.of_list [ (x, 1.); (y, 2.) ]);
  let root = solve_detailed_opt p in
  let lb = [| 0.; 0. |] and ub = [| 0.25; 1. |] in
  (match Lp.Simplex.solve_detailed ~lb ~ub ~warm:root.Lp.Simplex.sbasis p with
  | Lp.Simplex.Infeas -> ()
  | Lp.Simplex.Opt _ | Lp.Simplex.Unbound ->
      Alcotest.fail "warm child not proven infeasible");
  match Lp.Simplex.solve_detailed ~lb ~ub p with
  | Lp.Simplex.Infeas -> ()
  | Lp.Simplex.Opt _ | Lp.Simplex.Unbound ->
      Alcotest.fail "cold child not proven infeasible"

let test_warm_start_and_gap () =
  (* Seeding with the optimum and allowing a generous gap must terminate
     immediately with that incumbent. *)
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "a" in
  let b = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "b" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (a, 2.); (b, 3.) ]) Lp.Problem.Le 4.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (a, 5.); (b, 6.) ]);
  let warm = [| 1.; 0. |] in
  let options = { Lp.Branch_bound.default_options with rel_gap = 0.5 } in
  let out = Lp.Branch_bound.solve ~options ~warm_start:warm p in
  (match out.Lp.Branch_bound.best with
  | Some sol -> Alcotest.(check bool) "at least warm" true (sol.Lp.Simplex.objective >= 5. -. 1e-9)
  | None -> Alcotest.fail "no incumbent");
  Alcotest.(check bool) "gap achieved" true (out.Lp.Branch_bound.gap <= 0.5 +. 1e-9)

let test_boxed_flip () =
  (* Optimum requires a nonbasic variable to flip between its two finite
     bounds. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lb:1. ~ub:3. "x" in
  let y = Lp.Problem.add_var p ~lb:1. ~ub:3. "y" in
  Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]) Lp.Problem.Le 5.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list [ (x, 1.); (y, 1.) ]);
  let sol = solve_opt p in
  check_float "objective" 5. sol.Lp.Simplex.objective

let test_negative_bounds () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lb:(-5.) ~ub:(-1.) "x" in
  Lp.Problem.set_objective p Lp.Problem.Minimize (Lp.Expr.term x);
  let sol = solve_opt p in
  check_float "objective" (-5.) sol.Lp.Simplex.objective;
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  let sol = solve_opt p in
  check_float "objective" (-1.) sol.Lp.Simplex.objective

let test_check_feasible_reports () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "x" in
  Lp.Problem.add_constr p (Lp.Expr.term x) Lp.Problem.Le 0.5;
  (match check_feasible p [| 1. |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "violation not reported");
  (match check_feasible p [| 0.3 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-integrality not reported");
  match check_feasible p [| 0. |] with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "false violation: %s" msg

let test_node_limit () =
  (* A 20-item knapsack with a 1-node budget: must return quickly with a
     valid bound and status Feasible/Unknown, never Optimal by accident. *)
  let p = Lp.Problem.create () in
  let rng = Support.Rng.create 77 in
  let vars =
    Array.init 20 (fun i ->
        Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. (Printf.sprintf "x%d" i))
  in
  let weights = Array.map (fun _ -> float_of_int (Support.Rng.int_in rng 1 9)) vars in
  let values = Array.map (fun _ -> float_of_int (Support.Rng.int_in rng 1 9)) vars in
  Lp.Problem.add_constr p
    (Lp.Expr.of_list (Array.to_list (Array.mapi (fun i v -> (v, weights.(i))) vars)))
    Lp.Problem.Le 30.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Lp.Expr.of_list (Array.to_list (Array.mapi (fun i v -> (v, values.(i))) vars)));
  let options = { Lp.Branch_bound.default_options with max_nodes = 1 } in
  let out = Lp.Branch_bound.solve ~options p in
  (match out.Lp.Branch_bound.status with
  | Lp.Branch_bound.Feasible | Lp.Branch_bound.Unknown
  | Lp.Branch_bound.Optimal (* possible if the root LP is integral *) -> ()
  | _ -> Alcotest.fail "unexpected status");
  (match out.Lp.Branch_bound.best with
  | Some sol ->
      Alcotest.(check bool) "bound dominates incumbent" true
        (out.Lp.Branch_bound.bound >= sol.Lp.Simplex.objective -. 1e-9)
  | None -> ())

let test_warm_start_out_of_bounds_ignored () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:1. "x" in
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  (* Warm start proposing x = 7 is out of bounds: must be ignored, not
     crash, and the solver still finds the optimum. *)
  let out = Lp.Branch_bound.solve ~warm_start:[| 7. |] p in
  match out.Lp.Branch_bound.best with
  | Some sol -> check_float "objective" 1. sol.Lp.Simplex.objective
  | None -> Alcotest.fail "no incumbent"

let test_problem_pp () =
  let p = Lp.Problem.create ~name:"demo" () in
  let x = Lp.Problem.add_var p "speed" in
  Lp.Problem.add_constr p ~name:"cap" (Lp.Expr.term x) Lp.Problem.Le 3.;
  Lp.Problem.set_objective p Lp.Problem.Maximize (Lp.Expr.term x);
  let rendered = Format.asprintf "%a" Lp.Problem.pp p in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions variable" true (contains "speed");
  Alcotest.(check bool) "mentions constraint" true (contains "cap")

let test_expr_algebra () =
  let e1 = Lp.Expr.of_list [ (0, 1.); (2, 2.); (0, 3.) ] in
  let terms = Alcotest.(list (pair int (float 0.))) in
  Alcotest.check terms "combined" [ (0, 4.); (2, 2.) ] (Lp.Expr.to_list e1);
  let e2 = Lp.Expr.of_list (Lp.Expr.to_list e1 @ [ (2, -2.) ]) in
  Alcotest.check terms "cancelled" [ (0, 4.) ] (Lp.Expr.to_list e2);
  let v = Lp.Expr.eval (fun v -> float_of_int v +. 1.) e1 in
  Alcotest.(check (float 1e-9)) "eval" 10. v


(* --- end-to-end golden digest --------------------------------------------- *)

(* The compact mapping relaxations the lp-relax benchmark solves: DagGen
   graphs of 11-13 tasks x SPEs {4,8}. The [%h] rendering of every
   [solve] answer (x, objective, iterations), every [solve_detailed]
   answer (x, reduced costs) and every [lp_rounding] mapping is hashed;
   any change to a single bit of any of them changes the digest. The
   pinned value was recorded before the sparse pivot-row kernels went
   in, so it checks that they are bitwise invisible end to end. *)
let golden_digest = "5b8c05b54d762eb7094228ac91f022db"

let golden_graph k =
  Daggen.Generator.generate ~rng:(Support.Rng.create (100 + k))
    ~shape:
      {
        Daggen.Generator.n = 11 + (k mod 3);
        fat = 0.5;
        density = 0.4;
        regularity = 0.5;
        jump = 2;
      }
    ~costs:Daggen.Generator.default_costs

let golden_rendering () =
  let buf = Buffer.create 65536 in
  let floats name a =
    Buffer.add_string buf name;
    Array.iter (fun v -> Printf.bprintf buf " %h" v) a;
    Buffer.add_char buf '\n'
  in
  for k = 0 to 5 do
    let g = golden_graph k in
    List.iter
      (fun spes ->
        let platform = Cell.Platform.qs22 ~n_spe:spes () in
        let f = Cellsched.Milp_formulation.build_compact platform g in
        let p = f.Cellsched.Milp_formulation.problem in
        Printf.bprintf buf "graph %d spes %d rows %d\n" k spes (Lp.Problem.n_constrs p);
        (match Lp.Simplex.solve p with
        | Lp.Simplex.Optimal s ->
            floats "solve.x" s.Lp.Simplex.x;
            Printf.bprintf buf "solve.objective %h iterations %d\n" s.Lp.Simplex.objective
              s.Lp.Simplex.iterations
        | Lp.Simplex.Infeasible -> Buffer.add_string buf "solve infeasible\n"
        | Lp.Simplex.Unbounded -> Buffer.add_string buf "solve unbounded\n");
        (match Lp.Simplex.solve_detailed p with
        | Lp.Simplex.Opt s ->
            floats "detailed.x" s.Lp.Simplex.sol.Lp.Simplex.x;
            floats "detailed.reduced_costs" s.Lp.Simplex.reduced_costs
        | Lp.Simplex.Infeas -> Buffer.add_string buf "detailed infeasible\n"
        | Lp.Simplex.Unbound -> Buffer.add_string buf "detailed unbounded\n");
        let m = Cellsched.Heuristics.lp_rounding platform g in
        Buffer.add_string buf "lp_rounding";
        Array.iter (Printf.bprintf buf " %d") (Cellsched.Mapping.to_array m);
        Buffer.add_char buf '\n')
      [ 4; 8 ]
  done;
  Buffer.contents buf

let test_golden_digest () =
  Alcotest.(check string)
    "digest of solve / solve_detailed / lp_rounding" golden_digest
    (Digest.to_hex (Digest.string (golden_rendering ())))


(* --- dense-inverse kernels ------------------------------------------------- *)

(* The simplex's row-major loops from before its inverse went
   column-major (and, for the update and the elimination, before they
   gathered the pivot row's nonzeros), kept verbatim as the oracle. *)
module Full_row = struct
  let ftran ~m binv idx vl w =
    Array.fill w 0 m 0.;
    for k = 0 to Array.length idx - 1 do
      let col = idx.(k) and v = vl.(k) in
      for i = 0 to m - 1 do
        w.(i) <- w.(i) +. (binv.((i * m) + col) *. v)
      done
    done

  let btran ~m binv c basis y =
    Array.fill y 0 m 0.;
    for i = 0 to m - 1 do
      let cb = c.(basis.(i)) in
      if cb <> 0. then begin
        let base = i * m in
        for j = 0 to m - 1 do
          y.(j) <- y.(j) +. (cb *. binv.(base + j))
        done
      end
    done

  let apply_inverse ~m binv r out =
    for i = 0 to m - 1 do
      let acc = ref 0. in
      let base = i * m in
      for j = 0 to m - 1 do
        acc := !acc +. (binv.(base + j) *. r.(j))
      done;
      out.(i) <- !acc
    done

  let update_binv ~m binv w r =
    let wr = w.(r) in
    let rbase = r * m in
    let inv_wr = 1. /. wr in
    for j = 0 to m - 1 do
      binv.(rbase + j) <- binv.(rbase + j) *. inv_wr
    done;
    for i = 0 to m - 1 do
      let wi = w.(i) in
      if i <> r && wi <> 0. then begin
        let ibase = i * m in
        for j = 0 to m - 1 do
          let p = binv.(rbase + j) in
          if p <> 0. then binv.(ibase + j) <- binv.(ibase + j) -. (wi *. p)
        done
      end
    done

  let gauss_jordan ~m a binv =
    let swap_rows arr r1 r2 =
      if r1 <> r2 then begin
        let b1 = r1 * m and b2 = r2 * m in
        for j = 0 to m - 1 do
          let t = arr.(b1 + j) in
          arr.(b1 + j) <- arr.(b2 + j);
          arr.(b2 + j) <- t
        done
      end
    in
    try
      for col = 0 to m - 1 do
        let p = ref col in
        for i = col + 1 to m - 1 do
          if abs_float a.((i * m) + col) > abs_float a.((!p * m) + col) then p := i
        done;
        let piv = a.((!p * m) + col) in
        if abs_float piv < 1e-11 then raise Exit;
        swap_rows a !p col;
        swap_rows binv !p col;
        let base = col * m in
        let inv = 1. /. piv in
        for j = 0 to m - 1 do
          a.(base + j) <- a.(base + j) *. inv;
          binv.(base + j) <- binv.(base + j) *. inv
        done;
        for i = 0 to m - 1 do
          if i <> col then begin
            let f = a.((i * m) + col) in
            if f <> 0. then begin
              let ib = i * m in
              for j = 0 to m - 1 do
                a.(ib + j) <- a.(ib + j) -. (f *. a.(base + j));
                binv.(ib + j) <- binv.(ib + j) -. (f *. binv.(base + j))
              done
            end
          end
        done
      done;
      true
    with Exit -> false

  (* The Devex update as its own pass after the pivot, then the pricing
     sweep, as [optimize] ran them before the update was folded in. *)
  let devex ~col_idx ~col_val ~status ~gamma ~rowr ~q ~lv ~wr =
    let gq = gamma.(q) in
    for j = 0 to Array.length status - 1 do
      if j <> q && status.(j) <> Lp.Simplex.For_testing.Basic then begin
        let jdx = col_idx.(j) and jvl = col_val.(j) in
        let a = ref 0. in
        for k = 0 to Array.length jdx - 1 do
          a := !a +. (rowr.(jdx.(k)) *. jvl.(k))
        done;
        let cand = !a *. !a *. gq in
        if cand > gamma.(j) then gamma.(j) <- cand
      end
    done;
    gamma.(lv) <- Float.max (gq /. (wr *. wr)) 1.

  let price ~col_idx ~col_val ~c ~y ~status ~gamma ~bland =
    let open Lp.Simplex.For_testing in
    let best = ref (-1) and best_score = ref neg_infinity in
    (try
       for q = 0 to Array.length status - 1 do
         match status.(q) with
         | Basic -> ()
         | st ->
             let idx = col_idx.(q) and vl = col_val.(q) in
             let d = ref c.(q) in
             for k = 0 to Array.length idx - 1 do
               d := !d -. (y.(idx.(k)) *. vl.(k))
             done;
             let improving =
               match st with
               | At_lower -> !d < -1e-7
               | At_upper -> !d > 1e-7
               | Free_nb -> !d < -1e-7 || !d > 1e-7
               | Basic -> false
             in
             if improving then
               if bland then begin
                 best := q;
                 raise Exit
               end
               else begin
                 let score = !d *. !d /. gamma.(q) in
                 if score > !best_score then begin
                   best := q;
                   best_score := score
                 end
               end
       done
     with Exit -> ());
    !best
end

(* Bit-for-bit equality, the sign of a zero included. *)
let same_bits what expected got =
  Array.iteri
    (fun k e ->
      let g = got.(k) in
      if Int64.bits_of_float e <> Int64.bits_of_float g then
        QCheck.Test.fail_reportf "%s[%d]: row-major %h, column-major %h" what k e g)
    expected

(* Nonzero entries equal bit for bit; a zero may differ only in sign. *)
let same_entries what expected got =
  Array.iteri
    (fun k e ->
      let g = got.(k) in
      if not (Int64.bits_of_float e = Int64.bits_of_float g || (e = 0. && g = 0.)) then
        QCheck.Test.fail_reportf "%s[%d]: full-row %h, gathered %h" what k e g)
    expected

(* Entry (i, j) of the row-major [a] at j*m + i, and back. *)
let transpose ~m a = Array.init (m * m) (fun k -> a.((k mod m * m) + (k / m)))

(* A float in [-3, 3] (one in ten tiny) with the given probability, else
   +0 or -0 at random. *)
let random_entry rng density =
  if Support.Rng.float rng 1. < density then
    let v = Support.Rng.float_in rng (-3.) 3. in
    if Support.Rng.int rng 10 = 0 then v *. 1e-200 else v
  else if Support.Rng.bool rng then 0.
  else -0.

(* An m x m row-major matrix at the given density. *)
let random_matrix rng m density = Array.init (m * m) (fun _ -> random_entry rng density)

let zero_row rng arr ~m i ~except =
  for j = 0 to m - 1 do
    if j <> except then arr.((i * m) + j) <- (if Support.Rng.bool rng then 0. else -0.)
  done

(* A sparse column over m rows: increasing row indices, nonzero values. *)
let random_column rng m density =
  let rows = List.filter (fun _ -> Support.Rng.float rng 1. < density) (List.init m Fun.id) in
  let rows = if rows = [] then [ Support.Rng.int rng m ] else rows in
  ( Array.of_list rows,
    Array.of_list (List.map (fun _ -> Support.Rng.float_in rng (-3.) 3.) rows) )

let kernel_case = QCheck.(triple (int_bound 1_000_000) (int_range 1 14) (int_range 0 100))

let update_binv_matches_full_row =
  QCheck.Test.make ~count:400 ~name:"rank-1 update equals the full-row loop" kernel_case
    (fun (seed, m, pct) ->
      let rng = Support.Rng.create seed in
      let density = float_of_int pct /. 100. in
      let binv = random_matrix rng m density in
      let w = Array.init m (fun _ -> random_entry rng density) in
      let r = Support.Rng.int rng m in
      w.(r) <- (if Support.Rng.bool rng then 1. else -1.) *. Support.Rng.float_in rng 0.01 4.;
      (* Rows of zeros, and a pivot row that is zero except at r. *)
      if Support.Rng.int rng 3 = 0 then zero_row rng binv ~m (Support.Rng.int rng m) ~except:(-1);
      if Support.Rng.int rng 3 = 0 then begin
        zero_row rng binv ~m r ~except:r;
        binv.((r * m) + r) <- Support.Rng.float_in rng 0.5 2.
      end;
      let expected = Array.copy binv in
      Full_row.update_binv ~m expected w r;
      let got = transpose ~m binv in
      let rowr = Lp.Simplex.For_testing.update_binv ~m got w r in
      same_bits "binv" expected (transpose ~m got);
      same_bits "scaled pivot row" (Array.sub expected (r * m) m) rowr;
      true)

let ftran_btran_refresh_match_full_row =
  QCheck.Test.make ~count:400
    ~name:"column-major FTRAN, BTRAN and refresh equal the row-major loops" kernel_case
    (fun (seed, m, pct) ->
      let rng = Support.Rng.create seed in
      let density = float_of_int pct /. 100. in
      let binv = random_matrix rng m density in
      let cm = transpose ~m binv in
      let idx, vl = random_column rng m density in
      let expected = Array.make m nan and got = Array.make m nan in
      Full_row.ftran ~m binv idx vl expected;
      Lp.Simplex.For_testing.ftran ~m cm idx vl got;
      same_bits "ftran" expected got;
      let ncols = m + Support.Rng.int rng 5 in
      let c = Array.init ncols (fun _ -> random_entry rng density) in
      let basis = Array.init m (fun _ -> Support.Rng.int rng ncols) in
      Full_row.btran ~m binv c basis expected;
      Lp.Simplex.For_testing.btran ~m cm c basis got;
      same_bits "btran" expected got;
      let rhs = Array.init m (fun _ -> random_entry rng density) in
      Full_row.apply_inverse ~m binv rhs expected;
      Lp.Simplex.For_testing.apply_inverse ~m cm rhs got;
      same_bits "refresh" expected got;
      true)

let gauss_jordan_matches_full_row =
  QCheck.Test.make ~count:400 ~name:"refactorization equals the full-row loop" kernel_case
    (fun (seed, m, pct) ->
      let rng = Support.Rng.create seed in
      let a = random_matrix rng m (float_of_int pct /. 100.) in
      (* Mostly nonsingular: a random permutation's entries are usually
         set, so sparse matrices still factor. *)
      let perm = Array.init m Fun.id in
      Support.Rng.shuffle rng perm;
      Array.iteri
        (fun i j ->
          if Support.Rng.int rng 5 > 0 then a.((i * m) + j) <- Support.Rng.float_in rng 0.5 3.)
        perm;
      if Support.Rng.int rng 4 = 0 then zero_row rng a ~m (Support.Rng.int rng m) ~except:(-1);
      let identity = Array.init (m * m) (fun k -> if k mod (m + 1) = 0 then 1. else 0.) in
      let a' = Array.copy a and inv = Array.copy identity and inv' = Array.copy identity in
      let ok = Full_row.gauss_jordan ~m a inv in
      let ok' = Lp.Simplex.For_testing.gauss_jordan ~m a' inv' in
      if ok <> ok' then QCheck.Test.fail_reportf "full-row ok=%b, gathered ok=%b" ok ok';
      same_entries "a" a a';
      same_entries "inv" inv inv';
      true)

(* One pivot's Devex update followed by the next pricing sweep: the two
   passes above against [optimize]'s folded form, which sets the leaving
   variable's weight at pivot time, drops the pending update when the
   weights are reset, and lets the sweep apply the rest. Random columns,
   statuses, weights, multipliers and pivot rows, with and without
   Bland's rule and a reset in between. *)
let devex_fold_matches_two_passes =
  QCheck.Test.make ~count:1000 ~name:"folded Devex pricing equals the two-pass loop"
    QCheck.(pair (int_bound 1_000_000) (pair (int_range 1 8) (int_range 2 24)))
    (fun (seed, (m, ntot)) ->
      let open Lp.Simplex.For_testing in
      let rng = Support.Rng.create seed in
      let density = Support.Rng.float_in rng 0.1 1. in
      let cols = Array.init ntot (fun _ -> random_column rng m density) in
      let col_idx = Array.map fst cols and col_val = Array.map snd cols in
      let status =
        Array.init ntot (fun _ ->
            match Support.Rng.int rng 7 with
            | 0 | 1 -> Basic
            | 2 | 3 -> At_lower
            | 4 | 5 -> At_upper
            | _ -> Free_nb)
      in
      (* The entering column q is basic after the pivot; the leaving
         variable lv is nonbasic. *)
      let q = Support.Rng.int rng ntot in
      let lv = (q + 1 + Support.Rng.int rng (ntot - 1)) mod ntot in
      status.(q) <- Basic;
      if status.(lv) = Basic then status.(lv) <- At_lower;
      let c = Array.init ntot (fun _ -> random_entry rng 0.8) in
      let y = Array.init m (fun _ -> random_entry rng 0.8) in
      let rowr = Array.init m (fun _ -> random_entry rng density) in
      let gamma =
        Array.init ntot (fun _ ->
            if Support.Rng.bool rng then 1. else Support.Rng.float_in rng 0.01 50.)
      in
      let wr = (if Support.Rng.bool rng then 1. else -1.) *. Support.Rng.float_in rng 0.05 20. in
      let bland = Support.Rng.int rng 3 = 0 and reset = Support.Rng.int rng 4 = 0 in
      let expected = Array.copy gamma in
      Full_row.devex ~col_idx ~col_val ~status ~gamma:expected ~rowr ~q ~lv ~wr;
      if reset then Array.fill expected 0 ntot 1.;
      let best = Full_row.price ~col_idx ~col_val ~c ~y ~status ~gamma:expected ~bland in
      gamma.(lv) <- Float.max (gamma.(q) /. (wr *. wr)) 1.;
      if reset then Array.fill gamma 0 ntot 1.;
      let got =
        let col_start = Array.make (ntot + 1) 0 in
        Array.iteri (fun j idx -> col_start.(j + 1) <- col_start.(j) + Array.length idx) col_idx;
        price ~col_start ~row_idx:(Array.concat (Array.to_list col_idx))
          ~col_val:(Array.concat (Array.to_list col_val)) ~c ~y ~status ~gamma ~rowr ~bland
          ~pend_q:(if reset then -1 else q) ~pend_lv:lv
      in
      if got <> best then QCheck.Test.fail_reportf "entering: two-pass %d, folded %d" best got;
      same_bits "gamma" expected gamma;
      true)

(* [solve] and [solve_detailed] answers in [%h]. *)
let render_lp buf p =
  let floats name a =
    Buffer.add_string buf name;
    Array.iter (fun v -> Printf.bprintf buf " %h" v) a;
    Buffer.add_char buf '\n'
  in
  (match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal s ->
      floats "solve.x" s.Lp.Simplex.x;
      Printf.bprintf buf "solve.objective %h iterations %d\n" s.Lp.Simplex.objective
        s.Lp.Simplex.iterations
  | Lp.Simplex.Infeasible -> Buffer.add_string buf "solve infeasible\n"
  | Lp.Simplex.Unbounded -> Buffer.add_string buf "solve unbounded\n"
  | exception Failure m -> Printf.bprintf buf "solve failure %s\n" m);
  match Lp.Simplex.solve_detailed p with
  | Lp.Simplex.Opt s ->
      floats "detailed.x" s.Lp.Simplex.sol.Lp.Simplex.x;
      floats "detailed.rc" s.Lp.Simplex.reduced_costs;
      Printf.bprintf buf "detailed.iterations %d\n" s.Lp.Simplex.sol.Lp.Simplex.iterations
  | Lp.Simplex.Infeas -> Buffer.add_string buf "detailed infeasible\n"
  | Lp.Simplex.Unbound -> Buffer.add_string buf "detailed unbounded\n"
  | exception Failure m -> Printf.bprintf buf "detailed failure %s\n" m

let golden_lp k spes =
  let platform = Cell.Platform.qs22 ~n_spe:spes () in
  (Cellsched.Milp_formulation.build_compact platform (golden_graph k))
    .Cellsched.Milp_formulation.problem

(* Forced Bland windows (switching on and off with an update pending)
   and short Devex reset periods, on four golden relaxations. The digests
   were recorded with the Devex update as its own pass after each pivot,
   so the folded pricing sweep must reproduce them bit for bit. *)
let test_pricing_hooks () =
  List.iter
    (fun (name, bland, reset_mask, digest) ->
      let buf = Buffer.create 65536 in
      for k = 0 to 3 do
        Lp.Simplex.For_testing.with_pricing ~bland ~reset_mask (fun () ->
            render_lp buf (golden_lp k (if k mod 2 = 0 then 4 else 8)))
      done;
      Alcotest.(check string) name digest (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      ("Bland at pivots 20-44", (fun it -> it >= 20 && it < 45), 4095,
       "c73d0306d8605d0c3258d64db3524583");
      ("reset every 32 pivots", (fun _ -> false), 31, "05821aa241956db65853e1e6e9a94733");
      ( "Bland at scattered pivots, reset every 64",
        (fun it -> it mod 7 = 3 || (it >= 100 && it < 130)),
        63,
        "34564d8c9ac56e0d18f46aadf830c460" );
    ]

(* A refactorization that fails part-way (as on a nearly singular final
   basis) must leave the incremental inverse in place: the point it
   returns is still primal feasible. *)
let test_failed_refactorization () =
  let p = golden_lp 1 4 in
  let reference = solve_detailed_opt p in
  let s =
    Lp.Simplex.For_testing.with_singular_column
      (Lp.Problem.n_constrs p / 2)
      (fun () -> solve_detailed_opt p)
  in
  let x = s.Lp.Simplex.sol.Lp.Simplex.x in
  (match check_feasible ~tol:1e-7 ~check_integrality:false p x with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "point after a failed refactorization: %s" msg);
  Alcotest.(check int)
    "iterations" reference.Lp.Simplex.sol.Lp.Simplex.iterations
    s.Lp.Simplex.sol.Lp.Simplex.iterations;
  Alcotest.(check (float 1e-9))
    "objective" reference.Lp.Simplex.sol.Lp.Simplex.objective
    s.Lp.Simplex.sol.Lp.Simplex.objective

(* --- inverse reuse ---------------------------------------------------------- *)

(* Two renderings per relaxation, in [%h]: a cold [solve] followed by a
   cold [solve_detailed] ([render_lp]), and a warm child that caps the
   first fractional variable of the root at its floor. *)
let solve_kinds =
  let render f p =
    let buf = Buffer.create 4096 in
    f buf p;
    Buffer.contents buf
  in
  [
    ("solve, solve_detailed", render render_lp);
    ( "warm child",
      render (fun buf p ->
          let root = solve_detailed_opt p in
          let x = root.Lp.Simplex.sol.Lp.Simplex.x in
          let lb, ub = Lp.Problem.bounds_arrays p in
          let fractional v = Float.abs (x.(v) -. Float.round x.(v)) > 1e-6 in
          (match List.find_opt fractional (List.init (Array.length x) Fun.id) with
          | Some v -> ub.(v) <- Float.floor x.(v)
          | None -> ());
          match Lp.Simplex.solve_detailed ~lb ~ub ~warm:root.Lp.Simplex.sbasis p with
          | Lp.Simplex.Opt s ->
              Printf.bprintf buf "warm %b" s.Lp.Simplex.warm;
              Array.iter (fun v -> Printf.bprintf buf " %h" v) s.Lp.Simplex.sol.Lp.Simplex.x
          | Lp.Simplex.Infeas -> Buffer.add_string buf "infeasible"
          | Lp.Simplex.Unbound -> Buffer.add_string buf "unbounded") );
  ]

(* Every solve on a domain reuses that domain's inverse buffer, so each
   answer must not depend on what the buffer held. The golden relaxations
   are solved in ascending order of rows, then descending, each kind of
   solve in turn, and every answer is compared with the same solves on a
   freshly spawned domain, whose scratch starts as a new process's does.
   None of these points may need the residual repair. *)
let test_inverse_reuse () =
  let lps =
    List.concat_map (fun k -> [ golden_lp k 4; golden_lp k 8 ]) [ 0; 1; 2; 3; 4; 5 ]
    |> List.map (fun p -> (Lp.Problem.n_constrs p, p))
  in
  let fresh =
    List.map
      (fun (_, p) ->
        List.map (fun (_, f) -> Domain.join (Domain.spawn (fun () -> f p))) solve_kinds)
      lps
  in
  let by_rows =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.map2 (fun (m, p) expected -> (m, (p, expected))) lps fresh)
  in
  let repairs = Lp.Simplex.For_testing.repairs () in
  List.iter
    (fun (m, (p, expected)) ->
      List.iter2
        (fun (kind, f) e ->
          Alcotest.(check string) (Printf.sprintf "%s at m = %d" kind m) e (f p))
        solve_kinds expected)
    (by_rows @ List.rev by_rows);
  Alcotest.(check int) "residual repairs" repairs (Lp.Simplex.For_testing.repairs ())

(* Under the reuse cap a repeated cold solve allocates no inverse: its
   major-heap words stay below the m x m a fresh inverse would take. *)
let test_reuse_allocation () =
  let p = golden_lp 5 8 in
  let m = Lp.Problem.n_constrs p in
  ignore (solve_opt p);
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (solve_opt p);
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  if words >= float_of_int (m * m) then
    Alcotest.failf "repeated solve at m = %d allocated %.0f major words (m^2 = %d)" m words (m * m)

(* --- check before claiming optimal ------------------------------------------ *)

(* Golden relaxation 2 at 4 SPEs, with column 0 of the inverse scaled at
   pivot 50, as accumulated drift would: the final point fails the
   residual check, and the repaired answer certifies. *)
let test_drift_repaired () =
  let p = golden_lp 2 4 in
  let reference = solve_opt p in
  let repairs = Lp.Simplex.For_testing.repairs () in
  let s = Lp.Simplex.For_testing.with_corrupted_inverse ~at:50 (fun () -> solve_opt p) in
  Alcotest.(check int) "repairs" (repairs + 1) (Lp.Simplex.For_testing.repairs ());
  let report = Lp.Certify.analyze p s.Lp.Simplex.x in
  if Rational.Rat.compare report.Lp.Certify.max_violation (Rational.Rat.of_ints 1 1_000_000_000) > 0
  then
    Alcotest.failf "repaired point violates %s by %g"
      (Option.value report.Lp.Certify.worst ~default:"?")
      (Rational.Rat.to_float report.Lp.Certify.max_violation);
  Alcotest.(check (float 1e-12))
    "objective" reference.Lp.Simplex.objective s.Lp.Simplex.objective

(* The same drift with every refactorization failing: both entry points
   refuse to claim an optimum. *)
let test_drift_fails_loudly () =
  let p = golden_lp 2 4 in
  let loud f =
    match
      Lp.Simplex.For_testing.with_corrupted_inverse ~at:50 (fun () ->
          Lp.Simplex.For_testing.with_singular_column 0 f)
    with
    | () -> Alcotest.fail "a drifted point was returned"
    | exception Failure msg ->
        Alcotest.(check string) "message"
          "Simplex: optimal point fails its residual check after refactorization" msg
  in
  loud (fun () -> ignore (Lp.Simplex.solve p));
  loud (fun () -> ignore (Lp.Simplex.solve_detailed p))

(* --- array rows ---------------------------------------------------------- *)

(* Term lists over variables 0..5 with repeated variables, cancelling
   pairs, zero and negative-zero coefficients, and now and then a
   negative or out-of-range (6) index. One list in four is longer than
   the insertion-sorted runs, so the merge is exercised. *)
let random_terms rng =
  let len =
    if Support.Rng.int rng 4 = 0 then 17 + Support.Rng.int rng 60 else Support.Rng.int rng 17
  in
  let var () =
    match Support.Rng.int rng 40 with 0 -> -1 | 1 -> 6 | _ -> Support.Rng.int rng 6
  in
  let coef () =
    match Support.Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> -0.
    | 2 -> 1.
    | 3 -> -1.
    | _ -> Support.Rng.float_in rng (-4.) 4.
  in
  List.concat
    (List.init len (fun _ ->
         let v = var () and c = coef () in
         if Support.Rng.int rng 5 = 0 then [ (v, c); (v, -.c) ] else [ (v, c) ]))

(* The row a path added to a fresh six-variable problem, its terms in
   bits, or the row count after the path raised [Invalid_argument]. *)
let added_row add =
  let p = Lp.Problem.create () in
  for v = 0 to 5 do
    ignore (Lp.Problem.add_var p (Printf.sprintf "x%d" v))
  done;
  match add p with
  | () ->
      let { Lp.Problem.cname; expr; rel; rhs } = (Lp.Problem.constraints p).(0) in
      let bits = List.map (fun (v, c) -> (v, Int64.bits_of_float c)) (Lp.Expr.to_list expr) in
      Ok (Lp.Problem.n_constrs p, cname, bits, rel, rhs)
  | exception Invalid_argument _ -> Error (Lp.Problem.n_constrs p)

let add_row_matches_of_list =
  QCheck.Test.make ~count:2000 ~name:"add_row normalises as Expr.of_list"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let terms = random_terms (Support.Rng.create seed) in
      let via_list =
        added_row (fun p ->
            Lp.Problem.add_constr p ~name:"r_3" (Lp.Expr.of_list terms) Lp.Problem.Le 2.5)
      in
      (* Arrays longer than the row: only the first [len] terms count. *)
      let vars = Array.of_list (List.map fst terms @ [ -7 ]) in
      let coefs = Array.of_list (List.map snd terms @ [ 1. ]) in
      let via_arrays =
        added_row (fun p ->
            Lp.Problem.add_row p "r" 3 (-1) vars coefs (List.length terms) Lp.Problem.Le 2.5)
      in
      if via_list <> via_arrays then
        QCheck.Test.fail_reportf "Expr.of_list and add_row disagree on %s"
          (String.concat "; " (List.map (fun (v, c) -> Printf.sprintf "(%d, %h)" v c) terms));
      (match via_arrays with Error n when n <> 0 -> QCheck.Test.fail_report "rejected row kept" | _ -> ());
      true)

(* Paper graph 1's compact formulation at 4 SPEs, listed by [Problem.pp]
   and checked by [Certify] at four points. The digest, lines and
   messages were recorded when every name was formatted as its variable
   or row was added and every row was built from term lists. *)
let test_compact_listing () =
  let g = Daggen.Presets.random_graph_1 () in
  let platform = Cell.Platform.qs22 ~n_spe:4 () in
  let f = Cellsched.Milp_formulation.build_compact platform g in
  let p = f.Cellsched.Milp_formulation.problem in
  let listing = Format.asprintf "%a" Lp.Problem.pp p in
  Alcotest.(check int) "listing length" 96520 (String.length listing);
  let lines = Array.of_list (String.split_on_char '\n' listing) in
  Alcotest.(check string) "line 0" "cell-mapping-compact: minimize T" lines.(0);
  Alcotest.(check string) "line 1" "  assign_0: a_0_0 + a_0_1 + a_0_2 + a_0_3 + a_0_4 = 1" lines.(1);
  Alcotest.(check string) "line 60" "  def_in_0_2: a_0_2 - a_2_2 + in_0_2 >= 0" lines.(60);
  Alcotest.(check string) "listing digest" "a6a8ca74c882935ada3c872a8657d1a5"
    (Digest.to_hex (Digest.string listing));
  let m = Cellsched.Heuristics.greedy_mem platform g in
  let base = f.Cellsched.Milp_formulation.encode m in
  let alpha = f.Cellsched.Milp_formulation.alpha in
  let certify name x ~check ~worst ~integral =
    let got = match Lp.Certify.check p x with Ok () -> "ok" | Error e -> e in
    Alcotest.(check string) (name ^ ": check") check got;
    let r = Lp.Certify.analyze p x in
    Alcotest.(check (option string)) (name ^ ": worst") worst r.Lp.Certify.worst;
    Alcotest.(check bool) (name ^ ": integral") integral r.Lp.Certify.integral
  in
  let x = Array.copy base in
  x.(f.Cellsched.Milp_formulation.t_var) <- x.(f.Cellsched.Milp_formulation.t_var) *. 0.5;
  certify "half period" x
    ~check:"violation 504948081894101857/9223372036854775808 > tolerance 1/1000000 at compute_0"
    ~worst:(Some "compute_0") ~integral:true;
  let x = Array.copy base in
  let pe = Cellsched.Mapping.pe m 7 in
  x.(alpha.(7).(pe)) <- 0.9999999;
  x.(alpha.(7).((pe + 1) mod 5)) <- 0.0000001;
  certify "alpha within tolerance" x ~check:"ok" ~worst:(Some "def_in_6_3") ~integral:false;
  (* Task 0 split between its PE and a PPE, every indicator of its edges
     raised and the period stretched: only integrality fails. *)
  let x = Array.copy base in
  let pe = Cellsched.Mapping.pe m 0 in
  x.(f.Cellsched.Milp_formulation.t_var) <- x.(f.Cellsched.Milp_formulation.t_var) *. 10.;
  x.(alpha.(0).(pe)) <- 0.5;
  x.(alpha.(0).(if pe = 0 then 1 else 0)) <- 0.5;
  for v = 0 to Lp.Problem.n_vars p - 1 do
    match String.split_on_char '_' (Lp.Problem.var_name p v) with
    | [ ("in" | "out" | "g"); e; _ ] ->
        let { Streaming.Graph.src; dst; _ } = Streaming.Graph.edge g (int_of_string e) in
        if src = 0 || dst = 0 then x.(v) <- 1.
    | _ -> ()
  done;
  certify "half alpha" x ~check:"variable a_0_0 = 0.5 not integral within tolerance" ~worst:None
    ~integral:false;
  let x = Array.copy base in
  x.(Lp.Problem.n_vars p - 1) <- 1.5;
  certify "last variable over its bound" x
    ~check:"violation 1/2 > tolerance 1/1000000 at g_63_4" ~worst:(Some "g_63_4") ~integral:true

(* Building the compact relaxation of a 12-task DagGen graph at 8 SPEs
   and solving it allocates at most [words_per_entry] minor-heap words
   per nonzero, row and column. Rows built from term lists, names
   formatted up front and columns assembled through lists took about 60. *)
let words_per_entry = 6.

let test_build_solve_allocation () =
  let platform = Cell.Platform.qs22 ~n_spe:8 () and g = golden_graph 1 in
  let run () =
    let p = (Cellsched.Milp_formulation.build_compact platform g).Cellsched.Milp_formulation.problem in
    ignore (solve_opt p);
    p
  in
  (* The first run sizes this domain's inverse buffer. *)
  let p = run () in
  let before = Gc.minor_words () in
  ignore (run ());
  let words = Gc.minor_words () -. before in
  let rows = Lp.Problem.n_constrs p and cols = Lp.Problem.n_vars p in
  let nnz = (Lp.Problem.view p).Lp.Problem.row_start.(rows) in
  let entries = float_of_int (nnz + rows + cols) in
  if words > words_per_entry *. entries then
    Alcotest.failf "build and solve allocated %.0f minor words, %.2f per entry (%d nonzeros, %d rows, %d columns)"
      words (words /. entries) nnz rows cols

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "min with ge" `Quick test_basic_min_with_ge;
          Alcotest.test_case "equalities" `Quick test_equality;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "bound override" `Quick test_bound_override;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "bound flip" `Quick test_boxed_flip;
          Alcotest.test_case "negative bounds" `Quick test_negative_bounds;
          qt random_lp_agrees_with_brute_force;
          Alcotest.test_case "warm degenerate child" `Quick
            test_warm_degenerate_child;
          Alcotest.test_case "warm infeasible child" `Quick
            test_warm_infeasible_child;
          qt random_warm_equals_cold;
        ] );
      ( "branch-bound",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "integer rounding" `Quick test_integer_rounding_matters;
          Alcotest.test_case "infeasible mip" `Quick test_mip_infeasible;
          Alcotest.test_case "warm start and gap" `Quick test_warm_start_and_gap;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "bad warm start ignored" `Quick test_warm_start_out_of_bounds_ignored;
          qt random_mip_agrees_with_enumeration;
        ] );
      ( "problem",
        [
          Alcotest.test_case "check_feasible" `Quick test_check_feasible_reports;
          Alcotest.test_case "pp" `Quick test_problem_pp;
          qt add_row_matches_of_list;
          Alcotest.test_case "compact listing and Certify messages" `Quick test_compact_listing;
          Alcotest.test_case "build and solve allocation" `Quick test_build_solve_allocation;
        ] );
      ("expr", [ Alcotest.test_case "algebra" `Quick test_expr_algebra ]);
      ("golden", [ Alcotest.test_case "lp-relax digest" `Quick test_golden_digest ]);
      ( "kernels",
        [
          qt update_binv_matches_full_row;
          qt gauss_jordan_matches_full_row;
          Alcotest.test_case "failed refactorization keeps binv" `Quick
            test_failed_refactorization;
          qt ftran_btran_refresh_match_full_row;
          qt devex_fold_matches_two_passes;
          Alcotest.test_case "forced Bland and Devex resets" `Quick test_pricing_hooks;
        ] );
      ( "inverse reuse",
        [
          Alcotest.test_case "answers independent of the buffer" `Quick test_inverse_reuse;
          Alcotest.test_case "no inverse allocated on repeat" `Quick test_reuse_allocation;
        ] );
      ( "residual check",
        [
          Alcotest.test_case "drifted inverse repaired" `Quick test_drift_repaired;
          Alcotest.test_case "unrepairable drift fails loudly" `Quick test_drift_fails_loudly;
        ] );
    ]
