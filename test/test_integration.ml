(* End-to-end integration properties across the whole stack: random
   applications flow through generation, serialization, every mapping
   strategy, the MILP solver, the schedule view and the simulator, with a
   battery of cross-module invariants checked at each step. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state

let random_setup seed =
  let rng = Support.Rng.create seed in
  let n = 4 + Support.Rng.int rng 16 in
  let shape =
    {
      Daggen.Generator.n;
      fat = 0.3 +. Support.Rng.float rng 0.8;
      density = 0.2 +. Support.Rng.float rng 0.5;
      regularity = 0.5;
      jump = 1 + Support.Rng.int rng 2;
    }
  in
  let g = Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs in
  let ccr = 0.4 +. Support.Rng.float rng 2.0 in
  let g = Streaming.Ccr.scale_to g ~target:ccr in
  let n_spe = 1 + Support.Rng.int rng 6 in
  (g, P.qs22 ~n_spe ())

let full_stack =
  QCheck.Test.make ~count:15 ~name:"full stack invariants on random apps"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, platform = random_setup seed in
      (* 1. Serialization round-trips. *)
      let s = Streaming.Serialize.to_string g in
      if Streaming.Serialize.to_string (Streaming.Serialize.of_string s) <> s
      then QCheck.Test.fail_reportf "serialize roundtrip broke"
      else begin
        (* 2. Solver beats (or ties) every feasible heuristic. *)
        let options =
          { Cellsched.Milp_solver.default_options with time_limit = 5. }
        in
        let r = Cellsched.Milp_solver.solve ~options platform g in
        let solver_period = r.Cellsched.Milp_solver.period in
        let heuristic_ok =
          List.for_all
            (fun (name, m) ->
              (not (SS.feasible platform g m))
              || solver_period
                 <= SS.period platform (SS.loads platform g m) +. 1e-9
              ||
              (QCheck.Test.fail_reportf "solver (%g) worse than %s" solver_period name))
            (Cellsched.Heuristics.standard_candidates ~with_lp:false platform g)
        in
        (* 3. The solver's bound is consistent. *)
        if r.Cellsched.Milp_solver.lower_bound > solver_period +. 1e-9 then
          QCheck.Test.fail_reportf "bound above the incumbent"
        else if not (SS.feasible platform g r.Cellsched.Milp_solver.mapping) then
          QCheck.Test.fail_reportf "solver mapping infeasible"
        else begin
          (* 4. Simulation completes and respects the analytic bound. *)
          let metrics =
            Simulator.Runtime.run platform g r.Cellsched.Milp_solver.mapping
              ~instances:400
          in
          if metrics.Simulator.Runtime.instances <> 400 then
            QCheck.Test.fail_reportf "simulation incomplete"
          else if
            metrics.Simulator.Runtime.steady_throughput
            > (1.02 *. r.Cellsched.Milp_solver.throughput) +. 1e-9
          then
            QCheck.Test.fail_reportf "simulated %g beats the bound %g"
              metrics.Simulator.Runtime.steady_throughput
              r.Cellsched.Milp_solver.throughput
          else begin
            (* 5. Schedule view consistent with the analysis. *)
            let sched =
              Cellsched.Schedule.build platform g r.Cellsched.Milp_solver.mapping
            in
            let warm = Cellsched.Schedule.warmup_periods sched in
            let acts = Cellsched.Schedule.activities sched warm in
            if List.length acts <> G.n_tasks g then
              QCheck.Test.fail_reportf "not all tasks active after warmup"
            else heuristic_ok
          end
        end
      end)

let multi_cell_stack =
  QCheck.Test.make ~count:8 ~name:"dual-cell invariants on random apps"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, _ = random_setup (seed + 31) in
      let platform = P.qs22_dual () in
      let options =
        { Cellsched.Milp_solver.default_options with time_limit = 5. }
      in
      let r = Cellsched.Milp_solver.solve ~options platform g in
      let m = r.Cellsched.Milp_solver.mapping in
      if not (SS.feasible platform g m) then
        QCheck.Test.fail_reportf "dual-cell mapping infeasible"
      else begin
        (* The analytic period accounts for link traffic exactly. *)
        let l = SS.loads platform g m in
        let link_t =
          Float.max
            (Float.max l.SS.link_out.(0) l.SS.link_out.(1)
            /. platform.P.inter_cell_bw)
            (Float.max l.SS.link_in.(0) l.SS.link_in.(1)
            /. platform.P.inter_cell_bw)
        in
        if SS.period platform l < link_t -. 1e-12 then
          QCheck.Test.fail_reportf "period below the link time"
        else begin
          let metrics = Simulator.Runtime.run platform g m ~instances:300 in
          metrics.Simulator.Runtime.instances = 300
          && metrics.Simulator.Runtime.steady_throughput
             <= (1.02 /. SS.period platform l) +. 1e-9
        end
      end)

let exact_certification_end_to_end =
  QCheck.Test.make ~count:8 ~name:"solver mappings certify exactly vs the MILP"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, platform = random_setup (seed + 77) in
      let options =
        { Cellsched.Milp_solver.default_options with time_limit = 5. }
      in
      let r = Cellsched.Milp_solver.solve ~options platform g in
      let f = Cellsched.Milp_formulation.build_compact platform g in
      let x = f.Cellsched.Milp_formulation.encode r.Cellsched.Milp_solver.mapping in
      match Lp.Certify.check f.Cellsched.Milp_formulation.problem x with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "certification failed: %s" msg)

(* Case 9812 of [full_stack]: hardest-first branch and bound reached a
   leaf whose SPE2 sends 9 transfers to the PPE against a limit of 8.
   [can_place] counts each DMA queue against the placed neighbours one
   edge at a time, so only the leaf's feasibility check rejects it. *)
let test_bb_leaf_feasible () =
  let g, platform = random_setup 9812 in
  let options = { Cellsched.Milp_solver.default_options with time_limit = 5. } in
  let r = Cellsched.Milp_solver.solve ~options platform g in
  Alcotest.(check bool)
    "solver mapping feasible" true
    (SS.feasible platform g r.Cellsched.Milp_solver.mapping)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "integration"
    [
      ( "stack",
        [ qt full_stack; qt multi_cell_stack; qt exact_certification_end_to_end ] );
      ( "regressions",
        [
          Alcotest.test_case "B&B leaf over a DMA queue (case 9812)" `Quick
            test_bb_leaf_feasible;
        ] );
    ]
