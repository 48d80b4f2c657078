(* Calibration probe (developer tool, not part of the public surface).

   Prints the Fig. 7/Fig. 8 shapes — simulated and predicted speed-ups for
   every strategy across SPE counts and CCR values — so that changes to the
   cost model (ops_per_second in Streaming.Ccr, Daggen cost ranges, simulator
   overheads) can be re-checked against the paper's target shapes quickly.
   See DESIGN.md section "Implementation notes" for the calibration story. *)

let simulate platform g m ~n =
  (Simulator.Runtime.run platform g m ~instances:n).Simulator.Runtime.steady_throughput

let solver_options =
  { Cellsched.Milp_solver.default_options with time_limit = 10. }

let speedups g ~ns_list =
  List.iter
    (fun ns ->
      let platform = Cell.Platform.qs22 ~n_spe:ns () in
      let base_map = Cellsched.Heuristics.ppe_only platform g in
      let base = simulate platform g base_map ~n:2000 in
      let gm = Cellsched.Heuristics.greedy_mem platform g in
      let gc = Cellsched.Heuristics.greedy_cpu platform g in
      let t0 = Unix.gettimeofday () in
      let milp =
        (Cellsched.Milp_solver.solve ~options:solver_options platform g)
          .Cellsched.Milp_solver.mapping
      in
      let dt = Unix.gettimeofday () -. t0 in
      let s m = simulate platform g m ~n:2000 /. base in
      let pred m =
        Cellsched.Steady_state.throughput platform g m
        /. Cellsched.Steady_state.throughput platform g base_map
      in
      Printf.printf "  nS=%d  gm=%.2f(%.2f) gc=%.2f(%.2f) lp=%.2f(%.2f) [%.1fs]\n%!"
        ns (s gm) (pred gm) (s gc) (pred gc) (s milp) (pred milp) dt)
    ns_list

let () =
  List.iter
    (fun (name, g) ->
      Printf.printf "%s: %d tasks %d edges\n%!" name
        (Streaming.Graph.n_tasks g)
        (Streaming.Graph.n_edges g);
      speedups g ~ns_list:[ 2; 4; 8 ])
    (Daggen.Presets.all_random ());
  print_endline "CCR sweep (graph1, nS=8), lp speedup sim(pred):";
  List.iter
    (fun ccr ->
      let g = Daggen.Presets.random_graph_1 ~ccr () in
      let platform = Cell.Platform.qs22 () in
      let base_map = Cellsched.Heuristics.ppe_only platform g in
      let base = simulate platform g base_map ~n:2000 in
      let milp =
        (Cellsched.Milp_solver.solve ~options:solver_options platform g)
          .Cellsched.Milp_solver.mapping
      in
      Printf.printf "  ccr=%.3f  lp=%.2f(%.2f)\n%!" ccr
        (simulate platform g milp ~n:2000 /. base)
        (Cellsched.Steady_state.throughput platform g milp
        /. Cellsched.Steady_state.throughput platform g base_map))
    Streaming.Ccr.paper_ccrs
