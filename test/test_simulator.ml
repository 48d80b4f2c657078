(* Tests for the discrete-event Cell simulator. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state
module R = Simulator.Runtime

let mk_task ?(peek = 0) ?(w_ppe = 1e-3) ?(w_spe = 2e-3) name =
  Streaming.Task.make ~name ~w_ppe ~w_spe ~peek ()

let no_overhead =
  {
    R.overhead_fraction = 0.;
    dma_setup_time = 0.;
    comm_cpu_time = 0.;
    peek_flush = true;
  }

let test_single_task () =
  let g = G.of_tasks [| mk_task ~w_ppe:1e-3 "only" |] [] in
  let platform = P.make ~n_ppe:1 ~n_spe:0 () in
  let m = Cellsched.Mapping.all_on_ppe platform g in
  let metrics = R.run ~options:no_overhead platform g m ~instances:100 in
  Alcotest.(check int) "instances" 100 metrics.R.instances;
  Alcotest.(check (float 1e-9)) "makespan = n * w" 0.1 metrics.R.makespan;
  Alcotest.(check (float 1e-3)) "throughput" 1000. metrics.R.steady_throughput

let test_chain_pipeline () =
  (* Two 1 ms tasks on two PEs: steady state must pipeline at ~1000/s, not
     serialize at 500/s. *)
  let g =
    G.of_tasks [| mk_task ~w_ppe:1e-3 ~w_spe:1e-3 "a"; mk_task ~w_ppe:1e-3 ~w_spe:1e-3 "b" |]
      [ (0, 1, 1024.) ]
  in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run ~options:no_overhead platform g m ~instances:2000 in
  let predicted = SS.throughput platform g m in
  Alcotest.(check bool) "pipelines" true
    (metrics.R.steady_throughput > 0.9 *. predicted);
  Alcotest.(check bool) "does not exceed the bound" true
    (metrics.R.steady_throughput <= 1.02 *. predicted)

let test_overhead_gap () =
  (* With the default 5% overhead, steady state lands near 95% of the
     prediction — the paper's §6.4.1 observation. *)
  let g = Daggen.Presets.figure_2b () in
  let platform = P.qs22 ~n_spe:4 () in
  let r = Cellsched.Milp_solver.solve platform g in
  let metrics =
    R.run platform g r.Cellsched.Milp_solver.mapping ~instances:3000
  in
  let ratio =
    metrics.R.steady_throughput /. r.Cellsched.Milp_solver.throughput
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f in [0.85, 1.0]" ratio)
    true
    (ratio > 0.85 && ratio <= 1.0 +. 1e-9)

let test_completion_times_monotone () =
  let g = Daggen.Presets.two_filter_chain () in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run platform g m ~instances:500 in
  let ok = ref true in
  for i = 1 to 499 do
    if metrics.R.completion_times.(i) < metrics.R.completion_times.(i - 1) then
      ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok

let test_ramp_up () =
  (* Cumulative throughput rises towards the steady plateau (Fig. 6). *)
  let g = Daggen.Presets.random_graph_1 () in
  let platform = P.qs22 () in
  let m = Cellsched.Heuristics.density_pack platform g in
  let m = if SS.feasible platform g m then m else Cellsched.Heuristics.ppe_only platform g in
  let metrics = R.run platform g m ~instances:4000 in
  let curve = R.throughput_curve metrics ~points:20 in
  let early = snd (List.nth curve 0) in
  let late = snd (List.nth curve (List.length curve - 1)) in
  Alcotest.(check bool) "ramps up" true (late > early);
  Alcotest.(check bool) "approaches steady" true
    (late > 0.8 *. metrics.R.steady_throughput)

let test_peek_stream_flush () =
  (* A peek=2 consumer still finishes a finite stream. *)
  let g =
    G.of_tasks [| mk_task "src"; mk_task ~peek:2 "snk" |] [ (0, 1, 64.) ]
  in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run platform g m ~instances:50 in
  Alcotest.(check int) "all done" 50 metrics.R.instances

let test_memory_rejection () =
  let g =
    G.of_tasks [| mk_task "a"; mk_task "b" |] [ (0, 1, 300. *. 1024.) ]
  in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (R.run platform g m ~instances:10);
       false
     with Invalid_argument _ -> true)

let test_dma_pressure_still_runs () =
  (* 20 PPE producers feeding one SPE consumer exceed the 16-slot model
     constraint; the runtime must still finish by queuing transfers. *)
  let producers = Array.init 20 (fun i -> mk_task (Printf.sprintf "p%d" i)) in
  let tasks = Array.append producers [| mk_task "sink" |] in
  let g = G.of_tasks tasks (List.init 20 (fun i -> (i, 20, 64.))) in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let assignment = Array.make 21 0 in
  assignment.(20) <- 1;
  let m = Cellsched.Mapping.make platform g assignment in
  Alcotest.(check bool) "model flags dma" true
    (List.exists (function SS.Dma_in _ -> true | _ -> false)
       (SS.violations platform g m));
  let metrics = R.run platform g m ~instances:50 in
  Alcotest.(check int) "completes anyway" 50 metrics.R.instances

let test_transfers_counted () =
  let g = Daggen.Presets.figure_2b () in
  (* Roomy local store: the alternating mapping is deliberately bad. *)
  let platform = P.make ~n_ppe:1 ~n_spe:1 ~local_store:(2 * 1024 * 1024) () in
  (* Alternate tasks between the two PEs: every edge is remote. *)
  let assignment = Array.init (G.n_tasks g) (fun k -> k mod 2) in
  let m = Cellsched.Mapping.make platform g assignment in
  let remote_edges =
    List.init (G.n_edges g) (G.edge g)
    |> List.filter (fun e -> Cellsched.Mapping.is_remote m e)
    |> List.length
  in
  let n = 100 in
  let metrics = R.run platform g m ~instances:n in
  Alcotest.(check int) "one transfer per remote edge per instance"
    (remote_edges * n) metrics.R.transfers

let test_colocated_needs_no_transfers () =
  let g = Daggen.Presets.figure_2b () in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.all_on_ppe platform g in
  let metrics = R.run platform g m ~instances:100 in
  Alcotest.(check int) "no transfers" 0 metrics.R.transfers;
  Alcotest.(check (float 1e-6)) "no bytes" 0. metrics.R.bytes_transferred

let test_throughput_curve_shape () =
  let g = Daggen.Presets.two_filter_chain () in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run platform g m ~instances:1000 in
  let curve = R.throughput_curve metrics ~points:10 in
  Alcotest.(check bool) "enough points" true (List.length curve >= 10);
  let last_i, _ = List.nth curve (List.length curve - 1) in
  Alcotest.(check int) "ends at the stream end" 1000 last_i

(* Property: for random graphs and feasible mappings, the simulation
   completes and never beats the steady-state bound. *)
let simulation_respects_bound =
  QCheck.Test.make ~count:25 ~name:"simulated throughput <= predicted bound"
    QCheck.(pair (int_bound 10_000) (int_range 2 20))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let shape =
        { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
      in
      let g = Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs in
      let platform = P.qs22 ~n_spe:3 () in
      let m =
        match
          Cellsched.Heuristics.best_feasible platform g
            (Cellsched.Heuristics.standard_candidates ~with_lp:false platform g)
        with
        | Some (_, m) -> m
        | None -> Cellsched.Heuristics.ppe_only platform g
      in
      let metrics = R.run ~options:no_overhead platform g m ~instances:600 in
      let predicted = SS.throughput platform g m in
      if metrics.R.instances <> 600 then
        QCheck.Test.fail_reportf "incomplete: %d" metrics.R.instances
      else if metrics.R.steady_throughput > predicted *. 1.02 then
        QCheck.Test.fail_reportf "sim %g exceeds bound %g"
          metrics.R.steady_throughput predicted
      else true)

let engine_orders_events =
  QCheck.Test.make ~count:100 ~name:"engine pops events in time order"
    QCheck.(list (float_bound_exclusive 100.))
    (fun times ->
      let e = Simulator.Engine.create () in
      List.iter (fun t -> Simulator.Engine.schedule e t ()) times;
      let rec drain last acc =
        match Simulator.Engine.next e with
        | None -> List.rev acc
        | Some (t, ()) ->
            if t < last then raise Exit;
            drain t (t :: acc)
      in
      match drain neg_infinity [] with
      | popped -> List.length popped = List.length times
      | exception Exit -> false)

let test_zero_spe_run () =
  let g = Daggen.Presets.figure_2b () in
  let platform = P.qs22 ~n_spe:0 () in
  let m = Cellsched.Heuristics.ppe_only platform g in
  let metrics = R.run ~options:no_overhead platform g m ~instances:200 in
  (* Single PE: the period is exactly the total PPE work. *)
  let expected = 1. /. Streaming.Graph.total_work g P.PPE in
  Alcotest.(check bool) "close to serial rate" true
    (abs_float (metrics.R.steady_throughput -. expected) < 0.02 *. expected)

let test_bandwidth_bound_pipeline () =
  (* Tiny interface bandwidth: the link, not compute, paces the stream. *)
  let platform = P.make ~n_ppe:1 ~n_spe:1 ~bw:100_000. () in
  let g =
    G.of_tasks
      [| mk_task ~w_ppe:1e-5 ~w_spe:1e-5 "a"; mk_task ~w_ppe:1e-5 ~w_spe:1e-5 "b" |]
      [ (0, 1, 1000.) ]
  in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run ~options:no_overhead platform g m ~instances:400 in
  (* 1000 B at 100 kB/s = 10 ms per instance. *)
  Alcotest.(check bool) "paced by the interface" true
    (metrics.R.steady_throughput < 105. && metrics.R.steady_throughput > 80.)

let test_inter_cell_link_paces () =
  (* Cross-cell chain with a slow BIF: throughput limited by the link. *)
  let platform =
    P.make ~n_ppe:2 ~n_spe:2 ~n_cells:2 ~inter_cell_bw:100_000. ()
  in
  let g =
    G.of_tasks
      [| mk_task ~w_ppe:1e-5 ~w_spe:1e-5 "a"; mk_task ~w_ppe:1e-5 ~w_spe:1e-5 "b" |]
      [ (0, 1, 1000.) ]
  in
  (* PPE0 (cell 0) -> PPE1 (cell 1). *)
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let metrics = R.run ~options:no_overhead platform g m ~instances:400 in
  let predicted = Cellsched.Steady_state.throughput platform g m in
  Alcotest.(check bool) "predicted is link-bound (100/s)" true
    (abs_float (predicted -. 100.) < 1e-6);
  Alcotest.(check bool) "simulation respects it" true
    (metrics.R.steady_throughput <= predicted *. 1.02
    && metrics.R.steady_throughput > 0.8 *. predicted)

(* --- trace ----------------------------------------------------------------- *)

let test_trace_records () =
  let g = Daggen.Presets.two_filter_chain () in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let trace = Simulator.Trace.create () in
  let n = 50 in
  let metrics = R.run ~trace platform g m ~instances:n in
  let spans = Simulator.Trace.spans trace in
  let computes =
    List.length (List.filter (fun s -> s.Simulator.Trace.kind = `Compute) spans)
  in
  let transfers =
    List.length (List.filter (fun s -> s.Simulator.Trace.kind = `Transfer) spans)
  in
  Alcotest.(check int) "one compute span per task instance" (2 * n) computes;
  Alcotest.(check int) "one transfer span per remote instance" n transfers;
  List.iter
    (fun s ->
      Alcotest.(check bool) "well-formed span" true
        (s.Simulator.Trace.finish >= s.Simulator.Trace.start))
    spans;
  let busy =
    Simulator.Trace.busy_fraction trace ~n_pes:2
      ~horizon:metrics.R.makespan
  in
  Array.iter
    (fun f -> Alcotest.(check bool) "busy fraction sane" true (f >= 0. && f <= 1.01))
    busy

let test_trace_gantt () =
  let g = Daggen.Presets.two_filter_chain () in
  let platform = P.make ~n_ppe:1 ~n_spe:1 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let trace = Simulator.Trace.create () in
  ignore (R.run ~trace platform g m ~instances:50);
  let chart = Simulator.Trace.gantt ~width:60 platform trace in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "names PEs" true (contains "PPE0" chart && contains "SPE0" chart);
  Alcotest.(check bool) "shows compute" true (contains "#" chart);
  let svg = Simulator.Trace.to_svg platform trace in
  Alcotest.(check bool) "svg" true (contains "<svg" svg && contains "</svg>" svg)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "simulator"
    [
      ( "runtime",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "chain pipelines" `Quick test_chain_pipeline;
          Alcotest.test_case "overhead gap ~5%" `Quick test_overhead_gap;
          Alcotest.test_case "monotone completions" `Quick test_completion_times_monotone;
          Alcotest.test_case "ramp up" `Quick test_ramp_up;
          Alcotest.test_case "peek flush" `Quick test_peek_stream_flush;
          Alcotest.test_case "memory rejection" `Quick test_memory_rejection;
          Alcotest.test_case "dma pressure runs" `Quick test_dma_pressure_still_runs;
          Alcotest.test_case "transfer counting" `Quick test_transfers_counted;
          Alcotest.test_case "colocated no transfers" `Quick test_colocated_needs_no_transfers;
          Alcotest.test_case "throughput curve" `Quick test_throughput_curve_shape;
          Alcotest.test_case "zero-spe run" `Quick test_zero_spe_run;
          Alcotest.test_case "bandwidth bound" `Quick test_bandwidth_bound_pipeline;
          Alcotest.test_case "inter-cell link paces" `Quick test_inter_cell_link_paces;
          qt simulation_respects_bound;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records spans" `Quick test_trace_records;
          Alcotest.test_case "gantt and svg" `Quick test_trace_gantt;
        ] );
      ("engine", [ qt engine_orders_events ]);
    ]
