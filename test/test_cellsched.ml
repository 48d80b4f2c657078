(* Tests for the core contribution: mappings, steady-state analysis, MILP
   formulations and solvers, heuristics, NP-completeness reduction. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state

let mk_task ?(peek = 0) ?(w_ppe = 1e-3) ?(w_spe = 2e-3) ?(read = 0.)
    ?(write = 0.) name =
  Streaming.Task.make ~name ~w_ppe ~w_spe ~peek ~read_bytes:read
    ~write_bytes:write ()

(* The paper's Figure 3 example: T1 -> T2 (D12), T1 -> T3 (D13),
   peek1 = peek2 = 0, peek3 = 1; T1 on PE1, T2 and T3 on PE2. *)
let figure3 () =
  let tasks =
    [| mk_task "T1"; mk_task "T2"; mk_task ~peek:1 "T3" |]
  in
  G.of_tasks tasks [ (0, 1, 1024.); (0, 2, 2048.) ]

let platform2 () = P.make ~n_ppe:1 ~n_spe:1 ()

(* --- mapping ------------------------------------------------------------ *)

let test_mapping_basics () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  Alcotest.(check int) "pe of T1" 0 (Cellsched.Mapping.pe m 0);
  Alcotest.(check (list int)) "tasks on SPE0" [ 1; 2 ]
    (Cellsched.Mapping.tasks_on m 1);
  Alcotest.(check (list int)) "used" [ 0; 1 ] (Cellsched.Mapping.used_pes m);
  Alcotest.(check bool) "remote edge" true
    (Cellsched.Mapping.is_remote m (G.edge g 0));
  let m2 = Cellsched.Mapping.all_on_ppe platform g in
  Alcotest.(check bool) "local edge" false
    (Cellsched.Mapping.is_remote m2 (G.edge g 0))

let test_mapping_validation () =
  let g = figure3 () in
  let platform = platform2 () in
  Alcotest.check_raises "arity" (Invalid_argument "Mapping.make: arity mismatch with the graph")
    (fun () -> ignore (Cellsched.Mapping.make platform g [| 0; 1 |]));
  Alcotest.check_raises "range" (Invalid_argument "Mapping.make: PE index out of range")
    (fun () -> ignore (Cellsched.Mapping.make platform g [| 0; 1; 5 |]))

(* --- steady state ------------------------------------------------------- *)

let test_first_periods_figure3 () =
  let g = figure3 () in
  let fp = (G.flat g).G.first_period in
  (* Paper formula: fp(T1) = 0; fp(T2) = 0 + peek2 + 2 = 2;
     fp(T3) = 0 + peek3 + 2 = 3. (The prose of §4.2 quotes 4 for T3, but
     the displayed recurrence yields 3; we implement the recurrence.) *)
  Alcotest.(check (array int)) "first periods" [| 0; 2; 3 |] fp

let test_first_periods_with_mapping () =
  let g = figure3 () in
  let platform = platform2 () in
  (* All tasks on the same PE: the communication period disappears. *)
  let m = Cellsched.Mapping.all_on_ppe platform g in
  let pe = Cellsched.Mapping.pe m in
  let colocated e = pe (G.edge g e).G.src = pe (G.edge g e).G.dst in
  let fp = G.first_periods ~colocated g in
  Alcotest.(check (array int)) "colocated" [| 0; 1; 2 |] fp

let test_buffer_sizes () =
  let g = figure3 () in
  let buff = (G.flat g).G.buffer in
  Alcotest.(check (float 0.)) "buff 1->2" (1024. *. 2.) buff.(0);
  Alcotest.(check (float 0.)) "buff 1->3" (2048. *. 3.) buff.(1)

let test_loads_and_period () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  let l = SS.loads platform g m in
  (* PPE0 computes T1 (w_ppe = 1 ms); SPE0 computes T2 and T3 (2 ms each). *)
  Alcotest.(check (float 1e-9)) "ppe compute" 1e-3 l.SS.compute.(0);
  Alcotest.(check (float 1e-9)) "spe compute" 4e-3 l.SS.compute.(1);
  (* Both edges are remote: 3 kB leave PPE0, 3 kB enter SPE0. *)
  Alcotest.(check (float 1e-9)) "ppe out" 3072. l.SS.bytes_out.(0);
  Alcotest.(check (float 1e-9)) "spe in" 3072. l.SS.bytes_in.(1);
  Alcotest.(check int) "spe dma in" 2 l.SS.dma_in.(1);
  (* SPE memory holds both in-buffers. *)
  Alcotest.(check (float 1e-9)) "spe memory" ((1024. *. 2.) +. (2048. *. 3.))
    l.SS.memory.(1);
  (* Compute dominates on this platform. *)
  Alcotest.(check (float 1e-12)) "period" 4e-3 (SS.period platform l);
  Alcotest.(check (float 1e-6)) "throughput" 250. (SS.throughput platform g m)

let test_memory_violation () =
  let big = 300. *. 1024. in
  let tasks = [| mk_task "a"; mk_task "b" |] in
  let g = G.of_tasks tasks [ (0, 1, big) ] in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  match SS.violations platform g m with
  | [ SS.Memory { pe = 1; _ } ] -> ()
  | v ->
      Alcotest.failf "expected a memory violation, got %d violations"
        (List.length v)

let test_dma_violations () =
  (* 17 producers on PPE feeding one SPE-hosted consumer: dma_in break. *)
  let producers = Array.init 17 (fun i -> mk_task (Printf.sprintf "p%d" i)) in
  let tasks = Array.append producers [| mk_task "sink" |] in
  let edges = List.init 17 (fun i -> (i, 17, 16.)) in
  let g = G.of_tasks tasks edges in
  let platform = platform2 () in
  let assignment = Array.make 18 0 in
  assignment.(17) <- 1;
  let m = Cellsched.Mapping.make platform g assignment in
  Alcotest.(check bool) "dma_in violated" true
    (List.exists (function SS.Dma_in _ -> true | _ -> false)
       (SS.violations platform g m));
  (* 9 SPE-hosted producers feeding PPE tasks: to-PPE break. *)
  let producers = Array.init 9 (fun i -> mk_task (Printf.sprintf "p%d" i)) in
  let consumers = Array.init 9 (fun i -> mk_task (Printf.sprintf "c%d" i)) in
  let g = G.of_tasks (Array.append producers consumers)
      (List.init 9 (fun i -> (i, 9 + i, 16.))) in
  let assignment = Array.init 18 (fun i -> if i < 9 then 1 else 0) in
  let m = Cellsched.Mapping.make platform g assignment in
  Alcotest.(check bool) "dma_to_ppe violated" true
    (List.exists (function SS.Dma_to_ppe _ -> true | _ -> false)
       (SS.violations platform g m))

let test_buffer_sharing_option () =
  let g = figure3 () in
  let platform = platform2 () in
  (* Everything on the SPE: colocated edges count once when sharing. *)
  let m = Cellsched.Mapping.make platform g (Array.make (G.n_tasks g) 1) in
  let base = (SS.loads platform g m).SS.memory.(1) in
  let shared =
    (SS.loads ~share_colocated_buffers:true platform g m).SS.memory.(1)
  in
  Alcotest.(check (float 1e-9)) "sharing halves colocated buffers" (base /. 2.) shared

let test_tight_pipeline_option () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g (Array.make (G.n_tasks g) 1) in
  let base = (SS.loads platform g m).SS.memory.(1) in
  let tight = (SS.loads ~tight_pipeline:true platform g m).SS.memory.(1) in
  Alcotest.(check bool) "tight pipeline shrinks buffers" true (tight < base)

let test_achieves () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  Alcotest.(check bool) "achieves its throughput" true
    (SS.achieves platform g m (SS.throughput platform g m));
  Alcotest.(check bool) "not more" false
    (SS.achieves platform g m (SS.throughput platform g m *. 1.01))

let test_interface_bound_period () =
  (* Tiny bandwidth platform: communication dominates the period. *)
  let platform = P.make ~n_ppe:1 ~n_spe:1 ~bw:1024. () in
  let tasks = [| mk_task "a"; mk_task "b" |] in
  let g = G.of_tasks tasks [ (0, 1, 512.) ] in
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  (* 512 B at 1 kB/s: 0.5 s per instance through each interface. *)
  Alcotest.(check (float 1e-9)) "comm-bound period" 0.5
    (SS.period platform (SS.loads platform g m))

let test_inter_cell_link () =
  (* Two tasks on different cells of a dual-Cell platform with a tiny BIF:
     the link dominates the period. *)
  let platform =
    P.make ~n_ppe:2 ~n_spe:2 ~n_cells:2 ~inter_cell_bw:1024. ()
  in
  let tasks = [| mk_task "a"; mk_task "b" |] in
  let g = G.of_tasks tasks [ (0, 1, 512.) ] in
  (* PE 0 = PPE0 (cell 0), PE 1 = PPE1 (cell 1). *)
  let m = Cellsched.Mapping.make platform g [| 0; 1 |] in
  let l = SS.loads platform g m in
  Alcotest.(check (float 1e-9)) "link out of cell 0" 512. l.SS.link_out.(0);
  Alcotest.(check (float 1e-9)) "link into cell 1" 512. l.SS.link_in.(1);
  (* 512 B over a 1 kB/s link: 0.5 s, far above the compute times. *)
  Alcotest.(check (float 1e-9)) "link-bound period" 0.5 (SS.period platform l);
  (* Same-cell placement avoids the link entirely. *)
  let m2 = Cellsched.Mapping.make platform g [| 0; 2 |] in
  let l2 = SS.loads platform g m2 in
  Alcotest.(check (float 1e-9)) "no link traffic" 0. l2.SS.link_out.(0)

let test_milp_avoids_slow_link () =
  (* With a pathologically slow BIF, the solver must colocate the chain on
     one cell even when that unbalances compute. *)
  let platform =
    P.make ~n_ppe:2 ~n_spe:2 ~n_cells:2 ~inter_cell_bw:10. ()
  in
  let tasks =
    Array.init 4 (fun i -> mk_task ~w_ppe:1e-3 ~w_spe:1e-3 (Printf.sprintf "t%d" i))
  in
  let g = Streaming.Graph.chain tasks ~data_bytes:1000. in
  let options =
    { Cellsched.Milp_solver.default_options with rel_gap = 0.; engine = Cellsched.Milp_solver.Exact }
  in
  let r = Cellsched.Milp_solver.solve ~options platform g in
  let m = r.Cellsched.Milp_solver.mapping in
  let cells =
    List.sort_uniq compare
      (List.init 4 (fun k -> P.cell_of platform (Cellsched.Mapping.pe m k)))
  in
  Alcotest.(check (list int)) "single cell used" [ List.hd cells ] cells

(* --- heuristics ---------------------------------------------------------- *)

let qs8 () = P.qs22 ()

let test_heuristics_feasible_on_presets () =
  let platform = qs8 () in
  List.iter
    (fun (name, g) ->
      let gm = Cellsched.Heuristics.greedy_mem platform g in
      let gc = Cellsched.Heuristics.greedy_cpu platform g in
      let memory_ok m =
        List.for_all
          (function SS.Memory _ -> false | _ -> true)
          (SS.violations platform g m)
      in
      Alcotest.(check bool) (name ^ " greedy-mem memory ok") true (memory_ok gm);
      Alcotest.(check bool) (name ^ " greedy-cpu memory ok") true (memory_ok gc))
    (Daggen.Presets.all_random ())

let test_ppe_only_always_feasible () =
  let platform = qs8 () in
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) name true
        (SS.feasible platform g (Cellsched.Heuristics.ppe_only platform g)))
    (Daggen.Presets.all_random ())

let test_local_search_improves () =
  let platform = qs8 () in
  let g = Daggen.Presets.random_graph_1 () in
  let start = Cellsched.Heuristics.ppe_only platform g in
  let improved = Cellsched.Heuristics.local_search platform g start in
  Alcotest.(check bool) "feasible" true (SS.feasible platform g improved);
  Alcotest.(check bool) "no worse" true
    (SS.throughput platform g improved >= SS.throughput platform g start -. 1e-9)

(* --- MILP formulations and solvers --------------------------------------- *)

let small_random_graph seed n =
  let rng = Support.Rng.create seed in
  let shape =
    { Daggen.Generator.n; fat = 0.6; density = 0.5; regularity = 0.5; jump = 2 }
  in
  Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs

(* Brute force: enumerate all mappings of [g] on [platform], return the
   optimal feasible period. *)
let brute_force_period platform g =
  let n = P.n_pes platform in
  let nk = G.n_tasks g in
  let assignment = Array.make nk 0 in
  let best = ref infinity in
  let rec enumerate k =
    if k = nk then begin
      let m = Cellsched.Mapping.make platform g assignment in
      if SS.feasible platform g m then
        best := Float.min !best (SS.period platform (SS.loads platform g m))
    end
    else
      for pe = 0 to n - 1 do
        assignment.(k) <- pe;
        enumerate (k + 1)
      done
  in
  enumerate 0;
  !best

let exact_solver_matches_brute_force =
  QCheck.Test.make ~count:100 ~name:"exact MILP matches brute force"
    QCheck.(pair (int_bound 10_000) (int_range 3 7))
    (fun (seed, n) ->
      let platform = P.make ~n_ppe:1 ~n_spe:2 () in
      let g = small_random_graph seed n in
      let expected = brute_force_period platform g in
      let options =
        { Cellsched.Milp_solver.default_options with rel_gap = 0.; engine = Cellsched.Milp_solver.Exact }
      in
      let r = Cellsched.Milp_solver.solve ~options platform g in
      if abs_float (r.Cellsched.Milp_solver.period -. expected) > 1e-9 *. expected +. 1e-12 then
        QCheck.Test.fail_reportf "solver %g vs brute force %g"
          r.Cellsched.Milp_solver.period expected
      else true)

let search_solver_matches_brute_force =
  QCheck.Test.make ~count:100 ~name:"search engine matches brute force (gap 0)"
    QCheck.(pair (int_bound 10_000) (int_range 3 7))
    (fun (seed, n) ->
      let platform = P.make ~n_ppe:1 ~n_spe:2 () in
      let g = small_random_graph (seed + 500) n in
      let expected = brute_force_period platform g in
      let options =
        { Cellsched.Milp_solver.default_options with rel_gap = 0.; engine = Cellsched.Milp_solver.Search }
      in
      let r = Cellsched.Milp_solver.solve ~options platform g in
      if abs_float (r.Cellsched.Milp_solver.period -. expected) > 1e-9 *. expected +. 1e-12 then
        QCheck.Test.fail_reportf "search %g vs brute force %g"
          r.Cellsched.Milp_solver.period expected
      else true)

let formulations_agree =
  QCheck.Test.make ~count:8 ~name:"full and compact formulations have equal optima"
    QCheck.(pair (int_bound 10_000) (int_range 3 5))
    (fun (seed, n) ->
      let platform = P.make ~n_ppe:1 ~n_spe:1 () in
      let g = small_random_graph (seed + 900) n in
      let solve build =
        let f = build platform g in
        let outcome =
          Lp.Branch_bound.solve
            ~options:{ Lp.Branch_bound.default_options with rel_gap = 0. }
            f.Cellsched.Milp_formulation.problem
        in
        match outcome.Lp.Branch_bound.best with
        | Some sol -> Some sol.Lp.Simplex.objective
        | None -> None
      in
      let full = solve (Cellsched.Milp_formulation.build_full ?share_colocated_buffers:None) in
      let compact = solve (Cellsched.Milp_formulation.build_compact ?share_colocated_buffers:None) in
      match (full, compact) with
      | Some a, Some b ->
          if abs_float (a -. b) > 1e-7 *. Float.max 1. (abs_float a) then
            QCheck.Test.fail_reportf "full %g vs compact %g" a b
          else true
      | None, None -> true
      | Some a, None -> QCheck.Test.fail_reportf "full %g, compact none" a
      | None, Some b -> QCheck.Test.fail_reportf "full none, compact %g" b)

let milp_beats_heuristics =
  QCheck.Test.make ~count:8 ~name:"MILP mapping at least as good as heuristics"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let platform = P.qs22 ~n_spe:4 () in
      let g = small_random_graph (seed + 1300) 12 in
      let r = Cellsched.Milp_solver.solve platform g in
      let heuristic_periods =
        List.filter_map
          (fun (_, m) ->
            if SS.feasible platform g m then
              Some (SS.period platform (SS.loads platform g m))
            else None)
          (Cellsched.Heuristics.standard_candidates ~with_lp:false platform g)
      in
      List.for_all
        (fun t -> r.Cellsched.Milp_solver.period <= t +. 1e-9)
        heuristic_periods
      && SS.feasible platform g r.Cellsched.Milp_solver.mapping
      && r.Cellsched.Milp_solver.lower_bound
         <= r.Cellsched.Milp_solver.period +. 1e-9)

let test_solver_on_paper_graph () =
  (* End-to-end on the real 50-task instance: terminates, feasible, beats
     every heuristic, and reports a consistent bound. *)
  let platform = qs8 () in
  let g = Daggen.Presets.random_graph_1 () in
  let options =
    { Cellsched.Milp_solver.default_options with time_limit = 10. }
  in
  let r = Cellsched.Milp_solver.solve ~options platform g in
  Alcotest.(check bool) "feasible" true
    (SS.feasible platform g r.Cellsched.Milp_solver.mapping);
  Alcotest.(check bool) "bound <= period" true
    (r.Cellsched.Milp_solver.lower_bound <= r.Cellsched.Milp_solver.period +. 1e-12);
  let gm = Cellsched.Heuristics.greedy_mem platform g in
  if SS.feasible platform g gm then
    Alcotest.(check bool) "beats greedy-mem" true
      (r.Cellsched.Milp_solver.throughput >= SS.throughput platform g gm -. 1e-9)

(* --- warm start / decode round trip -------------------------------------- *)

let warm_start_roundtrip =
  QCheck.Test.make ~count:20 ~name:"warm start encodes and decodes mappings"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let platform = P.make ~n_ppe:1 ~n_spe:3 () in
      let g = small_random_graph (seed + 2100) n in
      let rng = Support.Rng.create seed in
      let m = Cellsched.Heuristics.random ~rng platform g in
      let f = Cellsched.Milp_formulation.build_compact platform g in
      let x = Cellsched.Milp_formulation.warm_start f platform g m in
      let m' = Cellsched.Milp_formulation.mapping_of_solution f platform g x in
      Cellsched.Mapping.to_array m = Cellsched.Mapping.to_array m')

let test_bottleneck () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  (match SS.bottleneck platform (SS.loads platform g m) with
  | SS.Compute 1, t -> Alcotest.(check (float 1e-12)) "spe compute" 4e-3 t
  | r, _ ->
      Alcotest.failf "unexpected bottleneck: %s"
        (Format.asprintf "%a" (SS.pp_resource platform) r));
  (* Comm-bound variant. *)
  let tiny_bw = P.make ~n_ppe:1 ~n_spe:1 ~bw:1024. () in
  match SS.bottleneck tiny_bw (SS.loads tiny_bw g m) with
  | (SS.Interface_in _ | SS.Interface_out _), _ -> ()
  | r, _ ->
      Alcotest.failf "expected an interface bottleneck, got %s"
        (Format.asprintf "%a" (SS.pp_resource tiny_bw) r)

let test_ppe_speedup_scaling () =
  (* A 2x-faster PPE halves the PPE compute load. *)
  let g = figure3 () in
  let fast = P.make ~n_ppe:1 ~n_spe:1 ~ppe_speedup:2.0 () in
  let slow = platform2 () in
  let m = Cellsched.Mapping.all_on_ppe slow g in
  let lf = SS.loads fast g (Cellsched.Mapping.all_on_ppe fast g) in
  let ls = SS.loads slow g m in
  Alcotest.(check (float 1e-12)) "halved" (ls.SS.compute.(0) /. 2.) lf.SS.compute.(0)

let test_mapping_pp () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  let rendered = Format.asprintf "%a" (Cellsched.Mapping.pp platform g) m in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "shows PPE0" true (contains "PPE0: T1");
  Alcotest.(check bool) "shows SPE0" true (contains "SPE0: T2 T3")

let test_zero_spe_solver () =
  (* With no SPEs the only mapping is PPE-only, and the solver proves it. *)
  let platform = P.qs22 ~n_spe:0 () in
  let g = Daggen.Presets.figure_2b () in
  let r = Cellsched.Milp_solver.solve platform g in
  Alcotest.(check bool) "everything on ppe" true
    (Cellsched.Mapping.to_array r.Cellsched.Milp_solver.mapping
    = Cellsched.Mapping.to_array (Cellsched.Heuristics.ppe_only platform g));
  Alcotest.(check (float 1e-9)) "period is the ppe work"
    (Streaming.Graph.total_work g Cell.Platform.PPE)
    r.Cellsched.Milp_solver.period

let test_chain_dp_single_task () =
  let g = G.of_tasks [| mk_task "only" |] [] in
  let platform = platform2 () in
  Alcotest.(check bool) "single task is a chain" true (Cellsched.Chain_dp.is_chain g);
  match Cellsched.Chain_dp.solve platform g with
  | Some m -> Alcotest.(check bool) "feasible" true (SS.feasible platform g m)
  | None -> Alcotest.fail "unsolved"

(* --- chain interval DP ---------------------------------------------------- *)

let test_chain_dp_detects_chains () =
  let chain = Daggen.Presets.random_graph_3 () in
  Alcotest.(check bool) "chain detected" true (Cellsched.Chain_dp.is_chain chain);
  let dag = Daggen.Presets.figure_2b () in
  Alcotest.(check bool) "dag rejected" false (Cellsched.Chain_dp.is_chain dag);
  let platform = qs8 () in
  Alcotest.(check bool) "solve returns none on dags" true
    (Cellsched.Chain_dp.solve platform dag = None)

let test_chain_dp_feasible_and_strong () =
  let platform = qs8 () in
  let g = Daggen.Presets.random_graph_3 () in
  match Cellsched.Chain_dp.solve platform g with
  | None -> Alcotest.fail "chain not solved"
  | Some m ->
      Alcotest.(check bool) "feasible" true (SS.feasible platform g m);
      let thr = SS.throughput platform g m in
      let ppe = SS.throughput platform g (Cellsched.Heuristics.ppe_only platform g) in
      Alcotest.(check bool) "beats ppe-only" true (thr >= ppe -. 1e-9)

let chain_dp_never_beats_brute_force =
  QCheck.Test.make ~count:100 ~name:"interval DP is valid (>= global optimum period)"
    QCheck.(pair (int_bound 10_000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Support.Rng.create (seed + 7000) in
      let g =
        Daggen.Generator.generate_chain ~rng ~n ~costs:Daggen.Generator.default_costs
      in
      let platform = P.make ~n_ppe:1 ~n_spe:2 () in
      match Cellsched.Chain_dp.solve platform g with
      | None -> QCheck.Test.fail_reportf "chain not recognized"
      | Some m ->
          if not (SS.feasible platform g m) then
            QCheck.Test.fail_reportf "infeasible mapping"
          else begin
            let period = SS.period platform (SS.loads platform g m) in
            let optimum = brute_force_period platform g in
            (* Interval mappings are a restriction: never better than the
               global optimum, and never worse than PPE-only. *)
            let ppe_only =
              SS.period platform
                (SS.loads platform g (Cellsched.Heuristics.ppe_only platform g))
            in
            if period < optimum -. 1e-9 then
              QCheck.Test.fail_reportf "beats the optimum?! %g < %g" period optimum
            else if period > ppe_only +. 1e-9 then
              QCheck.Test.fail_reportf "worse than PPE-only: %g > %g" period ppe_only
            else true
          end)

let shared_solver_respects_shared_memory =
  QCheck.Test.make ~count:10
    ~name:"search with buffer sharing stays feasible under the shared model"
    QCheck.(int_bound 10_000)
    (fun seed ->
      (* Memory-tight platform so the sharing actually matters. *)
      let platform = P.make ~n_ppe:1 ~n_spe:3 ~local_store:(96 * 1024) () in
      let g = small_random_graph (seed + 6100) 14 in
      let options =
        {
          Cellsched.Milp_solver.default_options with
          time_limit = 3.;
          engine = Cellsched.Milp_solver.Search;
          share_colocated_buffers = true;
        }
      in
      let r = Cellsched.Milp_solver.solve ~options platform g in
      if
        not
          (SS.feasible ~share_colocated_buffers:true platform g
             r.Cellsched.Milp_solver.mapping)
      then QCheck.Test.fail_reportf "mapping overflows the shared-model budget"
      else begin
        (* The reported period must match the shared-model analysis. *)
        let t =
          SS.period platform
            (SS.loads ~share_colocated_buffers:true platform g
               r.Cellsched.Milp_solver.mapping)
        in
        abs_float (t -. r.Cellsched.Milp_solver.period) <= 1e-12 *. Float.max 1. t
      end)

let encoded_mappings_certify_exactly =
  QCheck.Test.make ~count:20
    ~name:"encoded mappings satisfy both MILPs (exact certification)"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let platform = P.make ~n_ppe:1 ~n_spe:2 () in
      let g = small_random_graph (seed + 4200) n in
      let rng = Support.Rng.create (seed + 1) in
      (* A feasible mapping: fall back to PPE-only if the random one is
         infeasible. *)
      let m =
        let candidate = Cellsched.Heuristics.random ~rng platform g in
        if SS.feasible platform g candidate then candidate
        else Cellsched.Heuristics.ppe_only platform g
      in
      let check build label =
        let f = build platform g in
        let x = f.Cellsched.Milp_formulation.encode m in
        match Lp.Certify.check f.Cellsched.Milp_formulation.problem x with
        | Ok () -> true
        | Error msg -> QCheck.Test.fail_reportf "%s: %s" label msg
      in
      check
        (fun p g -> Cellsched.Milp_formulation.build_compact p g)
        "compact"
      && check
           (fun p g -> Cellsched.Milp_formulation.build_full p g)
           "full"
      && check
           (fun p g ->
             Cellsched.Milp_formulation.build_compact
               ~share_colocated_buffers:true p g)
           "compact+sharing")

(* Oracle: enumerate every mapping that places at most [n_spe] disjoint
   contiguous intervals of the chain on distinct SPEs (rest on the PPE) and
   return the minimal DP-model cost: max(PPE work, per-interval SPE work),
   with every interval's buffer footprint within the local store. *)
let interval_oracle platform g =
  let n = Streaming.Graph.n_tasks g in
  let order =
    (* Chain order = topological order for a chain. *)
    Streaming.Graph.topological_order g
  in
  let w_ppe k = (Streaming.Graph.task g k).Streaming.Task.w_ppe in
  let w_spe k = (Streaming.Graph.task g k).Streaming.Task.w_spe in
  let buff = (G.flat g).G.buffer in
  let mem k =
    let sum = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
    sum (Streaming.Graph.out_edges g k) +. sum (Streaming.Graph.in_edges g k)
  in
  let budget = float_of_int (P.spe_memory_budget platform) in
  let n_spe = List.length (P.spes platform) in
  let best = ref infinity in
  (* intervals: list of (start, stop) inclusive positions, disjoint,
     increasing. Enumerate recursively. *)
  let rec enumerate from intervals count =
    (* Evaluate the current interval set. *)
    let on_spe = Array.make n false in
    let ok = ref true in
    let spe_max = ref 0. in
    List.iter
      (fun (a, b) ->
        let work = ref 0. and m = ref 0. in
        for pos = a to b do
          on_spe.(pos) <- true;
          work := !work +. w_spe order.(pos);
          m := !m +. mem order.(pos)
        done;
        if !m > budget +. 1e-9 then ok := false;
        spe_max := Float.max !spe_max !work)
      intervals;
    if !ok then begin
      let ppe = ref 0. in
      for pos = 0 to n - 1 do
        if not on_spe.(pos) then ppe := !ppe +. w_ppe order.(pos)
      done;
      best := Float.min !best (Float.max !ppe !spe_max)
    end;
    if count < n_spe then
      for a = from to n - 1 do
        for b = a to n - 1 do
          enumerate (b + 2) ((a, b) :: intervals) (count + 1)
        done
      done
  in
  enumerate 0 [] 0;
  !best

let chain_dp_matches_interval_oracle =
  QCheck.Test.make ~count:15 ~name:"chain DP is optimal among interval mappings"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = Support.Rng.create (seed + 8800) in
      let g =
        Daggen.Generator.generate_chain ~rng ~n ~costs:Daggen.Generator.default_costs
      in
      let platform = P.make ~n_ppe:1 ~n_spe:2 () in
      match Cellsched.Chain_dp.solve platform g with
      | None -> QCheck.Test.fail_reportf "chain not recognized"
      | Some m ->
          (* Cost of the DP's mapping under the DP model. *)
          let w k cls = Streaming.Task.w (Streaming.Graph.task g k) cls in
          let ppe = ref 0. and spe = Array.make (P.n_pes platform) 0. in
          for k = 0 to n - 1 do
            let pe = Cellsched.Mapping.pe m k in
            if P.is_ppe platform pe then ppe := !ppe +. w k Cell.Platform.PPE
            else spe.(pe) <- spe.(pe) +. w k Cell.Platform.SPE
          done;
          let cost = Array.fold_left Float.max !ppe spe in
          let oracle = interval_oracle platform g in
          if cost > oracle +. 1e-9 then
            QCheck.Test.fail_reportf "DP cost %g, interval oracle %g" cost oracle
          else true)

(* --- NP-completeness reduction ------------------------------------------ *)

let test_np_reduction_exhaustive () =
  (* All allocations of all small instances: the two feasibility notions
     coincide (Theorem 1). *)
  let rng = Support.Rng.create 11 in
  for _ = 1 to 40 do
    let n = 1 + Support.Rng.int rng 5 in
    let lengths =
      Array.init n (fun _ ->
          ( Support.Rng.float_in rng 0.1 2.0,
            Support.Rng.float_in rng 0.1 2.0 ))
    in
    let bound = Support.Rng.float_in rng 0.5 4.0 in
    let inst = { Cellsched.Np_reduction.lengths; bound } in
    let allocation = Array.make n 0 in
    let rec enumerate k =
      if k = n then begin
        let direct = Cellsched.Np_reduction.mms_feasible inst allocation in
        let via_cell = Cellsched.Np_reduction.cell_feasible inst allocation in
        if direct <> via_cell then
          Alcotest.failf "reduction mismatch: direct=%b cell=%b" direct via_cell
      end
      else begin
        allocation.(k) <- 0;
        enumerate (k + 1);
        allocation.(k) <- 1;
        enumerate (k + 1)
      end
    in
    enumerate 0
  done

let test_np_reduction_mapping_roundtrip () =
  let inst =
    { Cellsched.Np_reduction.lengths = [| (1., 2.); (3., 1.) |]; bound = 3. }
  in
  let allocation = [| 0; 1 |] in
  let _, mapping = Cellsched.Np_reduction.mapping_of_allocation inst allocation in
  Alcotest.(check (array int)) "roundtrip" allocation
    (Cellsched.Np_reduction.allocation_of_mapping mapping)

(* --- replication (paper 3.1 general mappings) ----------------------------- *)

let test_replication_degenerate () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  let r = Cellsched.Replication.of_mapping platform g m in
  let a = SS.loads platform g m in
  let b = Cellsched.Replication.loads platform g r in
  Alcotest.(check (array (float 1e-9))) "compute" a.SS.compute b.SS.compute;
  Alcotest.(check (array (float 1e-9))) "in" a.SS.bytes_in b.SS.bytes_in;
  Alcotest.(check (array (float 1e-9))) "out" a.SS.bytes_out b.SS.bytes_out;
  Alcotest.(check (array (float 1e-9))) "memory" a.SS.memory b.SS.memory

let test_replication_validation () =
  let g = figure3 () in
  let platform = platform2 () in
  let rejected spec =
    try
      ignore (Cellsched.Replication.make platform g spec);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty" true (rejected [| []; [ 0 ]; [ 1 ] |]);
  Alcotest.(check bool) "dup" true (rejected [| [ 0; 0 ]; [ 0 ]; [ 1 ] |]);
  Alcotest.(check bool) "range" true (rejected [| [ 9 ]; [ 0 ]; [ 1 ] |]);
  let stateful =
    G.of_tasks
      [| { (mk_task "s") with Streaming.Task.stateful = true }; mk_task "t" |]
      [ (0, 1, 10.) ]
  in
  Alcotest.(check bool) "stateful" true
    (try
       ignore (Cellsched.Replication.make platform stateful [| [ 0; 1 ]; [ 0 ] |]);
       false
     with Invalid_argument _ -> true)

let test_replication_splits_compute () =
  let g = G.of_tasks [| mk_task ~w_spe:4e-3 "solo" |] [] in
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  let r = Cellsched.Replication.make platform g [| [ 1; 2 ] |] in
  let l = Cellsched.Replication.loads platform g r in
  Alcotest.(check (float 1e-9)) "half each" 2e-3 l.SS.compute.(1);
  Alcotest.(check (float 1e-9)) "half each" 2e-3 l.SS.compute.(2)

let test_replication_peek_duplication () =
  (* Producer feeds a peek-1 consumer replicated on two SPEs: every data
     instance must reach both replicas (the paper's argument against
     replicating peeking tasks). *)
  let g =
    G.of_tasks [| mk_task "prod"; mk_task ~peek:1 "cons" |] [ (0, 1, 1000.) ]
  in
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  let r = Cellsched.Replication.make platform g [| [ 0 ]; [ 1; 2 ] |] in
  Alcotest.(check (float 1e-9)) "two remote copies" 2.
    (Cellsched.Replication.duplication_factor g r 0);
  (* Without peek, round-robin ships exactly one copy per instance. *)
  let g' = G.of_tasks [| mk_task "prod"; mk_task "cons" |] [ (0, 1, 1000.) ] in
  let r' = Cellsched.Replication.make platform g' [| [ 0 ]; [ 1; 2 ] |] in
  Alcotest.(check (float 1e-9)) "one copy" 1.
    (Cellsched.Replication.duplication_factor g' r' 0)

let test_replication_colocated_copies_free () =
  let g = G.of_tasks [| mk_task "prod"; mk_task "cons" |] [ (0, 1, 1000.) ] in
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  (* Producer and consumer share the replica pattern: always colocated. *)
  let r = Cellsched.Replication.make platform g [| [ 1; 2 ]; [ 1; 2 ] |] in
  Alcotest.(check (float 1e-9)) "no remote copies" 0.
    (Cellsched.Replication.duplication_factor g r 0)

(* --- schedule ------------------------------------------------------------ *)

let test_schedule () =
  let g = figure3 () in
  let platform = platform2 () in
  let m = Cellsched.Mapping.make platform g [| 0; 1; 1 |] in
  let sched = Cellsched.Schedule.build platform g m in
  Alcotest.(check int) "warmup" 3 (Cellsched.Schedule.warmup_periods sched);
  Alcotest.(check int) "fp T3" 3 (Cellsched.Schedule.first_period sched 2);
  (* Period 0: only T1, instance 0. *)
  (match Cellsched.Schedule.activities sched 0 with
  | [ { Cellsched.Schedule.task = 0; instance = 0 } ] -> ()
  | acts -> Alcotest.failf "period 0 has %d activities" (List.length acts));
  (* Period 3: T1[3], T2[1], T3[0]. *)
  let acts = Cellsched.Schedule.activities sched 3 in
  Alcotest.(check int) "period 3 activities" 3 (List.length acts);
  List.iter
    (fun { Cellsched.Schedule.task; instance } ->
      let expected = match task with 0 -> 3 | 1 -> 1 | 2 -> 0 | _ -> -1 in
      Alcotest.(check int) "instance" expected instance)
    acts;
  (* Transfers during period 1: D(T1,-) instance 0 on both edges. *)
  let tr = Cellsched.Schedule.transfers sched 1 in
  Alcotest.(check int) "transfers" 2 (List.length tr);
  List.iter
    (fun { Cellsched.Schedule.instance; src_pe; dst_pe; _ } ->
      Alcotest.(check int) "instance 0" 0 instance;
      Alcotest.(check int) "from PPE" 0 src_pe;
      Alcotest.(check int) "to SPE" 1 dst_pe)
    tr;
  Alcotest.(check int) "latency" 4 (Cellsched.Schedule.instance_latency sched)

let first_periods_monotone =
  QCheck.Test.make ~count:60 ~name:"firstPeriod increases along edges"
    QCheck.(pair (int_bound 10_000) (int_range 2 40))
    (fun (seed, n) ->
      let g = small_random_graph (seed + 3000) n in
      let fp = (G.flat g).G.first_period in
      Array.for_all
        (fun { G.src; dst; _ } -> fp.(dst) >= fp.(src) + 2)
        (Array.init (G.n_edges g) (G.edge g)))

let period_equals_max_resource =
  QCheck.Test.make ~count:60 ~name:"period is the max resource occupation"
    QCheck.(pair (int_bound 10_000) (int_range 2 30))
    (fun (seed, n) ->
      let platform = P.qs22 ~n_spe:4 () in
      let g = small_random_graph (seed + 4000) n in
      let rng = Support.Rng.create (seed * 3) in
      let m = Cellsched.Heuristics.random ~rng platform g in
      let l = SS.loads platform g m in
      let period = SS.period platform l in
      let ok = ref true in
      for pe = 0 to P.n_pes platform - 1 do
        if l.SS.compute.(pe) > period +. 1e-12 then ok := false;
        if l.SS.bytes_in.(pe) /. platform.P.bw > period +. 1e-12 then ok := false;
        if l.SS.bytes_out.(pe) /. platform.P.bw > period +. 1e-12 then ok := false
      done;
      !ok && period >= 0.)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "cellsched"
    [
      ( "mapping",
        [
          Alcotest.test_case "basics" `Quick test_mapping_basics;
          Alcotest.test_case "validation" `Quick test_mapping_validation;
        ] );
      ( "steady-state",
        [
          Alcotest.test_case "firstPeriod (fig 3)" `Quick test_first_periods_figure3;
          Alcotest.test_case "firstPeriod with mapping" `Quick test_first_periods_with_mapping;
          Alcotest.test_case "buffer sizes" `Quick test_buffer_sizes;
          Alcotest.test_case "loads and period" `Quick test_loads_and_period;
          Alcotest.test_case "memory violation" `Quick test_memory_violation;
          Alcotest.test_case "dma violations" `Quick test_dma_violations;
          Alcotest.test_case "buffer sharing" `Quick test_buffer_sharing_option;
          Alcotest.test_case "tight pipeline" `Quick test_tight_pipeline_option;
          Alcotest.test_case "achieves" `Quick test_achieves;
          Alcotest.test_case "interface-bound period" `Quick test_interface_bound_period;
          Alcotest.test_case "bottleneck" `Quick test_bottleneck;
          Alcotest.test_case "ppe speedup" `Quick test_ppe_speedup_scaling;
          Alcotest.test_case "inter-cell link" `Quick test_inter_cell_link;
          Alcotest.test_case "milp avoids slow link" `Quick test_milp_avoids_slow_link;
          qt first_periods_monotone;
          qt period_equals_max_resource;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "mapping pp" `Quick test_mapping_pp;
          Alcotest.test_case "zero-spe solver" `Quick test_zero_spe_solver;
          Alcotest.test_case "memory-safe on presets" `Quick test_heuristics_feasible_on_presets;
          Alcotest.test_case "ppe-only feasible" `Quick test_ppe_only_always_feasible;
          Alcotest.test_case "local search improves" `Quick test_local_search_improves;
        ] );
      ( "milp",
        [
          qt exact_solver_matches_brute_force;
          qt search_solver_matches_brute_force;
          qt formulations_agree;
          qt milp_beats_heuristics;
          qt warm_start_roundtrip;
          qt shared_solver_respects_shared_memory;
          qt encoded_mappings_certify_exactly;
          Alcotest.test_case "paper graph end-to-end" `Slow test_solver_on_paper_graph;
        ] );
      ( "chain-dp",
        [
          Alcotest.test_case "chain detection" `Quick test_chain_dp_detects_chains;
          Alcotest.test_case "single task" `Quick test_chain_dp_single_task;
          Alcotest.test_case "feasible and strong" `Quick test_chain_dp_feasible_and_strong;
          qt chain_dp_never_beats_brute_force;
          qt chain_dp_matches_interval_oracle;
        ] );
      ( "np-reduction",
        [
          Alcotest.test_case "exhaustive equivalence" `Quick test_np_reduction_exhaustive;
          Alcotest.test_case "mapping roundtrip" `Quick test_np_reduction_mapping_roundtrip;
        ] );
      ( "replication",
        [
          Alcotest.test_case "degenerate equals steady-state" `Quick test_replication_degenerate;
          Alcotest.test_case "validation" `Quick test_replication_validation;
          Alcotest.test_case "splits compute" `Quick test_replication_splits_compute;
          Alcotest.test_case "peek duplication" `Quick test_replication_peek_duplication;
          Alcotest.test_case "colocated copies free" `Quick test_replication_colocated_copies_free;
        ] );
      ("schedule", [ Alcotest.test_case "figure 3" `Quick test_schedule ]);
    ]
