(* Tests for the DagGen-style generator and the paper's preset graphs. *)

let default_shape n =
  { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.6; jump = 2 }

let gen ?(seed = 1) shape =
  let rng = Support.Rng.create seed in
  Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs

let test_task_count () =
  List.iter
    (fun n ->
      let g = gen (default_shape n) in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) n (Streaming.Graph.n_tasks g))
    [ 1; 2; 10; 50; 94 ]

let test_determinism () =
  let a = gen ~seed:7 (default_shape 40) in
  let b = gen ~seed:7 (default_shape 40) in
  Alcotest.(check string) "same graph"
    (Streaming.Serialize.to_string a)
    (Streaming.Serialize.to_string b);
  let c = gen ~seed:8 (default_shape 40) in
  Alcotest.(check bool) "different seed" true
    (Streaming.Serialize.to_string a <> Streaming.Serialize.to_string c)

let test_connectivity () =
  (* Every non-first-layer task has at least one predecessor. *)
  let g = gen (default_shape 60) in
  let sources = Streaming.Graph.sources g in
  let first_layer =
    List.filter
      (fun k ->
        let name = (Streaming.Graph.task g k).Streaming.Task.name in
        String.length name > 3 && String.sub name 0 3 = "T0_")
      (List.init (Streaming.Graph.n_tasks g) Fun.id)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "source is in first layer" true (List.mem k first_layer))
    sources

let test_invalid_shapes () =
  let bad shape =
    match gen shape with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected rejection"
  in
  bad { (default_shape 0) with Daggen.Generator.n = 0 };
  bad { (default_shape 5) with Daggen.Generator.fat = 0. };
  bad { (default_shape 5) with Daggen.Generator.density = 1.5 };
  bad { (default_shape 5) with Daggen.Generator.regularity = -0.1 };
  bad { (default_shape 5) with Daggen.Generator.jump = 0 }

let test_chain_generator () =
  let rng = Support.Rng.create 3 in
  let g = Daggen.Generator.generate_chain ~rng ~n:50 ~costs:Daggen.Generator.default_costs in
  Alcotest.(check int) "tasks" 50 (Streaming.Graph.n_tasks g);
  Alcotest.(check int) "edges" 49 (Streaming.Graph.n_edges g);
  Alcotest.(check int) "depth" 50 (Streaming.Graph.depth g)

let test_memory_io () =
  let g = gen (default_shape 40) in
  let has_read =
    List.exists
      (fun k -> (Streaming.Graph.task g k).Streaming.Task.read_bytes > 0.)
      (Streaming.Graph.sources g)
  in
  let has_write =
    List.exists
      (fun k -> (Streaming.Graph.task g k).Streaming.Task.write_bytes > 0.)
      (Streaming.Graph.sinks g)
  in
  Alcotest.(check bool) "sources read" true has_read;
  Alcotest.(check bool) "sinks write" true has_write

let check_preset name g expected_tasks =
  Alcotest.(check int) (name ^ " tasks") expected_tasks (Streaming.Graph.n_tasks g);
  Alcotest.(check (float 1e-6)) (name ^ " ccr") 0.775 (Streaming.Ccr.compute g)

let test_presets () =
  check_preset "graph1" (Daggen.Presets.random_graph_1 ()) 50;
  check_preset "graph2" (Daggen.Presets.random_graph_2 ()) 94;
  check_preset "graph3" (Daggen.Presets.random_graph_3 ()) 50;
  Alcotest.(check int) "graph3 is a chain" 49
    (Streaming.Graph.n_edges (Daggen.Presets.random_graph_3 ()));
  Alcotest.(check int) "ccr variant"
    (Streaming.Graph.n_edges (Daggen.Presets.random_graph_1 ()))
    (Streaming.Graph.n_edges (Daggen.Presets.random_graph_1 ~ccr:4.6 ()))

let test_figure_graphs () =
  let g = Daggen.Presets.two_filter_chain () in
  Alcotest.(check int) "two filters" 2 (Streaming.Graph.n_tasks g);
  let g = Daggen.Presets.figure_2b () in
  Alcotest.(check int) "nine tasks" 9 (Streaming.Graph.n_tasks g);
  Alcotest.(check int) "depth" 5 (Streaming.Graph.depth g)

let test_audio_encoder () =
  let g = Daggen.Presets.audio_encoder () in
  (* framer + 8 filterbanks + psycho + bitalloc + 8 quantizers + packer *)
  Alcotest.(check int) "tasks" 20 (Streaming.Graph.n_tasks g);
  let psycho = Streaming.Graph.find_task g "psycho_model" in
  Alcotest.(check int) "psycho peeks" 1
    (Streaming.Graph.task g psycho).Streaming.Task.peek;
  Alcotest.(check (list int)) "single source"
    [ Streaming.Graph.find_task g "framer" ]
    (Streaming.Graph.sources g);
  Alcotest.(check (list int)) "single sink"
    [ Streaming.Graph.find_task g "bitstream_pack" ]
    (Streaming.Graph.sinks g)

let generated_graphs_are_dags =
  QCheck.Test.make ~count:100 ~name:"generated graphs are valid DAGs"
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let fat = 0.2 +. Support.Rng.float rng 1.5 in
      let density = Support.Rng.float rng 1.0 in
      let regularity = Support.Rng.float rng 1.0 in
      let jump = 1 + Support.Rng.int rng 4 in
      let g =
        Daggen.Generator.generate ~rng
          ~shape:{ Daggen.Generator.n; fat; density; regularity; jump }
          ~costs:Daggen.Generator.default_costs
      in
      (* Building validates acyclicity; check edge directions w.r.t. topo. *)
      let order = Streaming.Graph.topological_order g in
      let pos = Array.make n 0 in
      Array.iteri (fun i k -> pos.(k) <- i) order;
      Array.for_all
        (fun { Streaming.Graph.src; dst; _ } -> pos.(src) < pos.(dst))
        (Array.init (Streaming.Graph.n_edges g) (Streaming.Graph.edge g))
      && Streaming.Graph.n_tasks g = n)

let costs_within_ranges =
  QCheck.Test.make ~count:50 ~name:"sampled costs respect configured ranges"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let costs = Daggen.Generator.default_costs in
      let g = Daggen.Generator.generate ~rng ~shape:(default_shape 30) ~costs in
      let lo, hi = costs.Daggen.Generator.w_spe_range in
      let rlo, rhi = costs.Daggen.Generator.ppe_ratio_range in
      Array.for_all
        (fun (t : Streaming.Task.t) ->
          t.Streaming.Task.w_spe >= lo
          && t.Streaming.Task.w_spe <= hi
          && t.Streaming.Task.w_ppe >= t.Streaming.Task.w_spe *. rlo -. 1e-12
          && t.Streaming.Task.w_ppe <= t.Streaming.Task.w_spe *. rhi +. 1e-12)
        (Array.init (Streaming.Graph.n_tasks g) (Streaming.Graph.task g)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "daggen"
    [
      ( "generator",
        [
          Alcotest.test_case "task count" `Quick test_task_count;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "invalid shapes" `Quick test_invalid_shapes;
          Alcotest.test_case "chain" `Quick test_chain_generator;
          Alcotest.test_case "memory io" `Quick test_memory_io;
          qt generated_graphs_are_dags;
          qt costs_within_ranges;
        ] );
      ( "presets",
        [
          Alcotest.test_case "paper graphs" `Quick test_presets;
          Alcotest.test_case "figure graphs" `Quick test_figure_graphs;
          Alcotest.test_case "audio encoder" `Quick test_audio_encoder;
        ] );
    ]
