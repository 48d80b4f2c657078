(* Tests for the application model: graphs, CCR, serialization, DOT. *)

let mk_task ?(peek = 0) ?(w_ppe = 1e-3) ?(w_spe = 2e-3) name =
  Streaming.Task.make ~name ~w_ppe ~w_spe ~peek ()

let diamond () =
  (* a -> b, a -> c, b -> d, c -> d *)
  let tasks = [| mk_task "a"; mk_task "b"; mk_task "c"; mk_task "d" |] in
  Streaming.Graph.of_tasks tasks
    [ (0, 1, 100.); (0, 2, 200.); (1, 3, 300.); (2, 3, 400.) ]

let test_construction () =
  let g = diamond () in
  Alcotest.(check int) "tasks" 4 (Streaming.Graph.n_tasks g);
  Alcotest.(check int) "edges" 4 (Streaming.Graph.n_edges g);
  Alcotest.(check (list int)) "succs of a" [ 1; 2 ] (Streaming.Graph.succs g 0);
  Alcotest.(check (list int)) "preds of d" [ 1; 2 ] (Streaming.Graph.preds g 3);
  Alcotest.(check (list int)) "sources" [ 0 ] (Streaming.Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Streaming.Graph.sinks g);
  Alcotest.(check int) "depth" 3 (Streaming.Graph.depth g);
  Alcotest.(check (float 1e-9)) "data" 1000. (Streaming.Graph.total_data_bytes g);
  Alcotest.(check int) "find" 2 (Streaming.Graph.find_task g "c")

let test_cycle_rejected () =
  let b = Streaming.Graph.builder () in
  let a = Streaming.Graph.add_task b (mk_task "a") in
  let c = Streaming.Graph.add_task b (mk_task "c") in
  Streaming.Graph.add_edge b ~src:a ~dst:c ~data_bytes:1.;
  Streaming.Graph.add_edge b ~src:c ~dst:a ~data_bytes:1.;
  Alcotest.check_raises "cycle"
    (Invalid_argument "Graph.build: the graph contains a cycle") (fun () ->
      ignore (Streaming.Graph.build b))

let test_duplicate_task_name () =
  let b = Streaming.Graph.builder () in
  ignore (Streaming.Graph.add_task b (mk_task "x"));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_task: duplicate name \"x\"") (fun () ->
      ignore (Streaming.Graph.add_task b (mk_task "x")))

let test_bad_edges () =
  let b = Streaming.Graph.builder () in
  let a = Streaming.Graph.add_task b (mk_task "a") in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Streaming.Graph.add_edge b ~src:a ~dst:a ~data_bytes:1.);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Graph.add_edge: unknown task id") (fun () ->
      Streaming.Graph.add_edge b ~src:a ~dst:7 ~data_bytes:1.)

let test_task_validation () =
  Alcotest.check_raises "negative cost" (Invalid_argument "Task.make: negative cost")
    (fun () ->
      ignore (Streaming.Task.make ~name:"t" ~w_ppe:(-1.) ~w_spe:1. ()));
  Alcotest.check_raises "negative peek" (Invalid_argument "Task.make: negative peek")
    (fun () ->
      ignore (Streaming.Task.make ~name:"t" ~w_ppe:1. ~w_spe:1. ~peek:(-1) ()))

let test_topological_order () =
  let g = diamond () in
  let order = Streaming.Graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i k -> pos.(k) <- i) order;
  Array.iter
    (fun { Streaming.Graph.src; dst; _ } ->
      Alcotest.(check bool) "edge forward" true (pos.(src) < pos.(dst)))
    (Array.init (Streaming.Graph.n_edges g) (Streaming.Graph.edge g))

let test_chain () =
  let g = Streaming.Graph.chain (Array.init 5 (fun i -> mk_task (string_of_int i)))
      ~data_bytes:42. in
  Alcotest.(check int) "edges" 4 (Streaming.Graph.n_edges g);
  Alcotest.(check int) "depth" 5 (Streaming.Graph.depth g)

let test_ccr_scale () =
  let g = diamond () in
  let g' = Streaming.Ccr.scale_to g ~target:2.0 in
  Alcotest.(check (float 1e-9)) "target reached" 2.0 (Streaming.Ccr.compute g');
  (* Work untouched. *)
  Alcotest.(check (float 1e-12)) "work"
    (Streaming.Graph.total_work g Cell.Platform.SPE)
    (Streaming.Graph.total_work g' Cell.Platform.SPE)

let test_ccr_no_data () =
  let g = Streaming.Graph.chain [| mk_task "a"; mk_task "b" |] ~data_bytes:0. in
  Alcotest.(check (float 0.)) "zero ccr" 0. (Streaming.Ccr.compute g);
  Alcotest.(check bool) "cannot rescale" true
    (try
       ignore (Streaming.Ccr.scale_to g ~target:1.);
       false
     with Invalid_argument _ -> true)

let test_serialize_roundtrip () =
  let g = diamond () in
  let s = Streaming.Serialize.to_string g in
  let g' = Streaming.Serialize.of_string s in
  Alcotest.(check int) "tasks" (Streaming.Graph.n_tasks g) (Streaming.Graph.n_tasks g');
  Alcotest.(check int) "edges" (Streaming.Graph.n_edges g) (Streaming.Graph.n_edges g');
  Alcotest.(check string) "stable" s (Streaming.Serialize.to_string g')

let test_serialize_errors () =
  let check_fails src =
    match Streaming.Serialize.of_string src with
    | exception Streaming.Serialize.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" src
  in
  check_fails "task";
  check_fails "task x wppe=1";
  check_fails "task x wppe=a wspe=1";
  check_fails "edge a b data=1";
  check_fails "frob x";
  check_fails "task x wppe=1 wspe=1 frob=2"

let test_serialize_comments () =
  let g =
    Streaming.Serialize.of_string
      "# header\n\ntask a wppe=1 wspe=2 # trailing\ntask b wppe=1 wspe=2\nedge a b data=5\n"
  in
  Alcotest.(check int) "tasks" 2 (Streaming.Graph.n_tasks g);
  Alcotest.(check (float 0.)) "data" 5.
    (Streaming.Graph.edge g 0).Streaming.Graph.data_bytes

let test_dot () =
  let dot = Streaming.Dot.to_string (diamond ()) in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let count_arrows s =
    List.length
      (List.filter (fun line ->
           let has sub =
             let rec find i =
               i + String.length sub <= String.length line
               && (String.sub line i (String.length sub) = sub || find (i + 1))
             in
             find 0
           in
           has "->")
         (String.split_on_char '\n' s))
  in
  Alcotest.(check int) "edges rendered" 4 (count_arrows dot)

(* Property: random daggen graphs round-trip through the text format. *)
let serialize_roundtrip_random =
  QCheck.Test.make ~count:50 ~name:"serialize roundtrips random graphs"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let shape =
        {
          Daggen.Generator.n = 1 + Support.Rng.int rng 30;
          fat = 0.2 +. Support.Rng.float rng 1.0;
          density = Support.Rng.float rng 1.0;
          regularity = Support.Rng.float rng 1.0;
          jump = 1 + Support.Rng.int rng 3;
        }
      in
      let g =
        Daggen.Generator.generate ~rng ~shape
          ~costs:Daggen.Generator.default_costs
      in
      let s = Streaming.Serialize.to_string g in
      let g' = Streaming.Serialize.of_string s in
      s = Streaming.Serialize.to_string g')

(* Stronger property — parse ∘ print = id structurally, with hostile
   task names mixed in. Pins the escaping bug the canonical-fingerprint
   work uncovered: names containing whitespace, '#', '=' or '%' used to
   be printed raw, corrupting the token stream on re-parse. *)
let graphs_equal a b =
  Streaming.Graph.n_tasks a = Streaming.Graph.n_tasks b
  && Streaming.Graph.n_edges a = Streaming.Graph.n_edges b
  && List.for_all
       (fun k -> Streaming.Graph.task a k = Streaming.Graph.task b k)
       (List.init (Streaming.Graph.n_tasks a) Fun.id)
  && List.for_all
       (fun e -> Streaming.Graph.edge a e = Streaming.Graph.edge b e)
       (List.init (Streaming.Graph.n_edges a) Fun.id)

let hostile_names =
  [|
    "a b"; "x#y"; "p=q"; "we%ird"; "tab\there"; "new\nline"; "%41";
    "  lead"; "trail  "; "#lead"; "100% weird = yes";
  |]

let serialize_parse_print_id =
  QCheck.Test.make ~count:60 ~name:"parse (print g) = g, hostile names included"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let shape =
        {
          Daggen.Generator.n = 1 + Support.Rng.int rng 25;
          fat = 0.2 +. Support.Rng.float rng 1.0;
          density = Support.Rng.float rng 1.0;
          regularity = Support.Rng.float rng 1.0;
          jump = 1 + Support.Rng.int rng 3;
        }
      in
      let g =
        Daggen.Generator.generate ~rng ~shape
          ~costs:Daggen.Generator.default_costs
      in
      (* Rename a random subset of tasks to hostile strings. *)
      let g =
        Streaming.Graph.map_tasks
          (fun k t ->
            if Support.Rng.bool rng then
              {
                t with
                Streaming.Task.name =
                  Printf.sprintf "%s_%d"
                    (Support.Rng.choose rng hostile_names)
                    k;
              }
            else t)
          g
      in
      let g' = Streaming.Serialize.of_string (Streaming.Serialize.to_string g) in
      graphs_equal g g')

let test_hostile_name_roundtrip () =
  let tasks =
    Array.mapi
      (fun i name -> mk_task ~w_ppe:(1e-3 *. float_of_int (i + 1)) name)
      hostile_names
  in
  let edges =
    List.init (Array.length tasks - 1) (fun k -> (k, k + 1, 64. +. float_of_int k))
  in
  let g = Streaming.Graph.of_tasks tasks edges in
  let g' = Streaming.Serialize.of_string (Streaming.Serialize.to_string g) in
  Alcotest.(check bool) "structural round-trip" true (graphs_equal g g');
  Array.iteri
    (fun i name ->
      Alcotest.(check string)
        "name preserved" name
        (Streaming.Graph.task g' i).Streaming.Task.name)
    hostile_names

let test_empty_name_rejected () =
  Alcotest.check_raises "empty name" (Invalid_argument "Task.make: empty name")
    (fun () -> ignore (Streaming.Task.make ~name:"" ~w_ppe:1. ~w_spe:1. ()))

let map_edges_preserves_structure =
  QCheck.Test.make ~count:50 ~name:"map_edges keeps topology"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let shape =
        { Daggen.Generator.n = 1 + Support.Rng.int rng 20; fat = 0.5;
          density = 0.5; regularity = 0.5; jump = 2 }
      in
      let g = Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs in
      let g' = Streaming.Graph.map_edges (fun _ e -> 2. *. e.Streaming.Graph.data_bytes) g in
      Streaming.Graph.n_edges g = Streaming.Graph.n_edges g'
      && Streaming.Graph.topological_order g = Streaming.Graph.topological_order g'
      && abs_float (Streaming.Graph.total_data_bytes g' -. (2. *. Streaming.Graph.total_data_bytes g)) < 1e-6)

(* The flat view is the graph's own data as arrays: per-edge and
   per-task fields bit for bit, CSR edge ids in the order of
   [in_edges]/[out_edges]. Checked on DagGen graphs, on copies rebuilt
   from a shuffled edge list (edge ids no longer follow their sources),
   and after [map_tasks]/[map_edges]. The topological order is checked
   against a direct reading of its contract: repeatedly the smallest id
   whose predecessors are all placed. *)
let flat_matches_accessors =
  QCheck.Test.make ~count:100 ~name:"flat view = accessors"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let module G = Streaming.Graph in
      let rng = Support.Rng.create seed in
      let shape =
        { Daggen.Generator.n = 1 + Support.Rng.int rng 25; fat = 0.5;
          density = 0.5; regularity = 0.5; jump = 2 }
      in
      let g = Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs in
      let shuffled =
        let es =
          Array.init (G.n_edges g) (fun i ->
              let e = G.edge g i in
              (e.G.src, e.G.dst, e.G.data_bytes))
        in
        Support.Rng.shuffle rng es;
        G.of_tasks (Array.init (G.n_tasks g) (G.task g)) (Array.to_list es)
      in
      let scaled =
        G.map_edges (fun _ e -> 3. *. e.G.data_bytes)
          (G.map_tasks
             (fun _ t -> { t with Streaming.Task.w_ppe = t.Streaming.Task.w_spe; read_bytes = 7. })
             shuffled)
      in
      let bits = Int64.bits_of_float in
      let check g =
        let f = G.flat g in
        let csr start ids k = List.init (start.(k + 1) - start.(k)) (fun i -> ids.(start.(k) + i)) in
        let placed = Array.make (G.n_tasks g) false in
        let reference =
          Array.init (G.n_tasks g) (fun _ ->
              let ready k =
                (not placed.(k)) && List.for_all (fun j -> placed.(j)) (G.preds g k)
              in
              let k = ref 0 in
              while not (ready !k) do incr k done;
              placed.(!k) <- true;
              !k)
        in
        Array.length f.G.in_start = G.n_tasks g + 1
        && G.topological_order g = reference
        && f.G.topo = reference
        && List.for_all
             (fun e ->
               let edge = G.edge g e in
               f.G.edge_src.(e) = edge.G.src
               && f.G.edge_dst.(e) = edge.G.dst
               && bits f.G.edge_data.(e) = bits edge.G.data_bytes)
             (List.init (G.n_edges g) Fun.id)
        && List.for_all
             (fun k ->
               let t = G.task g k in
               bits f.G.w_ppe.(k) = bits t.Streaming.Task.w_ppe
               && bits f.G.w_spe.(k) = bits t.Streaming.Task.w_spe
               && bits f.G.read_bytes.(k) = bits t.Streaming.Task.read_bytes
               && bits f.G.write_bytes.(k) = bits t.Streaming.Task.write_bytes
               && f.G.peek.(k) = t.Streaming.Task.peek
               && csr f.G.in_start f.G.in_ids k = G.in_edges g k
               && csr f.G.out_start f.G.out_ids k = G.out_edges g k)
             (List.init (G.n_tasks g) Fun.id)
      in
      check g && check shuffled && check scaled)

(* --- the buffer model ------------------------------------------------------ *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* Field by field, the flat views of two graphs are bitwise equal. *)
let flat_bits_equal a b =
  let module G = Streaming.Graph in
  let fa = G.flat a and fb = G.flat b in
  fa.G.edge_src = fb.G.edge_src
  && fa.G.edge_dst = fb.G.edge_dst
  && bits_equal fa.G.edge_data fb.G.edge_data
  && bits_equal fa.G.w_ppe fb.G.w_ppe
  && bits_equal fa.G.w_spe fb.G.w_spe
  && bits_equal fa.G.read_bytes fb.G.read_bytes
  && bits_equal fa.G.write_bytes fb.G.write_bytes
  && fa.G.peek = fb.G.peek
  && fa.G.in_start = fb.G.in_start
  && fa.G.in_ids = fb.G.in_ids
  && fa.G.out_start = fb.G.out_start
  && fa.G.out_ids = fb.G.out_ids
  && fa.G.topo = fb.G.topo
  && fa.G.first_period = fb.G.first_period
  && bits_equal fa.G.buffer fb.G.buffer
  && bits_equal fa.G.footprint fb.G.footprint

(* A graph derived by [map_tasks], [map_edges] or CCR scaling has the
   flat view of a fresh [of_tasks] build of its own tasks and edges; the
   task map also changes peeks, which moves the first periods. *)
let derived_views_match_fresh =
  QCheck.Test.make ~count:200 ~name:"map_tasks/map_edges/Ccr views = fresh build"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let module G = Streaming.Graph in
      let rng = Support.Rng.create seed in
      let shape =
        { Daggen.Generator.n = 1 + Support.Rng.int rng 30; fat = 0.5;
          density = 0.5; regularity = 0.5; jump = 2 }
      in
      let g = Daggen.Generator.generate ~rng ~shape ~costs:Daggen.Generator.default_costs in
      let fresh g =
        G.of_tasks
          (Array.init (G.n_tasks g) (G.task g))
          (List.init (G.n_edges g) (fun e ->
               let { G.src; dst; data_bytes } = G.edge g e in
               (src, dst, data_bytes)))
      in
      let peeks = Array.init (G.n_tasks g) (fun _ -> Support.Rng.int rng 4) in
      let repeeked =
        G.map_tasks
          (fun k t -> { t with Streaming.Task.peek = peeks.(k); read_bytes = 5. })
          g
      in
      let factor = 0.25 +. Support.Rng.float rng 4. in
      let rescaled = G.map_edges (fun _ e -> factor *. e.G.data_bytes) g in
      let scaled =
        if G.total_data_bytes g +. G.total_memory_bytes g > 0. then
          [ Streaming.Ccr.scale_to g ~target:(0.5 +. Support.Rng.float rng 4.) ]
        else []
      in
      List.for_all
        (fun d -> flat_bits_equal d (fresh d))
        ([ repeeked; rescaled; G.map_tasks (fun _ t -> t) rescaled ] @ scaled))

let test_file_roundtrip () =
  let g = diamond () in
  let path = Filename.temp_file "cellstream" ".stream" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Streaming.Serialize.to_file g path;
      let g' = Streaming.Serialize.of_file path in
      Alcotest.(check string) "file roundtrip"
        (Streaming.Serialize.to_string g)
        (Streaming.Serialize.to_string g'))

let test_dot_file () =
  let path = Filename.temp_file "cellstream" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Streaming.Dot.to_file (diamond ()) path;
      let content = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "same as to_string"
        (Streaming.Dot.to_string (diamond ()))
        content)

let test_map_tasks () =
  let g = diamond () in
  let g' =
    Streaming.Graph.map_tasks
      (fun _ t -> { t with Streaming.Task.w_ppe = 2. *. t.Streaming.Task.w_ppe })
      g
  in
  Alcotest.(check (float 1e-12)) "ppe work doubled"
    (2. *. Streaming.Graph.total_work g Cell.Platform.PPE)
    (Streaming.Graph.total_work g' Cell.Platform.PPE);
  Alcotest.(check (float 1e-12)) "spe work untouched"
    (Streaming.Graph.total_work g Cell.Platform.SPE)
    (Streaming.Graph.total_work g' Cell.Platform.SPE)

let test_graph_pp () =
  let rendered = Format.asprintf "%a" Streaming.Graph.pp (diamond ()) in
  Alcotest.(check bool) "mentions counts" true
    (String.length rendered > 0
    && String.split_on_char '4' rendered <> [ rendered ])

(* --- DSL ----------------------------------------------------------------- *)

let dsl_filter ?(out = 128.) name =
  Streaming.Dsl.filter ~name ~w_ppe:1e-3 ~w_spe:2e-3 ~out_bytes:out ()

let test_dsl_pipeline () =
  let g =
    Streaming.Dsl.(build (pipeline [ dsl_filter "a"; dsl_filter "b"; dsl_filter "c" ]))
  in
  Alcotest.(check int) "tasks" 3 (Streaming.Graph.n_tasks g);
  Alcotest.(check int) "edges" 2 (Streaming.Graph.n_edges g);
  Alcotest.(check int) "depth" 3 (Streaming.Graph.depth g)

let test_dsl_split_join () =
  let g =
    Streaming.Dsl.(
      build
        (pipeline
           [
             dsl_filter "src";
             duplicate 4 (dsl_filter ~out:64. "work");
             dsl_filter "join";
           ]))
  in
  (* src + 4 workers + join *)
  Alcotest.(check int) "tasks" 6 (Streaming.Graph.n_tasks g);
  (* src->work x4, work->join x4 *)
  Alcotest.(check int) "edges" 8 (Streaming.Graph.n_edges g);
  let join = Streaming.Graph.find_task g "join" in
  Alcotest.(check int) "join fan-in" 4
    (List.length (Streaming.Graph.preds g join))

let test_dsl_unique_names () =
  let g =
    Streaming.Dsl.(build (pipeline [ dsl_filter "x"; dsl_filter "x"; dsl_filter "x" ]))
  in
  Alcotest.(check int) "three tasks" 3 (Streaming.Graph.n_tasks g);
  (* find_task must locate the renamed instances. *)
  ignore (Streaming.Graph.find_task g "x");
  ignore (Streaming.Graph.find_task g "x_2");
  ignore (Streaming.Graph.find_task g "x_3")

let test_dsl_validation () =
  Alcotest.(check bool) "empty pipeline" true
    (try
       ignore (Streaming.Dsl.pipeline []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate 0" true
    (try
       ignore (Streaming.Dsl.duplicate 0 (dsl_filter "y"));
       false
     with Invalid_argument _ -> true)

let test_dsl_schedulable () =
  (* A DSL-built app flows through the whole stack. *)
  let g =
    Streaming.Dsl.(
      build
        (pipeline
           [
             dsl_filter ~out:2048. "reader";
             duplicate 3 (dsl_filter ~out:1024. "stage");
             dsl_filter ~out:0. "writer";
           ]))
  in
  let platform = Cell.Platform.qs22 ~n_spe:2 () in
  let r = Cellsched.Milp_solver.solve platform g in
  Alcotest.(check bool) "feasible" true
    (Cellsched.Steady_state.feasible platform g r.Cellsched.Milp_solver.mapping)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "streaming"
    [
      ( "graph",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_task_name;
          Alcotest.test_case "bad edges" `Quick test_bad_edges;
          Alcotest.test_case "task validation" `Quick test_task_validation;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "chain" `Quick test_chain;
          qt map_edges_preserves_structure;
          qt flat_matches_accessors;
        ] );
      ("buffer model", [ qt derived_views_match_fresh ]);
      ( "ccr",
        [
          Alcotest.test_case "scale" `Quick test_ccr_scale;
          Alcotest.test_case "no data" `Quick test_ccr_no_data;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "errors" `Quick test_serialize_errors;
          Alcotest.test_case "comments" `Quick test_serialize_comments;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "hostile names round-trip" `Quick
            test_hostile_name_roundtrip;
          Alcotest.test_case "empty name rejected" `Quick
            test_empty_name_rejected;
          qt serialize_roundtrip_random;
          qt serialize_parse_print_id;
        ] );
      ( "dot",
        [
          Alcotest.test_case "render" `Quick test_dot;
          Alcotest.test_case "to_file" `Quick test_dot_file;
        ] );
      ( "misc",
        [
          Alcotest.test_case "map_tasks" `Quick test_map_tasks;
          Alcotest.test_case "graph pp" `Quick test_graph_pp;
        ] );
      ( "dsl",
        [
          Alcotest.test_case "pipeline" `Quick test_dsl_pipeline;
          Alcotest.test_case "split join" `Quick test_dsl_split_join;
          Alcotest.test_case "unique names" `Quick test_dsl_unique_names;
          Alcotest.test_case "validation" `Quick test_dsl_validation;
          Alcotest.test_case "schedulable end-to-end" `Quick test_dsl_schedulable;
        ] );
    ]
