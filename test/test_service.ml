(* Tests for the service layer (lib/service): canonical fingerprint
   metamorphic properties, cache-hit bitwise equality with fresh
   solves, differential batched-vs-sequential runs, and persistence
   fault recovery. *)

module P = Cell.Platform
module G = Streaming.Graph
module T = Streaming.Task
module Canon = Streaming.Canonical
module M = Cellsched.Mapping
module SS = Cellsched.Steady_state
module Pf = Cellsched.Portfolio
module Search = Cellsched.Mapping_search
module Req = Service.Request
module Cache = Service.Cache
module Batch = Service.Batch
module Pool = Par.Pool

let bits = Int64.bits_of_float

(* Registration is idempotent by name, so the tests read the very
   counters the service bumps. *)
let svc_counter name = Obs.Metrics.counter name
let counter_value name = Obs.Metrics.Counter.value (svc_counter name)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let random_graph ?(fat = 0.5) rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* An isomorphic copy: tasks renamed and reordered by a random
   permutation, edge list shuffled. *)
let relabel rng g =
  let n = G.n_tasks g in
  let perm = Array.init n Fun.id in
  Support.Rng.shuffle rng perm;
  (* perm.(p) = old id of the task now at position p *)
  let pos = Array.make n 0 in
  Array.iteri (fun p old -> pos.(old) <- p) perm;
  let tasks =
    Array.init n (fun p ->
        { (G.task g perm.(p)) with T.name = Printf.sprintf "x%d" p })
  in
  let edges =
    Array.init (G.n_edges g) (fun e ->
        let { G.src; dst; data_bytes } = G.edge g e in
        (pos.(src), pos.(dst), data_bytes))
  in
  Support.Rng.shuffle rng edges;
  (G.of_tasks tasks (Array.to_list edges), pos)

(* ====================================================================== *)
(* Canonical fingerprint: metamorphic properties                          *)
(* ====================================================================== *)

let fingerprint_relabel_invariant =
  QCheck.Test.make ~count:120
    ~name:"canonical fingerprint invariant under relabeling + edge shuffles"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 24))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let g', _ = relabel rng g in
      if Canon.to_string g <> Canon.to_string g' then
        QCheck.Test.fail_reportf "canonical forms differ:\n%s\nvs\n%s"
          (Canon.to_string g) (Canon.to_string g');
      snd (Canon.key g) = snd (Canon.key g'))

(* Oracle: the flat-array refinement in Streaming.Canonical must
   reproduce the list-based reference (Canonical_ref) bit for bit —
   order, text and fingerprint — on tie-heavy graphs, special float
   costs, degenerate shapes and the paper presets, relabelled or not. *)
let special_floats =
  [| 0.; -0.; infinity; 4.9e-324; 2.2250738585072009e-308; 1e-310; 0.5; 1024.; max_float |]

let palette_graph rng ~n ~density costs =
  let pick () = costs.(Support.Rng.int rng (Array.length costs)) in
  let tasks =
    Array.init n (fun k ->
        {
          T.name = Printf.sprintf "v%d" k;
          w_ppe = pick ();
          w_spe = pick ();
          peek = Support.Rng.int rng 2;
          stateful = Support.Rng.int rng 2 = 0;
          read_bytes = pick ();
          write_bytes = pick ();
        })
  in
  let edges = ref [] in
  for src = 0 to n - 1 do
    for dst = src + 1 to n - 1 do
      if Support.Rng.float rng 1. < density then
        edges := (src, dst, pick ()) :: !edges
    done
  done;
  G.of_tasks tasks (List.rev !edges)

(* A source fanning out to [k] tied leaves that join into one sink:
   wide enough for the signature sort's heap path. *)
let fan_graph rng k =
  let leaf = T.make ~name:"leaf" ~w_ppe:1. ~w_spe:1. () in
  let tasks =
    Array.init (k + 2) (fun i -> { leaf with T.name = Printf.sprintf "f%d" i })
  in
  let data () = [| 0.; 8.; 8.; 64. |].(Support.Rng.int rng 4) in
  let edges =
    List.concat
      (List.init k (fun i -> [ (0, i + 1, data ()); (i + 1, k + 1, data ()) ]))
  in
  G.of_tasks tasks edges

let presets =
  [|
    (fun _ -> Daggen.Presets.figure_2b ());
    (fun _ -> Daggen.Presets.two_filter_chain ());
    (fun _ -> Daggen.Presets.audio_encoder ());
    (fun seed -> Daggen.Presets.random_graph_1 ~seed ());
    (fun seed -> Daggen.Presets.random_graph_2 ~seed ());
    (fun seed -> Daggen.Presets.random_graph_3 ~seed ());
  |]

let oracle_graph seed kind =
  let rng = Support.Rng.create seed in
  match kind with
  | 0 -> random_graph rng (1 + Support.Rng.int rng 30)
  | 1 -> palette_graph rng ~n:(1 + Support.Rng.int rng 14) ~density:0.35 [| 1.; 2. |]
  | 2 -> palette_graph rng ~n:(1 + Support.Rng.int rng 10) ~density:0.4 special_floats
  | 3 -> palette_graph rng ~n:(1 + Support.Rng.int rng 8) ~density:0. [| 0.; -0.; 3. |]
  | 4 -> fan_graph rng (1 + Support.Rng.int rng 40)
  | _ -> presets.(seed mod Array.length presets) seed

let canonical_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"canonical order/text/fingerprint = list-based oracle"
    QCheck.(pair (int_bound 1_000_000) (int_bound 5))
    (fun (seed, kind) ->
      let g = oracle_graph seed kind in
      let g', _ = relabel (Support.Rng.create (seed + 1)) g in
      List.for_all
        (fun g ->
          let ord, fp = Canon.key g in
          let same what a b =
            if not (a = b) then
              QCheck.Test.fail_reportf "%s differs from the oracle" what
          in
          same "key order" ord (Canonical_ref.order g);
          same "key fingerprint" fp (Canonical_ref.fingerprint g);
          same "text" (Canon.to_string g) (Canonical_ref.to_string g);
          true)
        [ g; g' ])

let test_fingerprint_distinct () =
  (* 100 random DAGs from distinct seeds: no two fingerprints collide
     (random float costs make accidental isomorphism negligible). *)
  let seen = Hashtbl.create 128 in
  for seed = 1 to 100 do
    let rng = Support.Rng.create seed in
    let n = 6 + Support.Rng.int rng 15 in
    let fp = snd (Canon.key (random_graph rng n)) in
    (match Hashtbl.find_opt seen fp with
    | Some other ->
        Alcotest.failf "seed %d collides with seed %d on %Lx" seed other fp
    | None -> ());
    Hashtbl.add seen fp seed
  done

let test_fingerprint_sensitivity () =
  (* The request key must see every input: graph, platform and solver
     options each perturb it. *)
  let rng = Support.Rng.create 7 in
  let g = random_graph rng 10 in
  let base =
    {
      Req.label = "base";
      platform = P.qs22 ();
      graph = g;
      strategy = Req.Portfolio { seed = 1; restarts = 3 };
      deadline_ms = None;
      prio = 0;
    }
  in
  let fp = Req.fingerprint base in
  Alcotest.(check int) "key width" 32 (String.length fp);
  Alcotest.(check bool) "label is not keyed" true
    (Req.fingerprint { base with Req.label = "other" } = fp);
  let differs what r = Alcotest.(check bool) what false (Req.fingerprint r = fp) in
  differs "platform changes the key" { base with Req.platform = P.qs22 ~n_spe:4 () };
  differs "seed changes the key"
    { base with Req.strategy = Req.Portfolio { seed = 2; restarts = 3 } };
  differs "restarts change the key"
    { base with Req.strategy = Req.Portfolio { seed = 1; restarts = 4 } };
  differs "strategy family changes the key"
    { base with Req.strategy = Req.Bb { rel_gap = 0.05; max_nodes = 1000 } };
  differs "graph changes the key"
    { base with Req.graph = random_graph (Support.Rng.create 8) 10 };
  (* An edge-size change alone (same topology) must also show. *)
  differs "edge data changes the key"
    { base with Req.graph = G.map_edges (fun _ e -> e.G.data_bytes +. 1.) g }

(* ====================================================================== *)
(* Cache hits bitwise-equal to fresh solves                               *)
(* ====================================================================== *)

let portfolio_strategy = Req.Portfolio { seed = 1234; restarts = 2 }

let request ?(label = "g") ?(strategy = portfolio_strategy) platform graph =
  { Req.label; platform; graph; strategy; deadline_ms = None; prio = 0 }

(* One request through the cache-or-solve path. *)
let serve cache r = Engine_batch.serve_one ~view:(Cache.view cache) r

let hit_equals_fresh_portfolio =
  QCheck.Test.make ~count:40
    ~name:"cache hit bitwise = fresh portfolio solve (same seeds)"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let req = request platform g in
      let cache = Cache.create () in
      let miss = serve cache req in
      let hit = serve cache req in
      if miss.Batch.source <> Batch.Solved then
        QCheck.Test.fail_reportf "first run should solve";
      if hit.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "second run should hit";
      let fresh = Pf.solve ~seed:1234 ~restarts:2 platform g in
      let fresh_arr = M.to_array fresh.Pf.best in
      if hit.Batch.assignment <> fresh_arr then
        QCheck.Test.fail_reportf "hit assignment differs from fresh solve";
      if bits hit.Batch.period <> bits fresh.Pf.period then
        QCheck.Test.fail_reportf "hit period %.17g vs fresh %.17g"
          hit.Batch.period fresh.Pf.period;
      if miss.Batch.assignment <> fresh_arr then
        QCheck.Test.fail_reportf "solve-path assignment differs from fresh solve";
      true)

let hit_equals_fresh_bb =
  let strategy = Req.Bb { rel_gap = 0.05; max_nodes = 20_000 } in
  QCheck.Test.make ~count:15
    ~name:"cache hit bitwise = fresh branch-and-bound solve"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 9))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let req = request ~strategy platform g in
      let cache = Cache.create () in
      ignore (serve cache req);
      let hit = serve cache req in
      if hit.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "second run should hit";
      let options =
        {
          Search.default_options with
          rel_gap = 0.05;
          max_nodes = 20_000;
          time_limit = 3600.;
        }
      in
      let fresh = Search.solve ~options platform g in
      if hit.Batch.assignment <> M.to_array fresh.Search.mapping then
        QCheck.Test.fail_reportf "hit assignment differs from fresh B&B";
      if bits hit.Batch.period <> bits fresh.Search.period then
        QCheck.Test.fail_reportf "hit period %.17g vs fresh %.17g"
          hit.Batch.period fresh.Search.period;
      true)

let relabeled_hit_transports =
  QCheck.Test.make ~count:40
    ~name:"relabeled request hits and transports a valid mapping"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let cache = Cache.create () in
      let solved = serve cache (request platform g) in
      let g', _ = relabel rng g in
      let resp = serve cache (request ~label:"relabeled" platform g') in
      if resp.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "isomorphic request should hit the cache";
      (* The transported mapping is valid on the relabeled graph and
         achieves the same period there (up to summation-order ulps). *)
      let m = M.make platform g' resp.Batch.assignment in
      let p = SS.period platform (SS.loads platform g' m) in
      let tol = 1e-9 *. Float.abs solved.Batch.period in
      if Float.abs (p -. solved.Batch.period) > tol then
        QCheck.Test.fail_reportf
          "transported period %.17g vs solved %.17g (tol %.3g)" p
          solved.Batch.period tol;
      true)

(* The documented limit of colour refinement: the audio encoder's
   identical subband groups stay tied, tied tasks keep input order, so
   relabelled copies can key differently. Each copy is then solved and
   cached under its own fingerprint — a lost hit, never a wrong reply:
   every reply's period is the period of its mapping on its own graph. *)
let test_refinement_ties_stay_correct () =
  let g = Daggen.Presets.audio_encoder () in
  let graphs =
    g :: List.map (fun s -> fst (relabel (Support.Rng.create s) g)) [ 5; 6; 7 ]
  in
  let platform = P.qs22 ~n_spe:4 () in
  let strategy = Req.Portfolio { seed = 1234; restarts = 1 } in
  let requests = List.map (fun g -> request ~strategy platform g) graphs in
  let cache = Cache.create () in
  let check_reply (r : Batch.response) =
    let g = r.Batch.request.Req.graph in
    let m = M.make platform g r.Batch.assignment in
    let p = SS.period platform (SS.loads platform g m) in
    if Float.abs (p -. r.Batch.period) > 1e-9 *. Float.abs r.Batch.period then
      Alcotest.failf "reply period %.17g, mapping period on its graph %.17g"
        r.Batch.period p
  in
  let first = List.map (serve cache) requests in
  let replay = List.map (serve cache) requests in
  List.iter check_reply (first @ replay);
  let fps = List.sort_uniq compare (List.map Req.fingerprint requests) in
  Alcotest.(check bool) "a relabelled encoder keys differently" true
    (List.length fps > 1);
  Alcotest.(check int) "one cache entry per distinct key" (List.length fps)
    (Cache.length cache);
  List.iter
    (fun (r : Batch.response) ->
      Alcotest.(check bool) "replay hits under its own key" true
        (r.Batch.source = Batch.Hit))
    replay

(* ====================================================================== *)
(* Differential: the engine (inline, pools of 1/2/4) vs per-request loop  *)
(* ====================================================================== *)

let differential_requests () =
  let platform = P.qs22 ~n_spe:4 () in
  let graph i = random_graph (Support.Rng.create (100 + i)) (6 + i) in
  let g0 = graph 0 and g1 = graph 1 and g2 = graph 2 and g3 = graph 3 in
  let relabeled_g1, _ = relabel (Support.Rng.create 999) g1 in
  [
    request ~label:"g0" platform g0;
    request ~label:"g1" platform g1;
    request ~label:"g0-dup" platform g0;
    request ~label:"g2" platform g2;
    request ~label:"g3-bb"
      ~strategy:(Req.Bb { rel_gap = 0.05; max_nodes = 5_000 })
      platform g3;
    request ~label:"g1-iso" platform relabeled_g1;
    request ~label:"g2-dup" platform g2;
    request ~label:"g0-spes"
      (P.qs22 ~n_spe:2 ())
      g0;
  ]

(* The rendered responses must not depend on how the engine ran the
   stream or how many domains solved the misses — except for the label,
   which is deliberately per-request, so duplicates keep distinct
   labels. *)
let test_differential_batch () =
  with_metrics (fun () ->
      let requests = differential_requests () in
      let n = List.length requests in
      let hits0 = counter_value "daemon_hits_total"
      and solved0 = counter_value "daemon_solved_total" in
      let reference =
        let cache = Cache.create () in
        Engine_batch.render_all (List.map (serve cache) requests)
      in
      let runs =
        [ ("inline", 1, false); ("pool=1", 1, true); ("pool=2", 2, true);
          ("pool=4", 4, true) ]
      in
      List.iter
        (fun (name, concurrency, fibers) ->
          Alcotest.(check string)
            (name ^ " byte-identical to the per-request loop")
            reference
            (Engine_batch.render_all
               (Engine_batch.responses ~concurrency ~fibers requests)))
        runs;
      let runs = List.length runs in
      let hits = counter_value "daemon_hits_total" - hits0
      and solved = counter_value "daemon_solved_total" - solved0 in
      Alcotest.(check int)
        "daemon hits + solved = requests served" (runs * n) (hits + solved);
      (* The duplicate, isomorphic-duplicate and repeated requests hit. *)
      Alcotest.(check int) "hits per run" (runs * 3) hits)

(* ====================================================================== *)
(* Persistence                                                            *)
(* ====================================================================== *)

let sample_entry ?(fp = String.make 32 'a') ?(period = 1.25e-3) () =
  {
    Cache.fingerprint = fp;
    strategy = "portfolio:seed=1,restarts=2";
    canonical_assignment = [| 0; 1; 2; 1 |];
    period;
    feasible = true;
    throughput = 1. /. period;
    bottleneck = "SPE1 interface (in)";
  }

let temp_path () = Filename.temp_file "cellsched_cache" ".json"

let entry_testable =
  let pp ppf (e : Cache.entry) =
    Format.fprintf ppf "%s period=%h [%s]" e.Cache.fingerprint e.Cache.period
      (String.concat ","
         (Array.to_list (Array.map string_of_int e.Cache.canonical_assignment)))
  in
  Alcotest.testable pp (fun a b ->
      a.Cache.fingerprint = b.Cache.fingerprint
      && a.Cache.strategy = b.Cache.strategy
      && a.Cache.canonical_assignment = b.Cache.canonical_assignment
      && bits a.Cache.period = bits b.Cache.period
      && a.Cache.feasible = b.Cache.feasible
      && bits a.Cache.throughput = bits b.Cache.throughput
      && a.Cache.bottleneck = b.Cache.bottleneck)

let test_persistence_roundtrip () =
  let cache = Cache.create () in
  let e1 = sample_entry () in
  let e2 =
    sample_entry ~fp:(String.make 32 'b') ~period:(1. /. 3.) ()
  in
  let e3 =
    (* Non-finite periods must survive the trip (JSON has no inf). *)
    { (sample_entry ~fp:(String.make 32 'c') ()) with
      Cache.period = infinity; feasible = false; throughput = 0. }
  in
  List.iter (Cache.add cache) [ e1; e2; e3 ];
  ignore (Cache.find cache e1.Cache.fingerprint);
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      let back = Cache.load_file path in
      Alcotest.(check int) "entries survive" 3 (Cache.length back);
      Alcotest.(check (list entry_testable))
        "entries equal, LRU order preserved" (Cache.entries cache)
        (Cache.entries back))

let recovered_counter_after f =
  with_metrics (fun () ->
      let before = counter_value "svc_cache_recovered_total" in
      let cache = f () in
      (Cache.length cache, counter_value "svc_cache_recovered_total" - before))

(* First-occurrence string replacement (keeps the test free of str). *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let load_corrupt contents =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      recovered_counter_after (fun () -> Cache.load_file path))

let test_persistence_faults () =
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  Cache.add cache (sample_entry ~fp:(String.make 32 'b') ());
  let good = Cache.to_json_string cache in
  let check what (len, recovered) =
    Alcotest.(check int) (what ^ ": empty cache") 0 len;
    Alcotest.(check int) (what ^ ": recovered counter") 1 recovered
  in
  check "truncated"
    (load_corrupt (String.sub good 0 (String.length good / 2)));
  check "garbage" (load_corrupt "this is not json {{{");
  check "wrong version"
    (load_corrupt
       (replace ~sub:"\"cellsched_cache\":1" ~by:"\"cellsched_cache\":99" good));
  check "not a cache file" (load_corrupt "{\"some\":\"object\"}");
  (* A malformed entry poisons the whole file: recover empty. *)
  check "bad entry"
    (load_corrupt (replace ~sub:"\"feasible\":true" ~by:"\"feasible\":\"yes\"" good));
  (* Missing file: normal cold start, no recovery event. *)
  let len, recovered =
    recovered_counter_after (fun () -> Cache.load_file "/nonexistent/cache.json")
  in
  Alcotest.(check int) "missing file: empty" 0 len;
  Alcotest.(check int) "missing file: no recovery event" 0 recovered

let test_no_clobber () =
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* temp_file creates the file, so an unforced save must refuse. *)
      (match Cache.save_file cache path with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "save over an existing file must refuse");
      match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "forced save failed: %s" m)

let test_crash_window () =
  (* A flush killed mid-write must leave the previous complete snapshot
     intact: the bytes go to a sibling temp file, the rename never
     happens, and a reload sees every entry of the last good save. *)
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      Cache.For_testing.crash_after_bytes := None;
      Sys.remove path;
      try Sys.remove (Cache.temp_path path) with Sys_error _ -> ())
    (fun () ->
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "first save failed: %s" m);
      let good = In_channel.with_open_bin path In_channel.input_all in
      Cache.add cache (sample_entry ~fp:(String.make 32 'b') ());
      Cache.For_testing.crash_after_bytes := Some 25;
      (match Cache.save_file ~force:true cache path with
      | Ok () -> Alcotest.fail "crashed flush reported success"
      | Error _ -> ());
      Cache.For_testing.crash_after_bytes := None;
      Alcotest.(check bool) "partial bytes went to the temp file" true
        (Sys.file_exists (Cache.temp_path path));
      Alcotest.(check string) "target file untouched by the crash" good
        (In_channel.with_open_bin path In_channel.input_all);
      let back = Cache.load_file path in
      Alcotest.(check int) "previous snapshot loads complete" 1
        (Cache.length back);
      (* The retry overwrites the stale temp file and lands atomically. *)
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "retry failed: %s" m);
      Alcotest.(check bool) "temp file consumed by the rename" false
        (Sys.file_exists (Cache.temp_path path));
      Alcotest.(check int) "both entries land" 2
        (Cache.length (Cache.load_file path)))

let test_lru_eviction () =
  with_metrics (fun () ->
      let evictions0 = counter_value "svc_cache_evicted_total" in
      let cache = Cache.create ~max_entries:2 () in
      let fp c = String.make 32 c in
      Cache.add cache (sample_entry ~fp:(fp 'a') ());
      Cache.add cache (sample_entry ~fp:(fp 'b') ());
      (* Touch 'a' so 'b' is the LRU victim. *)
      ignore (Cache.find cache (fp 'a'));
      Cache.add cache (sample_entry ~fp:(fp 'c') ());
      Alcotest.(check int) "bounded" 2 (Cache.length cache);
      Alcotest.(check bool) "a kept (recently used)" true
        (Cache.find cache (fp 'a') <> None);
      Alcotest.(check bool) "b evicted" true (Cache.find cache (fp 'b') = None);
      Alcotest.(check bool) "c resident" true
        (Cache.find cache (fp 'c') <> None);
      Alcotest.(check int) "eviction counted" 1
        (counter_value "svc_cache_evicted_total" - evictions0);
      (* Byte bound: an entry bigger than the whole budget is dropped. *)
      let tiny = Cache.create ~max_bytes:64 () in
      Cache.add tiny (sample_entry ());
      Alcotest.(check int) "oversized entry dropped" 0 (Cache.length tiny))

let test_eviction_counter_ignores_overwrites () =
  (* Regression: [svc_cache_evicted_total] once counted update-in-place
     replacements as evictions, so an overwrite-heavy stream inflated
     the counter far past the number of entries that ever left the
     cache. Pin the distinction: overwrites never bump it, genuine LRU
     pressure bumps it exactly once per departed entry. *)
  with_metrics (fun () ->
      let evicted () = counter_value "svc_cache_evicted_total" in
      let fp c = String.make 32 c in
      let cache = Cache.create ~max_entries:4 () in
      let base = evicted () in
      (* 100 writes across 4 resident fingerprints: 96 overwrites. *)
      for round = 1 to 25 do
        List.iter
          (fun c ->
            Cache.add cache
              { (sample_entry ~fp:(fp c) ()) with Cache.period = float_of_int round })
          [ 'a'; 'b'; 'c'; 'd' ]
      done;
      Alcotest.(check int) "overwrite-heavy stream evicts nothing" 0
        (evicted () - base);
      Alcotest.(check int) "all four resident" 4 (Cache.length cache);
      (match Cache.find cache (fp 'a') with
      | Some e -> Alcotest.(check (float 0.)) "last write won" 25. e.Cache.period
      | None -> Alcotest.fail "overwritten entry vanished");
      (* Now genuine pressure: 3 new fingerprints through a 4-slot cache
         displace exactly 3 residents, overwrites still free. *)
      List.iter
        (fun c -> Cache.add cache (sample_entry ~fp:(fp c) ()))
        [ 'e'; 'f'; 'g' ];
      Alcotest.(check int) "one eviction per departed entry" 3
        (evicted () - base);
      Cache.add cache (sample_entry ~fp:(fp 'g') ());
      Alcotest.(check int) "post-pressure overwrite still free" 3
        (evicted () - base))

let test_transport_reject_falls_back () =
  with_metrics (fun () ->
      let rng = Support.Rng.create 5 in
      let g = random_graph rng 8 in
      let platform = P.qs22 ~n_spe:4 () in
      let req = request platform g in
      let cache = Cache.create () in
      (* Poison the cache under the request's own fingerprint with a
         wrong-arity assignment: the hit must be rejected and re-solved. *)
      Cache.add cache
        {
          (sample_entry ~fp:(Req.fingerprint req) ()) with
          Cache.canonical_assignment = [| 0 |];
        };
      let rejects0 = counter_value "svc_transport_rejects_total" in
      let resp = serve cache req in
      Alcotest.(check bool) "fell back to a solve" true
        (resp.Batch.source = Batch.Solved);
      Alcotest.(check int) "reject counted" 1
        (counter_value "svc_transport_rejects_total" - rejects0);
      let fresh = Pf.solve ~seed:1234 ~restarts:2 platform g in
      Alcotest.(check bool) "fallback result = fresh solve" true
        (resp.Batch.assignment = M.to_array fresh.Pf.best))

(* ====================================================================== *)
(* Request-file parsing                                                   *)
(* ====================================================================== *)

let test_parse_line () =
  let rng = Support.Rng.create 3 in
  let g = random_graph rng 6 in
  let load_graph name =
    Alcotest.(check string) "file forwarded" "g.graph" name;
    g
  in
  (match Req.parse_line ~load_graph 1 "g.graph spes=4 strategy=portfolio seed=7" with
  | Some r ->
      Alcotest.(check int) "spes" 4 r.Req.platform.P.n_spe;
      (match r.Req.strategy with
      | Req.Portfolio { seed; restarts } ->
          Alcotest.(check int) "seed" 7 seed;
          Alcotest.(check int) "default restarts" Pf.default_restarts restarts
      | _ -> Alcotest.fail "expected portfolio")
  | None -> Alcotest.fail "line should parse");
  (match Req.parse_line ~load_graph:(fun _ -> g) 2 "g strategy=bb max-nodes=99" with
  | Some { Req.strategy = Req.Bb { max_nodes; _ }; _ } ->
      Alcotest.(check int) "max-nodes" 99 max_nodes
  | _ -> Alcotest.fail "expected bb");
  Alcotest.(check bool) "comment skipped" true
    (Req.parse_line ~load_graph:(fun _ -> g) 3 "  # comment" = None);
  Alcotest.(check bool) "blank skipped" true
    (Req.parse_line ~load_graph:(fun _ -> g) 4 "" = None);
  (match Req.parse_line ~load_graph:(fun _ -> g) 5 "g seed=notanint" with
  | exception Failure m ->
      Alcotest.(check bool) "line number in error" true
        (String.length m >= 6 && String.sub m 0 6 = "line 5")
  | _ -> Alcotest.fail "malformed line should fail");
  match Req.parse_line ~load_graph:(fun _ -> g) 6 "g strategy=bb seed=1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "seed= under bb should fail"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          qt fingerprint_relabel_invariant;
          Alcotest.test_case "100 distinct DAGs, no collision" `Quick
            test_fingerprint_distinct;
          Alcotest.test_case "key sensitivity" `Quick
            test_fingerprint_sensitivity;
          qt canonical_matches_oracle;
          Alcotest.test_case "refinement ties: lost hits, never wrong replies"
            `Quick test_refinement_ties_stay_correct;
        ] );
      ( "cache-hit equivalence",
        [
          qt hit_equals_fresh_portfolio;
          qt hit_equals_fresh_bb;
          qt relabeled_hit_transports;
        ] );
      ( "differential",
        [ Alcotest.test_case "batched = sequential loop" `Quick
            test_differential_batch ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_persistence_roundtrip;
          Alcotest.test_case "fault recovery" `Quick test_persistence_faults;
          Alcotest.test_case "no-clobber / --force" `Quick test_no_clobber;
          Alcotest.test_case "crash mid-flush keeps the last snapshot" `Quick
            test_crash_window;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction + bounds" `Quick test_lru_eviction;
          Alcotest.test_case "eviction counter ignores overwrites" `Quick
            test_eviction_counter_ignores_overwrites;
          Alcotest.test_case "transport reject falls back" `Quick
            test_transport_reject_falls_back;
        ] );
      ("requests", [ Alcotest.test_case "parse_line" `Quick test_parse_line ]);
    ]
