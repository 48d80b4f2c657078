(* Contention-hammer suite for the fleet-scale traffic layer
   (lib/service/shard + lib/service/workload).

   The claims pinned here are the ones the sharded cache is sold on:

   (a) replies are bitwise identical to a single cache for the same
       workload seed, at shard counts 1/2/4/8 and pool sizes 1/2/4;
   (b) every request probes the map exactly once and duplicate
       replies agree bitwise even when concurrent domains storm the map
       with duplicate fingerprints;
   (c) per-shard LRU budgets are never exceeded, probed mid-hammer
       through the [Shard.For_testing.with_shard] hook;
   (d) a flush killed mid-write leaves every shard file loadable, with
       [svc_cache_recovered_total] accounting for anything lost.

   Plus the workload generator's own contracts (determinism, zipf
   concentration, request-line round-trip) and the shard map's
   persistence migration + stale-file cleanup. *)

module G = Streaming.Graph
module Req = Service.Request
module Cache = Service.Cache
module Shard = Service.Shard
module Batch = Service.Batch
module Wl = Service.Workload
module Pool = Par.Pool

(* Totals over every shard. *)
let entries t = Array.fold_left (fun n (e, _) -> n + e) 0 (Shard.shard_stats t)
let bytes t = Array.fold_left (fun n (_, b) -> n + b) 0 (Shard.shard_stats t)

let counter_value name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:
      { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5;
        jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* Shared small population: 4 graphs x 2 SPE counts x 1 cheap portfolio
   strategy = 8 distinct problems, small enough that the full
   shards-x-pools hammer matrix solves in seconds. *)
let graphs =
  let rng = Support.Rng.create 1905 in
  List.map (fun name -> (name, random_graph rng 6)) [ "gA"; "gB"; "gC"; "gD" ]

let spec ?(seed = 42) ?(requests = 120) ?(skew = 1.1) () =
  {
    Wl.seed;
    requests;
    skew;
    graphs;
    spes = [ 2; 4 ];
    strategies = [ Req.Portfolio { seed = 1234; restarts = 1 } ];
  }

let hex = "0123456789abcdef"
let random_fp rng = String.init 32 (fun _ -> hex.[Support.Rng.int rng 16])

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

(* ====================================================================== *)
(* Workload generator                                                     *)
(* ====================================================================== *)

let test_workload_determinism () =
  let s = spec () in
  let a = Wl.lines (Wl.generate s) in
  Alcotest.(check (list string)) "equal specs, byte-equal streams" a
    (Wl.lines (Wl.generate s));
  Alcotest.(check bool) "different seed, different stream" false
    (a = Wl.lines (Wl.generate { s with Wl.seed = 43 }));
  (* The seed permutes popularity ranks; it never changes which distinct
     problems exist. *)
  let fps s =
    Wl.population s |> Array.map Req.fingerprint |> Array.to_list
    |> List.sort compare
  in
  Alcotest.(check (list string)) "population is seed-permuted, not resampled"
    (fps s)
    (fps { s with Wl.seed = 43 });
  Alcotest.(check int) "population = graphs x spes x strategies" 8
    (Array.length (Wl.population s))

let test_workload_skew () =
  let hottest skew =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        let fp = Req.fingerprint r in
        Hashtbl.replace tbl fp (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
      (Wl.generate (spec ~requests:400 ~skew ()));
    Hashtbl.fold (fun _ n acc -> max n acc) tbl 0
  in
  Alcotest.(check bool) "higher skew concentrates traffic" true
    (hottest 1.6 > hottest 0.);
  (* A uniform 400-request stream over 8 problems touches all of them
     (deterministic seed, so this is a fixed fact, not a probability). *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun r -> Hashtbl.replace seen (Req.fingerprint r) ())
    (Wl.generate (spec ~requests:400 ~skew:0. ()));
  Alcotest.(check int) "uniform stream covers the population" 8
    (Hashtbl.length seen)

let test_workload_roundtrip () =
  (* Every rendered line must parse back onto the same fingerprint —
     that is what makes the CLI [workload] output a faithful replay of
     the in-process stream, for both strategy families. *)
  let s =
    {
      (spec ()) with
      Wl.strategies =
        [
          Req.Portfolio { seed = 7; restarts = 2 };
          Req.Bb { rel_gap = 0.05; max_nodes = 123 };
        ];
    }
  in
  let load_graph name = List.assoc name graphs in
  Array.iter
    (fun r ->
      let line = Wl.line r in
      match Req.parse_line ~load_graph 1 line with
      | Some back ->
          Alcotest.(check string)
            ("round-trip: " ^ line)
            (Req.fingerprint r) (Req.fingerprint back)
      | None -> Alcotest.failf "line did not parse: %s" line)
    (Wl.population s);
  (* A label that would corrupt the line grammar refuses loudly. *)
  let bad = { (Wl.population s).(0) with Req.label = "has space" } in
  (match Wl.line bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "token-unsafe label must refuse");
  (* [~ids] prefixes the daemon framing ids in arrival order. *)
  Wl.lines ~ids:true (Wl.generate (spec ~requests:3 ()))
  |> List.iteri (fun i l ->
         Alcotest.(check bool)
           (Printf.sprintf "id prefix on line %d" i)
           true
           (String.starts_with ~prefix:(Printf.sprintf "id=r%d " i) l))

let test_workload_split () =
  let stream = Wl.generate (spec ~requests:31 ()) in
  let parts = Wl.split ~domains:4 stream in
  Alcotest.(check int) "4 parts" 4 (Array.length parts);
  Alcotest.(check int) "no request lost" 31
    (Array.fold_left (fun acc p -> acc + Array.length p) 0 parts);
  Array.iteri
    (fun d part ->
      Array.iteri
        (fun j r ->
          Alcotest.(check string) "round-robin arrival order"
            (Req.fingerprint stream.(d + (4 * j)))
            (Req.fingerprint r))
        part)
    parts

(* ====================================================================== *)
(* Shard routing and budgets                                              *)
(* ====================================================================== *)

let test_routing () =
  let t = Shard.create ~shards:8 () in
  let rng = Support.Rng.create 99 in
  let counts = Array.make 8 0 in
  for _ = 1 to 2000 do
    let fp = random_fp rng in
    let i = Shard.shard_of_fingerprint t fp in
    if i < 0 || i >= 8 then Alcotest.failf "shard %d out of range" i;
    if i <> Shard.shard_of_fingerprint t fp then
      Alcotest.fail "routing must be a pure function of the fingerprint";
    counts.(i) <- counts.(i) + 1
  done;
  (* FNV-1a spreads even adversarially-similar keys; demand each shard
     get at least a quarter of its fair share of 2000 random digests. *)
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d gets traffic (%d)" i n)
        true
        (n > 2000 / 8 / 4))
    counts

let test_budget_split () =
  let t = Shard.create ~shards:4 ~max_entries:10 ~max_bytes:4096 () in
  Alcotest.(check int) "entry budget split (remainder dropped)" 2
    (Shard.per_shard_entries t);
  Alcotest.(check int) "byte budget split" 1024 (Shard.per_shard_bytes t);
  (* Degenerate split still leaves each shard able to hold something. *)
  let tiny = Shard.create ~shards:8 ~max_entries:4 () in
  Alcotest.(check int) "per-shard floor of one entry" 1
    (Shard.per_shard_entries tiny);
  List.iter
    (fun shards ->
      match Shard.create ~shards () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "shard count %d must refuse" shards)
    [ 0; -1; Shard.max_shards + 1 ]

(* ====================================================================== *)
(* (a) Bitwise identity across shard counts and pool sizes                *)
(* ====================================================================== *)

(* The reference: the per-request loop over one plain cache. *)
let serve_reference requests =
  let view = Cache.view (Cache.create ()) in
  Engine_batch.render_all (List.map (Engine_batch.serve_one ~view) requests)

(* The engine over a sharded map; pool size 1 is the inline engine. *)
let serve_sharded ~shards ~pool_size requests =
  Engine_batch.render_all
    (Engine_batch.responses ~concurrency:pool_size ~shards ~cache_entries:256
       requests)

let test_bitwise_grid () =
  (* The full published matrix: one zipfian stream, served through a
     single plain cache and through every shards x pool combination the
     issue names. Whole rendered transcripts compare byte-for-byte. *)
  let requests = Array.to_list (Wl.generate (spec ~requests:60 ())) in
  let reference = serve_reference requests in
  List.iter
    (fun shards ->
      List.iter
        (fun pool_size ->
          Alcotest.(check string)
            (Printf.sprintf "shards=%d pool=%d" shards pool_size)
            reference
            (serve_sharded ~shards ~pool_size requests))
        [ 1; 2; 4 ])
    [ 1; 2; 4; 8 ]

let bitwise_random_seeds =
  QCheck.Test.make ~count:5 ~name:"sharded = single cache (random seeds)"
    QCheck.(
      triple (int_bound 10_000) (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 1; 2; 4 ]))
    (fun (seed, shards, pool_size) ->
      let requests =
        Array.to_list (Wl.generate (spec ~seed ~requests:40 ()))
      in
      String.equal (serve_reference requests)
        (serve_sharded ~shards ~pool_size requests))

(* ====================================================================== *)
(* (b) Probe conservation under a concurrent duplicate storm              *)
(* ====================================================================== *)

let test_counter_conservation () =
  with_metrics (fun () ->
      let stream = Wl.generate (spec ~requests:200 ~skew:1.3 ()) in
      let parts = Wl.split ~domains:4 stream in
      let shard = Shard.create ~shards:4 () in
      let view = Shard.view shard in
      let probes () =
        List.fold_left
          (fun n i ->
            n
            + Obs.Metrics.Counter.value
                (Obs.Metrics.counter_family "svc_shard_probes_total"
                   ~labels:[ "shard" ] [ string_of_int i ]))
          0 [ 0; 1; 2; 3 ]
      in
      let probes0 = probes () in
      let domains =
        Array.map
          (fun part ->
            Domain.spawn (fun () ->
                Array.to_list (Array.map (Engine_batch.serve_one ~view) part)))
          parts
      in
      let responses = Array.to_list domains |> List.concat_map Domain.join in
      (* The conservation law: every request probes the map exactly
         once — a hit or a miss, never both, never neither — even when
         two domains race to solve the same fingerprint. *)
      Alcotest.(check int) "one probe per request" 200 (probes () - probes0);
      Alcotest.(check int) "every reply delivered" 200 (List.length responses);
      List.iter
        (fun r ->
          if r.Batch.source = Batch.Solved
             && Option.is_none (Shard.find shard r.Batch.fingerprint)
          then Alcotest.failf "solve of %s not stored" r.Batch.fingerprint)
        responses;
      (* Duplicate fingerprints must agree bitwise wherever they were
         answered: racing solves are deterministic, so the period bits
         are the same whichever domain's insert won. *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun r ->
          let bits = Int64.bits_of_float r.Batch.period in
          match Hashtbl.find_opt tbl r.Batch.fingerprint with
          | None -> Hashtbl.add tbl r.Batch.fingerprint bits
          | Some b ->
              if not (Int64.equal b bits) then
                Alcotest.failf "duplicate replies differ for %s"
                  r.Batch.fingerprint)
        responses)

(* ====================================================================== *)
(* (c) Per-shard budgets hold mid-hammer                                  *)
(* ====================================================================== *)

let test_budget_invariant_mid_hammer () =
  let shards = 4 in
  let t = Shard.create ~shards ~max_entries:16 ~max_bytes:8192 () in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  (* A dedicated prober races the writers, snapshotting each shard under
     its own lock: any moment the LRU bound is breached is caught, not
     just the post-hammer steady state. *)
  let prober =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          for i = 0 to shards - 1 do
            Shard.For_testing.with_shard t i (fun c ->
                if
                  Cache.length c > Cache.max_entries c
                  || Cache.bytes_used c > Cache.max_bytes c
                then Atomic.incr violations)
          done
        done)
  in
  let writers =
    Array.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Support.Rng.create (1000 + d) in
            for _ = 1 to 3000 do
              let fp = random_fp rng in
              Shard.add t (sample_entry ~fp ());
              ignore (Shard.find t fp)
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join prober;
  Alcotest.(check int) "no budget violation observed mid-hammer" 0
    (Atomic.get violations);
  Array.iteri
    (fun i (len, bytes) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within budget after the storm" i)
        true
        (len <= Shard.per_shard_entries t && bytes <= Shard.per_shard_bytes t))
    (Array.to_list (Shard.shard_stats t) |> Array.of_list);
  Alcotest.(check bool) "map total within the undivided budget" true
    (entries t <= 16 && bytes t <= 8192)

(* ====================================================================== *)
(* (d) Crash-mid-flush recovery, migration, stale-file cleanup            *)
(* ====================================================================== *)

let temp_base () =
  let path = Filename.temp_file "cellshard" ".json" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (path :: Cache.temp_path path
    :: List.concat_map
         (fun i ->
           let s = Printf.sprintf "%s.shard%d" path i in
           [ s; Cache.temp_path s ])
         (List.init 16 Fun.id))

let populate t rng n =
  List.init n (fun i ->
      let fp = random_fp rng in
      Shard.add t (sample_entry ~fp ~period:(1e-3 +. (1e-5 *. float_of_int i)) ());
      fp)

let test_crash_recovery () =
  with_metrics (fun () ->
      let path = temp_base () in
      Fun.protect
        ~finally:(fun () ->
          Cache.For_testing.crash_after_bytes := None;
          cleanup path)
        (fun () ->
          let rng = Support.Rng.create 7 in
          let t = Shard.create ~shards:4 () in
          let fps = populate t rng 32 in
          (match Shard.save_files ~force:true t path with
          | Ok () -> ()
          | Error m -> Alcotest.failf "baseline save failed: %s" m);
          let snapshot i =
            In_channel.with_open_bin
              (Printf.sprintf "%s.shard%d" path i)
              In_channel.input_all
          in
          let before = List.init 4 snapshot in
          (* Kill the flush mid-write of the first shard file: the bytes
             go to a sibling temp file, no rename happens, and the save
             reports the failure instead of lying. *)
          ignore (populate t rng 4);
          Cache.For_testing.crash_after_bytes := Some 25;
          (match Shard.save_files ~force:true t path with
          | Ok () -> Alcotest.fail "crashed flush reported success"
          | Error _ -> ());
          Cache.For_testing.crash_after_bytes := None;
          List.iteri
            (fun i good ->
              Alcotest.(check string)
                (Printf.sprintf "shard %d file untouched by the crash" i)
                good (snapshot i))
            before;
          (* Every shard is loadable and the previous complete snapshot
             comes back whole — no recovery event, nothing was torn. *)
          let r0 = counter_value "svc_cache_recovered_total" in
          let back = Shard.load_files ~shards:4 path in
          Alcotest.(check int) "previous snapshot loads complete" 32
            (entries back);
          Alcotest.(check int) "clean files, no recovery event" 0
            (counter_value "svc_cache_recovered_total" - r0);
          List.iter
            (fun fp ->
              if Shard.find back fp = None then
                Alcotest.failf "entry %s lost across the crash" fp)
            fps;
          (* Now actually corrupt one shard file (a torn disk, not a
             torn write): that shard recovers to empty and is counted;
             the other three load untouched. *)
          let victim = Printf.sprintf "%s.shard2" path in
          let good = In_channel.with_open_bin victim In_channel.input_all in
          Out_channel.with_open_bin victim (fun oc ->
              Out_channel.output_string oc
                (String.sub good 0 (String.length good / 2)));
          let lost =
            List.length
              (List.filter
                 (fun fp -> Shard.shard_of_fingerprint t fp = 2)
                 fps)
          in
          let r1 = counter_value "svc_cache_recovered_total" in
          let after = Shard.load_files ~shards:4 path in
          Alcotest.(check int) "exactly one recovery event" 1
            (counter_value "svc_cache_recovered_total" - r1);
          Alcotest.(check int) "only the corrupt shard's entries lost"
            (32 - lost) (entries after);
          Alcotest.(check bool) "something was actually at stake" true
            (lost > 0)))

let test_migration_and_stale_cleanup () =
  let path = temp_base () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let rng = Support.Rng.create 11 in
      let t4 = Shard.create ~shards:4 () in
      let fps = populate t4 rng 20 in
      (match Shard.save_files ~force:true t4 path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      let exists i = Sys.file_exists (Printf.sprintf "%s.shard%d" path i) in
      List.iter
        (fun i ->
          Alcotest.(check bool) (Printf.sprintf "shard%d written" i) true
            (exists i))
        [ 0; 1; 2; 3 ];
      (* Shrink 4 -> 2: every entry re-routes by its own fingerprint. *)
      let t2 = Shard.load_files ~shards:2 path in
      Alcotest.(check int) "4 files load into 2 shards" 20 (entries t2);
      List.iter
        (fun fp ->
          if Shard.find t2 fp = None then
            Alcotest.failf "entry %s lost in 4->2 migration" fp)
        fps;
      (match Shard.save_files ~force:true t2 path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "2-shard save failed: %s" m);
      Alcotest.(check bool) "stale shard2/3 files removed" false
        (exists 2 || exists 3);
      (* Collapse to 1: the plain historical filename comes back and no
         .shardN file survives to shadow it. *)
      let t1 = Shard.load_files path in
      Alcotest.(check int) "2 files load into 1 shard" 20 (entries t1);
      (match Shard.save_files ~force:true t1 path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "1-shard save failed: %s" m);
      Alcotest.(check bool) "plain file written" true (Sys.file_exists path);
      Alcotest.(check bool) "no shard file shadows it" false
        (exists 0 || exists 1);
      (* Legacy single file into a freshly sharded daemon. *)
      let t8 = Shard.load_files ~shards:8 path in
      Alcotest.(check int) "legacy file loads into 8 shards" 20
        (entries t8);
      List.iter
        (fun fp ->
          if Shard.find t8 fp = None then
            Alcotest.failf "entry %s lost in legacy migration" fp)
        fps)

(* What [cellsched cache] does with a sharded daemon's files: reading
   the plain name merges every shard, and clearing it refuses without
   force and otherwise leaves nothing for the next load to resurrect. *)
let test_inspect_and_clear_shard_files () =
  let path = temp_base () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let rng = Support.Rng.create 12 in
      let t2 = Shard.create ~shards:2 () in
      let fps = populate t2 rng 10 in
      (match Shard.save_files ~force:true t2 path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      let merged = Shard.to_cache (Shard.load_files path) in
      Alcotest.(check int) "both shard files read under the plain name" 10
        (Cache.length merged);
      List.iter
        (fun fp ->
          if Cache.find merged fp = None then
            Alcotest.failf "entry %s missing from the merged copy" fp)
        fps;
      (match Shard.save_files (Shard.create ()) path with
      | Ok () -> Alcotest.fail "an unforced clear overwrote shard files"
      | Error _ -> ());
      Alcotest.(check bool) "refusal writes no plain file" false
        (Sys.file_exists path);
      Alcotest.(check int) "refusal keeps every entry" 10
        (entries (Shard.load_files ~shards:2 path));
      (match Shard.save_files ~force:true (Shard.create ()) path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "forced clear failed: %s" m);
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "cleared cache loads empty at %d shards" n)
            0
            (entries (Shard.load_files ~shards:n path)))
        [ 1; 2 ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "traffic"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_workload_determinism;
          Alcotest.test_case "zipf skew concentrates" `Quick test_workload_skew;
          Alcotest.test_case "line round-trip" `Quick test_workload_roundtrip;
          Alcotest.test_case "round-robin split" `Quick test_workload_split;
        ] );
      ( "shard map",
        [
          Alcotest.test_case "routing: pure, in-range, spread" `Quick
            test_routing;
          Alcotest.test_case "budget split + validation" `Quick
            test_budget_split;
        ] );
      ( "hammer",
        [
          Alcotest.test_case "bitwise identity: shards x pools grid" `Quick
            test_bitwise_grid;
          qt bitwise_random_seeds;
          Alcotest.test_case "counter conservation under duplicate storm"
            `Quick test_counter_conservation;
          Alcotest.test_case "per-shard budgets hold mid-hammer" `Quick
            test_budget_invariant_mid_hammer;
        ] );
      ( "crash + migration",
        [
          Alcotest.test_case "kill mid-flush leaves every shard loadable"
            `Quick test_crash_recovery;
          Alcotest.test_case "shard-count migration + stale cleanup" `Quick
            test_migration_and_stale_cleanup;
          Alcotest.test_case "inspect and clear a sharded cache by its name"
            `Quick test_inspect_and_clear_shard_files;
        ] );
    ]
