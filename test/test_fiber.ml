(* Tests for the effects-based fiber layer (lib/par/fiber) and its
   integration through the serving stack: spawn/await/yield semantics,
   nested-await helping without deadlock, deterministic exception
   propagation, qcheck scheduler-interleaving properties (random
   spawn/await/yield DAGs bitwise identical at pools 1/2/4, Incumbent
   winners included), a 10k-fiber cache hammer against a 4-way shard,
   and the daemon-over-fibers contract: transcripts bitwise equal to
   the fiber-less daemon across pools and in-flight windows, with
   inline cache hits overtaking long dives. *)

module Pool = Par.Pool
module Fiber = Par.Fiber
module Incumbent = Cellsched.Incumbent
module P = Cell.Platform
module Req = Service.Request
module Cache = Service.Cache
module Shard = Service.Shard
module Server = Daemon.Server

let pool_sizes = [ 1; 2; 4 ]

exception Boom of int

(* ====================================================================== *)
(* Spawn / await / yield semantics                                        *)
(* ====================================================================== *)

let test_spawn_await () =
  Pool.with_pool ~size:2 (fun p ->
      (* external entry: run a root fiber from a non-pool domain *)
      let v = Fiber.run p (fun () -> 6 * 7) in
      Alcotest.(check int) "run returns the body's value" 42 v;
      (* inside a fiber, spawn needs no ~pool: Pool.self finds it *)
      let v =
        Fiber.run p (fun () ->
            let a = Fiber.spawn (fun () -> 40) in
            let b = Fiber.spawn (fun () -> 2) in
            Fiber.await a + Fiber.await b)
      in
      Alcotest.(check int) "default-pool children" 42 v);
  match Fiber.spawn (fun () -> ()) with
  | _ -> Alcotest.fail "spawn outside any pool must raise"
  | exception Invalid_argument _ -> ()

let test_await_resolved () =
  Pool.with_pool ~size:1 (fun p ->
      let f = Fiber.spawn ~pool:p (fun () -> 17) in
      Alcotest.(check int) "first await" 17 (Fiber.await f);
      (* a resolved fiber can be awaited again, from anywhere *)
      Alcotest.(check int) "second await (fast path)" 17 (Fiber.await f);
      Alcotest.(check int) "await inside a fiber"
        34
        (Fiber.run p (fun () -> Fiber.await f + Fiber.await f)))

(* Binary spawn tree: every interior fiber suspends on two children.
   1024 leaves exercise suspension depth and cross-domain resumption at
   every pool size. *)
let test_nested_tree () =
  let rec tree d = if d = 0 then 1 else
      let l = Fiber.spawn (fun () -> tree (d - 1)) in
      let r = tree (d - 1) in
      Fiber.await l + r
  in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "pool %d: 2^10 leaves" size)
            1024
            (Fiber.run p (fun () -> tree 10))))
    pool_sizes

(* A 300-deep await chain on a single domain: each level spawns a child
   and suspends on it. Coarse thunk nesting at this depth would stack
   300 helping frames; fibers park each level and run the child on a
   fresh task, so one worker drains the whole chain. *)
let test_deep_chain_one_domain () =
  Pool.with_pool ~size:1 (fun p ->
      let rec go d =
        if d = 0 then 0
        else 1 + Fiber.await (Fiber.spawn (fun () -> go (d - 1)))
      in
      Alcotest.(check int) "chain of 300 awaits" 300
        (Fiber.run p (fun () -> go 300)))

(* The two non-fiber await paths: a plain pool task helps (runs tasks
   while blocked); the main domain spin-waits. *)
let test_await_outside_fiber () =
  Pool.with_pool ~size:2 (fun p ->
      let f = Fiber.spawn ~pool:p (fun () -> 5) in
      Alcotest.(check int) "main-domain await" 5 (Fiber.await f);
      let r = Atomic.make 0 in
      Pool.run_async p (fun () ->
          Atomic.set r (Fiber.await (Fiber.spawn (fun () -> 7)) + 1));
      Pool.help_until p (fun () -> Atomic.get r <> 0);
      Alcotest.(check int) "pool-task await helps" 8 (Atomic.get r))

let test_yield_outside_fiber () =
  (* safe anywhere: should_stop hooks call it unconditionally *)
  Fiber.yield ();
  let tick = Fiber.yielder ~every:3 in
  tick (); tick (); tick (); tick ();
  (match Sys.opaque_identity (Fiber.yielder ~every:0) with
  | (_ : unit -> unit) -> Alcotest.fail "yielder ~every:0 must raise"
  | exception Invalid_argument _ -> ());
  Pool.with_pool ~size:1 (fun p ->
      Alcotest.(check int) "yield inside fibers, yielder ticking" 9
        (Fiber.run p (fun () ->
             let tick = Fiber.yielder ~every:2 in
             let acc = ref 0 in
             for i = 1 to 9 do
               tick ();
               acc := !acc + 1;
               ignore i
             done;
             !acc)))

(* 1000 fibers x 50 yields: every yield re-enqueues the continuation,
   so the counter must come back exact — no lost or duplicated
   resumptions under heavy rescheduling. *)
(* Run [f] on a fresh domain and wait at most [seconds] for its result.
   A run that has not returned by then fails the test by name instead of
   stalling the suite; its domain is abandoned (the process exits without
   joining it). *)
let with_watchdog ~seconds name f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 1e-3
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "%s: hung, no result after %.0f s" name seconds
  | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)

(* The pool-4 half has been seen to hang: the main thread naps in
   [Pool.wait_until] while all four workers sit parked, so some runnable
   fiber is invisible to them (a lost wakeup or lost work). The watchdog
   turns that into a failure after a fixed bound. *)
let test_yield_storm () =
  List.iter
    (fun size ->
      let total, counter =
        with_watchdog ~seconds:60. (Printf.sprintf "yield storm, pool %d" size) (fun () ->
            Pool.with_pool ~size (fun p ->
                let counter = Atomic.make 0 in
                let total =
                  Fiber.run p (fun () ->
                      Fiber.parallel_map
                        (fun _ ->
                          let mine = ref 0 in
                          for _ = 1 to 50 do
                            Atomic.incr counter;
                            incr mine;
                            Fiber.yield ()
                          done;
                          !mine)
                        (Array.init 1000 Fun.id))
                  |> Array.fold_left ( + ) 0
                in
                (total, Atomic.get counter)))
      in
      Alcotest.(check int)
        (Printf.sprintf "pool %d: per-fiber sums" size)
        50_000 total;
      Alcotest.(check int)
        (Printf.sprintf "pool %d: shared counter" size)
        50_000 counter)
    [ 1; 4 ]

(* Yield is what shares one domain between a spinner and the fiber it
   waits on: without the re-enqueue the spinner would monopolize the
   only worker and this test would spin its bound out. *)
let test_yield_shares_domain () =
  Pool.with_pool ~size:1 (fun p ->
      let spins =
        Fiber.run p (fun () ->
            let flag = Atomic.make false in
            let spinner =
              Fiber.spawn (fun () ->
                  let n = ref 0 in
                  while (not (Atomic.get flag)) && !n < 1_000_000 do
                    incr n;
                    Fiber.yield ()
                  done;
                  !n)
            in
            let setter = Fiber.spawn (fun () -> Atomic.set flag true) in
            Fiber.await setter;
            Fiber.await spinner)
      in
      Alcotest.(check bool)
        (Printf.sprintf "spinner saw the flag after %d yields" spins)
        true
        (spins < 1_000_000))

(* ====================================================================== *)
(* Exception propagation                                                  *)
(* ====================================================================== *)

let test_exception_chain () =
  Pool.with_pool ~size:2 (fun p ->
      (* leaf raises; every awaiting ancestor re-raises; the root run
         surfaces the original exception *)
      match
        Fiber.run p (fun () ->
            Fiber.await
              (Fiber.spawn (fun () ->
                   Fiber.await (Fiber.spawn (fun () -> raise (Boom 3))) + 1))
            + 1)
      with
      | _ -> Alcotest.fail "must re-raise through the chain"
      | exception Boom i -> Alcotest.(check int) "leaf exception at root" 3 i)

let test_parallel_map_determinism () =
  Pool.with_pool ~size:4 (fun p ->
      let squares =
        Fiber.run p (fun () ->
            Fiber.parallel_map (fun i -> i * i) (Array.init 64 Fun.id))
      in
      Alcotest.(check (array int)) "values in index order"
        (Array.init 64 (fun i -> i * i))
        squares;
      let completed = Atomic.make 0 in
      (match
         Fiber.run p (fun () ->
             Fiber.parallel_map
               (fun i ->
                 Atomic.incr completed;
                 if i mod 3 = 1 then raise (Boom i) else i)
               (Array.init 30 Fun.id))
       with
      | _ -> Alcotest.fail "must raise"
      | exception Boom i ->
          Alcotest.(check int) "lowest-index error wins" 1 i);
      Alcotest.(check int) "every fiber ran before the raise" 30
        (Atomic.get completed))

(* ====================================================================== *)
(* qcheck: random spawn/await/yield DAGs, bitwise across pool sizes       *)
(* ====================================================================== *)

(* One seeded DAG: node i awaits a seeded subset of nodes j < i (mixing
   their values into its own), yields a seeded number of times, may
   spawn-and-await a nested child, and may raise Boom i. Every decision
   is drawn before any fiber starts, so the value flow is a pure
   function of the seed — what the scheduler interleaves must not
   matter. Each non-raising node also offers a candidate to a shared
   Incumbent; its strict total order makes the winner a function of the
   candidate set alone. *)
type dag = {
  n : int;
  preds : int list array;  (* strictly smaller indices *)
  yields : int array;
  nested : bool array;
  raises : bool array;
}

let make_dag ~seed ~n ~fail =
  let rng = Support.Rng.create seed in
  {
    n;
    preds =
      Array.init n (fun i ->
          List.filter
            (fun _ -> Support.Rng.int rng 100 < 40)
            (List.init i Fun.id));
    yields = Array.init n (fun _ -> Support.Rng.int rng 3);
    nested = Array.init n (fun _ -> Support.Rng.int rng 100 < 30);
    raises =
      Array.init n (fun i ->
          fail && i > 0 && Support.Rng.int rng 100 < 15);
  }

let mix acc v = (acc lxor v) * 0x01000193 land 0x3FFFFFFF

(* Runs the DAG on a pool of [size]; returns per-node outcomes (value
   or exception text) and the Incumbent winner. *)
let run_dag dag ~size =
  Pool.with_pool ~size (fun p ->
      let inc = Incumbent.create () in
      let outcomes =
        Fiber.run p (fun () ->
            let fibers : int Fiber.t option array = Array.make dag.n None in
            for i = 0 to dag.n - 1 do
              fibers.(i) <-
                Some
                  (Fiber.spawn (fun () ->
                       let acc = ref (mix 0 (i + 1)) in
                       List.iter
                         (fun j ->
                           acc := mix !acc (Fiber.await (Option.get fibers.(j)));
                           if (i + j) land 1 = 0 then Fiber.yield ())
                         dag.preds.(i);
                       for _ = 1 to dag.yields.(i) do
                         Fiber.yield ()
                       done;
                       if dag.nested.(i) then begin
                         let c = Fiber.spawn (fun () -> mix !acc 0x5bd1e995) in
                         Fiber.yield ();
                         acc := mix !acc (Fiber.await c)
                       end;
                       if dag.raises.(i) then raise (Boom i);
                       let v = !acc in
                       ignore
                         (Incumbent.offer inc
                            ~period:(1e-3 +. (float_of_int (v land 0xFF) *. 1e-5))
                            [| i; v land 7 |]);
                       v))
            done;
            Array.init dag.n (fun i ->
                match Fiber.await (Option.get fibers.(i)) with
                | v -> Ok v
                | exception e -> Error (Printexc.to_string e)))
      in
      let winner =
        match Incumbent.best inc with
        | None -> None
        | Some e ->
            Some
              ( Int64.bits_of_float e.Incumbent.period,
                e.Incumbent.fp,
                Array.to_list e.Incumbent.arr )
      in
      (outcomes, winner))

let dag_deterministic =
  QCheck.Test.make ~count:120
    ~name:"random spawn/await/yield DAGs bitwise at pools 1/2/4"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 24))
    (fun (seed, n) ->
      let dag = make_dag ~seed ~n ~fail:false in
      let r1 = run_dag dag ~size:1 in
      List.iter
        (fun size ->
          if run_dag dag ~size <> r1 then
            QCheck.Test.fail_reportf
              "pool=%d: results or incumbent differ (seed %d, n %d)" size seed
              n)
        [ 2; 4 ];
      true)

let dag_exceptions_deterministic =
  QCheck.Test.make ~count:60
    ~name:"leaf exceptions re-raise deterministically at any pool size"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 16))
    (fun (seed, n) ->
      let dag = make_dag ~seed ~n ~fail:true in
      let r1 = run_dag dag ~size:1 in
      (* a raising node fails its awaiting ancestors in await order, so
         the full Ok/Error vector — not just the root — must agree *)
      List.iter
        (fun size ->
          if run_dag dag ~size <> r1 then
            QCheck.Test.fail_reportf
              "pool=%d: failure propagation differs (seed %d, n %d)" size seed
              n)
        [ 2; 4 ];
      true)

(* ====================================================================== *)
(* Stress: 10k fibers hammer a 4-way shard                                *)
(* ====================================================================== *)

let hex = "0123456789abcdef"
let random_fp rng = String.init 32 (fun _ -> hex.[Support.Rng.int rng 16])

let sample_entry ~fp =
  {
    Cache.fingerprint = fp;
    strategy = "portfolio:seed=1,restarts=2";
    canonical_assignment = [| 0; 1; 2; 1 |];
    period = 1.25e-3;
    feasible = true;
    throughput = 800.;
    bottleneck = "SPE1 interface (in)";
  }

let test_fiber_hammer () =
  let shards = 4 in
  let t = Shard.create ~shards ~max_entries:32 ~max_bytes:16384 () in
  let view = Shard.view t in
  let requests = 10_000 in
  (* 64 distinct problems, so fibers collide on fingerprints and the
     shards turn over their LRU budgets mid-storm *)
  let rng = Support.Rng.create 4242 in
  let population = Array.init 64 (fun _ -> random_fp rng) in
  let ops =
    Array.init requests (fun _ ->
        population.(Support.Rng.int rng (Array.length population)))
  in
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  (* an out-of-pool prober snapshots every shard under its own lock
     while the storm runs: budgets must hold at every instant *)
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
  Pool.with_pool ~size:4 (fun p ->
      ignore
        (Fiber.run p (fun () ->
             Fiber.parallel_map
               (fun fp ->
                 (* classify exactly once per request: hit or miss *)
                 (match view.Cache.probe fp with
                 | Some _ -> Atomic.incr hits
                 | None ->
                     Atomic.incr misses;
                     view.Cache.insert (sample_entry ~fp));
                 Fiber.yield ())
               ops)));
  Atomic.set stop true;
  Domain.join prober;
  Alcotest.(check int) "hits + misses = requests" requests
    (Atomic.get hits + Atomic.get misses);
  Alcotest.(check bool) "some of each under a 64-problem zipf-less mix" true
    (Atomic.get hits > 0 && Atomic.get misses > 0);
  Alcotest.(check int) "no budget violation observed mid-storm" 0
    (Atomic.get violations);
  Array.iteri
    (fun i (len, bytes) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within budget after the storm" i)
        true
        (len <= Shard.per_shard_entries t && bytes <= Shard.per_shard_bytes t))
    (Shard.shard_stats t)

(* ====================================================================== *)
(* Daemon over fibers                                                     *)
(* ====================================================================== *)

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:
      { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

let graph_table =
  lazy
    (let rng = Support.Rng.create 23 in
     [
       ("gA", random_graph rng 10);
       ("gB", random_graph rng 14);
       ("gC", random_graph rng 8);
     ])

let load_graph name =
  match List.assoc_opt name (Lazy.force graph_table) with
  | Some g -> g
  | None -> raise (Sys_error (name ^ ": no such graph"))

let bb_strategy = Req.Bb { rel_gap = 0.05; max_nodes = 200 }

type harness = {
  server : Server.t;
  out : Buffer.t;
  replies : Server.reply list ref;  (* reverse arrival order *)
}

let harness ?(fibers = false) ?(concurrency = 1) ?(max_inflight = 32)
    ?(strategy = bb_strategy) () =
  let replies = ref [] in
  let server =
    Server.create
      ~on_reply:(fun r -> replies := r :: !replies)
      ~load_graph
      {
        Server.default_config with
        Server.bound = 32;
        concurrency;
        fibers;
        max_inflight;
        flush_period = 0.;
        default_strategy = strategy;
      }
  in
  { server; out = Buffer.create 1024; replies }

let feed h line = Server.handle_line h.server ~out:(Buffer.add_string h.out) line
let output h = Buffer.contents h.out

let replied h id =
  List.exists (fun (r : Server.reply) -> r.Server.id = id) !(h.replies)

let grid_lines =
  [
    "gA spes=6 id=a";
    "gB spes=6 id=b";
    "gA spes=6 id=a2" (* duplicate of a: dispatch-time hit *);
    "gC spes=4 id=c";
    "gB spes=6 id=b2" (* duplicate of b *);
    "gA spes=4 id=d" (* same graph, distinct platform: a miss *);
  ]

let run_grid ~fibers ~concurrency ~max_inflight =
  let h = harness ~fibers ~concurrency ~max_inflight () in
  List.iter (feed h) grid_lines;
  Server.drain h.server;
  Server.finish h.server;
  (output h, Server.stats h.server)

(* The tentpole acceptance bar: the pooled daemon's transcript — reply
   bytes and order, duplicate classification included — is the inline
   daemon's transcript, at every pool size and in-flight window. The
   [fibers = false] rows at concurrency 2 and 4 are [serve --parallel N]
   without [--fibers], which gets a pool too. *)
let test_daemon_transcript_grid () =
  let reference, ref_stats = run_grid ~fibers:false ~concurrency:1 ~max_inflight:32 in
  Alcotest.(check bool) "reference transcript non-trivial" true
    (String.length reference > 200);
  Alcotest.(check int) "reference: both duplicates hit" 2 ref_stats.Server.hits;
  Alcotest.(check int) "reference: four solves" 4 ref_stats.Server.solved;
  let grid =
    List.concat_map
      (fun size -> List.map (fun m -> (true, size, m)) [ 1; 4; 16 ])
      pool_sizes
    @ [ (false, 2, 32); (false, 4, 32) ]
  in
  List.iter
    (fun (fibers, size, max_inflight) ->
      let transcript, stats = run_grid ~fibers ~concurrency:size ~max_inflight in
      let label =
        Printf.sprintf "fibers %b, pool %d, max_inflight %d" fibers size
          max_inflight
      in
      Alcotest.(check string)
        (label ^ ": transcript bitwise equal") reference transcript;
      Alcotest.(check int) (label ^ ": hits agree") ref_stats.Server.hits
        stats.Server.hits;
      Alcotest.(check int) (label ^ ": solved agree")
        ref_stats.Server.solved stats.Server.solved)
    grid

(* The starvation fix, pinned on the transcript: with fibers the main
   loop never runs a solve, so a warm-cache hit submitted after a long
   dive replies inline — zero poll ticks — while the dive is still in
   flight. The fiber-less concurrency-1 daemon blocks its loop on the
   same dive, reversing the order. *)
let long_bb = Req.Bb { rel_gap = 0.; max_nodes = 4_000 }

let test_hit_overtakes_long_dive () =
  let h = harness ~fibers:true ~concurrency:1 ~max_inflight:4 ~strategy:long_bb () in
  (* warm the cache with gC *)
  feed h "gC spes=4 id=warm";
  Server.drain h.server;
  Alcotest.(check bool) "warmed" true (replied h "warm");
  (* a long dive: dispatched onto a fiber by the first poll *)
  feed h "gA spes=6 id=slow";
  Server.poll h.server;
  Alcotest.(check bool) "dive still in flight" false (replied h "slow");
  (* the hit replies inline, before any further poll *)
  feed h "gC spes=4 id=fast";
  Alcotest.(check bool) "hit replied with zero poll ticks" true
    (replied h "fast");
  Alcotest.(check bool) "dive still unreplied" false (replied h "slow");
  Server.drain h.server;
  Server.finish h.server;
  Alcotest.(check bool) "dive eventually replied" true (replied h "slow");
  let pos sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  let transcript = output h in
  let fast = pos "BEGIN fast" transcript and slow = pos "BEGIN slow" transcript in
  Alcotest.(check bool) "transcript: fast before slow" true
    (fast >= 0 && slow >= 0 && fast < slow);
  (* contrast: the fiber-less daemon solves inline in poll, so the same
     driving sequence replies to the dive first *)
  let h = harness ~fibers:false ~concurrency:1 ~strategy:long_bb () in
  feed h "gC spes=4 id=warm";
  Server.drain h.server;
  feed h "gA spes=6 id=slow";
  Server.poll h.server;
  Alcotest.(check bool) "inline daemon finished the dive in poll" true
    (replied h "slow");
  feed h "gC spes=4 id=fast";
  Server.finish h.server;
  let transcript = output h in
  let fast = pos "BEGIN fast" transcript and slow = pos "BEGIN slow" transcript in
  Alcotest.(check bool) "transcript: slow before fast without fibers" true
    (fast >= 0 && slow >= 0 && slow < fast)

(* Queued duplicates under a wide-open in-flight window: one solve, the
   rest wait for its slot and then hit — never a second solve. *)
let test_fiber_duplicate_storm () =
  let h = harness ~fibers:true ~concurrency:2 ~max_inflight:16 () in
  for i = 1 to 8 do
    feed h (Printf.sprintf "gB spes=6 id=dup%d" i)
  done;
  Server.drain h.server;
  Server.finish h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "one solve" 1 s.Server.solved;
  Alcotest.(check int) "seven dispatch hits" 7 s.Server.hits;
  Alcotest.(check int) "every duplicate replied" 8 s.Server.replies;
  for i = 1 to 8 do
    Alcotest.(check bool) (Printf.sprintf "dup%d replied" i) true
      (replied h (Printf.sprintf "dup%d" i))
  done

(* Deadline-expired partials flow through the fiber sequencer like any
   other outcome — replied, tagged partial, never cached. *)
let test_fiber_deadline_partial () =
  let h = harness ~fibers:true ~concurrency:1 ~max_inflight:4 () in
  feed h "gB spes=6 deadline=0.001 id=p1";
  Server.drain h.server;
  Server.finish h.server;
  let r =
    match
      List.find_opt (fun (r : Server.reply) -> r.Server.id = "p1") !(h.replies)
    with
    | Some r -> r
    | None -> Alcotest.fail "no reply for p1"
  in
  Alcotest.(check bool) "partial status" true (r.Server.status = `Partial);
  let response = Option.get r.Server.response in
  Alcotest.(check bool) "feasible incumbent" true response.Service.Batch.feasible;
  Alcotest.(check (option reject)) "never cached" None
    (Option.map ignore
       (Shard.find (Server.shard h.server) response.Service.Batch.fingerprint));
  let s = Server.stats h.server in
  Alcotest.(check int) "counted partial" 1 s.Server.partials;
  Alcotest.(check int) "not counted solved" 0 s.Server.solved

(* ====================================================================== *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fiber"
    [
      ( "fiber",
        [
          Alcotest.test_case "spawn/await + default pool" `Quick test_spawn_await;
          Alcotest.test_case "await resolved (fast path)" `Quick
            test_await_resolved;
          Alcotest.test_case "nested spawn tree, pools 1/2/4" `Quick
            test_nested_tree;
          Alcotest.test_case "300-deep await chain on one domain" `Quick
            test_deep_chain_one_domain;
          Alcotest.test_case "await outside fibers helps/blocks" `Quick
            test_await_outside_fiber;
          Alcotest.test_case "yield no-op outside; yielder cadence" `Quick
            test_yield_outside_fiber;
          Alcotest.test_case "yield storm conservation" `Quick test_yield_storm;
          Alcotest.test_case "yield shares a single domain" `Quick
            test_yield_shares_domain;
          Alcotest.test_case "exception re-raises through await chain" `Quick
            test_exception_chain;
          Alcotest.test_case "parallel_map order + lowest-index error" `Quick
            test_parallel_map_determinism;
        ] );
      ( "determinism",
        [ qt dag_deterministic; qt dag_exceptions_deterministic ] );
      ( "stress",
        [ Alcotest.test_case "10k fibers vs 4-way shard" `Quick test_fiber_hammer ] );
      ( "daemon",
        [
          Alcotest.test_case "transcript bitwise grid" `Quick
            test_daemon_transcript_grid;
          Alcotest.test_case "hit overtakes a long dive" `Quick
            test_hit_overtakes_long_dive;
          Alcotest.test_case "duplicate storm: one solve" `Quick
            test_fiber_duplicate_storm;
          Alcotest.test_case "deadline partial over fibers" `Quick
            test_fiber_deadline_partial;
        ] );
    ]
