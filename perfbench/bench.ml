(* The repository benchmark: four seeded in-process workloads driven
   through the entry points the CLI uses, timed by best-of-R replays.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   hit-replay, cold-solve and burst-mix feed request lines to
   [Daemon.Server.handle_line] and advance it with [poll], exactly as the
   [serve] loops do (metrics enabled, no sockets); lp-relax calls
   [Cellsched.Heuristics.lp_rounding] as [map -s lp-round] does.

   Every request of a workload is replayed in R rounds spread over the
   run; a request's latency is the best of its R replays. Exact counts
   (allocated words, solver counters, cache probes) must repeat in every
   round. With --trace 0 the last stdout line is a JSON object with the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics,
   timed from here around calls into each layer's public functions and
   read from the counters and span trees the program already keeps.
   Human-readable detail goes to the lines before it. The exit code is
   non-zero when any output check fails. See README.md. *)

module G = Streaming.Graph
module T = Streaming.Task
module Req = Service.Request
module Batch = Service.Batch
module Shard = Service.Shard
module Server = Daemon.Server
module Protocol = Daemon.Protocol
module SS = Cellsched.Steady_state
module M = Cellsched.Mapping
module Rng = Support.Rng

(* Nanosecond monotonic clock: hit latencies are tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let minor_words = Gc.minor_words
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- command line ----------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; traced : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hit-replay|cold-solve|burst-mix|lp-relax");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace <> 0 }

(* --- statistics ------------------------------------------------------- *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* Nearest-rank percentile of an ascending array. *)
let rank_of n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))
let percentile s p = s.(rank_of (Array.length s) p - 1)
let median a = if a = [||] then 0. else percentile (sorted a) 50.
let mean a = if a = [||] then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The highest percentile of the ladder that leaves at least ten samples
   beyond it (falls back to the median for tiny sets). *)
let tail s =
  let n = Array.length s in
  let p =
    List.find_opt
      (fun p -> n - rank_of n p >= 10)
      [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75.; 50. ]
    |> Option.value ~default:50.
  in
  (p, percentile s p, n - rank_of n p)

let geomean l =
  match l with
  | [] -> 0.
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of this process, from the kernel. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* --- counters ---------------------------------------------------------- *)

(* The program's own counters (registration is idempotent by name, so
   these are the very cells the layers bump). *)
let counter name = Obs.Metrics.counter name
let c_probes = counter "search_eval_probes_total"
let c_nodes = counter "search_bb_nodes_total"
let c_pruned = counter "search_bb_pruned_total"
let c_pivots = counter "lp_simplex_pivots_total"
let c_lp_solves = counter "lp_simplex_solves_total"
let c_candidates = counter "portfolio_candidates_total"
let c_ls_moves = counter "search_ls_moves_accepted_total"
let c_ls_swaps = counter "search_ls_swaps_accepted_total"
let c_rejects = counter "svc_transport_rejects_total"
let c_hits = counter "daemon_hits_total"
let c_solved = counter "daemon_solved_total"
let c_partial = counter "daemon_partial_total"

let c_shard_probes =
  Obs.Metrics.counter_family "svc_shard_probes_total" ~labels:[ "shard" ] [ "0" ]

let counted =
  [
    ("eval_probes", c_probes);
    ("bb_nodes", c_nodes);
    ("bb_pruned", c_pruned);
    ("simplex_pivots", c_pivots);
    ("simplex_solves", c_lp_solves);
    ("portfolio_candidates", c_candidates);
    ("ls_accepted", c_ls_moves);
    ("ls_swaps", c_ls_swaps);
    ("transport_rejects", c_rejects);
    ("shard_probes", c_shard_probes);
    ("daemon_hits", c_hits);
    ("daemon_solved", c_solved);
    ("daemon_partial", c_partial);
  ]

let snapshot () = List.map (fun (n, c) -> (n, Obs.Metrics.Counter.value c)) counted
let delta a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b
let get counts name = float_of_int (List.assoc name counts)

(* --- inputs ------------------------------------------------------------ *)

let daggen rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* An isomorphic copy: tasks renamed and reordered by a random
   permutation, edge list shuffled. *)
let relabel rng g =
  let n = G.n_tasks g in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let pos = Array.make n 0 in
  Array.iteri (fun p old -> pos.(old) <- p) perm;
  let tasks =
    Array.init n (fun p -> { (G.task g perm.(p)) with T.name = Printf.sprintf "x%d" p })
  in
  let edges =
    Array.init (G.n_edges g) (fun e ->
        let { G.src; dst; data_bytes } = G.edge g e in
        (pos.(src), pos.(dst), data_bytes))
  in
  Rng.shuffle rng edges;
  G.of_tasks tasks (Array.to_list edges)

(* One independent stream per (seed, purpose, index). *)
let rng_for seed salt k = Rng.create ((seed * 1_000_003) + (salt * 10_007) + k)

(* A workload's DagGen graphs come from a fixed corpus (shapes and costs
   do not depend on the seed); the seed relabels each one into an
   isomorphic copy with permuted task ids and shuffled edges. That changes
   every id-order tie-break, random restart and simplex column order,
   while each seed's round holds a comparable amount of work. *)
let corpus_dag ~seed ~salt k n = relabel (rng_for seed salt k) (daggen (rng_for 0 (salt + 100) k) n)

(* A zipf(skew) stream over ranks 0..n-1 by exact quotas: rank k appears
   in proportion to 1/(k+1)^skew (largest remainders), in seeded order.
   Ranks are fixed by the workload, so every seed replays the same mix;
   the seed decides only the order. *)
let zipf rng ~skew ~n ~len =
  let w = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) skew) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. total *. float_of_int len) w in
  let quota = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let short = len - Array.fold_left ( + ) 0 quota in
  let by_remainder =
    List.sort
      (fun a b -> compare (exact.(b) -. Float.floor exact.(b)) (exact.(a) -. Float.floor exact.(a)))
      (List.init n Fun.id)
  in
  List.iteri (fun j k -> if j < short then quota.(k) <- quota.(k) + 1) by_remainder;
  let stream = Array.concat (Array.to_list (Array.mapi (fun k q -> Array.make q k) quota)) in
  Rng.shuffle rng stream;
  stream

let bb_strategy = Req.Bb { rel_gap = 0.05; max_nodes = 2_000 }

let request ?deadline_ms ?(prio = 0) ~label ~graph ~spes strategy =
  {
    Req.label;
    platform = Cell.Platform.qs22 ~n_spe:spes ();
    graph;
    strategy;
    deadline_ms;
    prio;
  }

let root_bound (r : Req.t) =
  Cellsched.Bounds.(root_bound (create r.Req.platform r.Req.graph))

let strategy_name (r : Req.t) =
  match r.Req.strategy with Req.Portfolio _ -> "portfolio" | Req.Bb _ -> "bb"

(* --- correctness ledger ------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if List.length !failures < 20 then failures := m :: !failures)
    fmt

let check cond fmt = Printf.ksprintf (fun m -> if not cond then fail "%s" m) fmt

(* --- the daemon driver -------------------------------------------------- *)

type engine = {
  server : Server.t;
  last : Server.reply option ref;  (* closed loop: the one reply *)
  replies : (string, Server.reply) Hashtbl.t;  (* bursts: by id *)
}

let engine ?(fibers = false) (requests : Req.t list) =
  let graphs = Hashtbl.create 64 in
  List.iter (fun (r : Req.t) -> Hashtbl.replace graphs r.Req.label r.Req.graph) requests;
  let load_graph label =
    match Hashtbl.find_opt graphs label with
    | Some g -> g
    | None -> raise (Sys_error (label ^ ": unknown graph"))
  in
  let last = ref None and replies = Hashtbl.create 64 in
  let on_reply r =
    if fibers then Hashtbl.replace replies r.Server.id r else last := Some r
  in
  let server =
    Server.create ~on_reply ~load_graph
      { Server.default_config with fibers; concurrency = 1 }
  in
  { server; last; replies }

(* One closed-loop request: hand the line over, poll until the reply is
   written. Returns (reply text, receipt-to-reply seconds, minor words). *)
let closed_send e line =
  let text = ref "" and t_reply = ref 0. in
  let out s =
    t_reply := now ();
    text := s
  in
  e.last := None;
  let w0 = minor_words () in
  let t0 = now () in
  Server.handle_line e.server ~out line;
  Server.poll e.server;
  while not (Server.idle e.server) do
    Server.poll e.server
  done;
  let w1 = minor_words () in
  (!text, !t_reply -. t0, w1 -. w0)

let last_reply e =
  match !(e.last) with Some r -> r | None -> failwith "no reply recorded"

(* TRACE <id> over the protocol: per-stage span durations in ms. *)
let trace_stages e id =
  let buf = Buffer.create 512 in
  Server.handle_line e.server ~out:(Buffer.add_string buf) ("TRACE " ^ id);
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | "span" :: path :: dur :: _ when String.length dur > 7 && String.sub dur 0 7 = "dur_ms=" ->
             Some (path, float_of_string (String.sub dur 7 (String.length dur - 7)))
         | _ -> None)

type stage_tally = {
  mutable queue_ms : float list;
  mutable reply_us : float list;
  mutable pf_ms : float list;
  mutable bb_ms : float list;
}

let stage_tally () = { queue_ms = []; reply_us = []; pf_ms = []; bb_ms = [] }

let record_stages tally ~strategy stages =
  List.iter
    (fun (path, ms) ->
      match path with
      | "/request/queue" -> tally.queue_ms <- ms :: tally.queue_ms
      | "/request/reply" -> tally.reply_us <- (ms *. 1000.) :: tally.reply_us
      | "/request/solve" when strategy <> "" ->
          if strategy = "bb" then tally.bb_ms <- ms :: tally.bb_ms
          else tally.pf_ms <- ms :: tally.pf_ms
      | _ -> ())
    stages

(* --- rounds -------------------------------------------------------------- *)

type round = {
  lat : float array;  (* per-request seconds *)
  words : float;  (* minor words of the timed windows *)
  wall : float;  (* seconds from first send to last reply *)
  counts : (string * int) list;
  transcript : string;
  traced_round : bool;
  majors : int;
}

(* Rounds alternate untraced/traced in a traced run (the difference is
   the tracing overhead) and are all untraced otherwise. They continue
   until [seconds] have passed and at least [min_rounds] ran. *)
let run_rounds ?(between = ignore) ~args ~min_rounds ~max_rounds f =
  let t_end = now () +. args.seconds in
  let rec go r acc =
    if r >= max_rounds || (r >= min_rounds && now () >= t_end) then List.rev acc
    else begin
      let traced = args.traced && r mod 2 = 1 in
      let c0 = snapshot () and m0 = (Gc.quick_stat ()).Gc.major_collections in
      let lat, words, wall, transcript = f ~round:r ~traced in
      let counts = delta c0 (snapshot ()) in
      let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
      between ();
      go (r + 1) ({ lat; words; wall; counts; transcript; traced_round = traced; majors } :: acc)
    end
  in
  go 0 []

let best_of rounds =
  match rounds with
  | [] -> [||]
  | r0 :: _ ->
      Array.init (Array.length r0.lat) (fun i ->
          List.fold_left (fun m r -> Float.min m r.lat.(i)) infinity rounds)

(* Exact-count assertions across rounds. *)
let assert_exact ~name rounds ~exact_words ~keys =
  match rounds with
  | [] -> ()
  | r0 :: rest ->
      List.iteri
        (fun k r ->
          if exact_words && r.words <> r0.words then
            fail "%s: round %d allocated %.0f words, round 0 %.0f" name (k + 1) r.words r0.words;
          List.iter
            (fun key ->
              if List.assoc key r.counts <> List.assoc key r0.counts then
                fail "%s: round %d %s=%d, round 0 %d" name (k + 1) key
                  (List.assoc key r.counts) (List.assoc key r0.counts))
            keys)
        rest

(* Set-up, repeated: at least three times and until a quarter second has
   been spent (at most 500) before the first round. A cheap set-up is also
   repeated for 50 ms after every round, so its median spans the run
   instead of one moment of the host. *)
type 'a setup = { run : unit -> 'a; mutable times : float list }

let setup_once s =
  let t0 = now () in
  let v = s.run () in
  s.times <- (now () -. t0) :: s.times;
  v

let timed_setup f =
  let s = { run = f; times = [] } in
  let v = ref (setup_once s) in
  while
    List.length s.times < 3
    || (List.fold_left ( +. ) 0. s.times < 0.25 && List.length s.times < 500)
  do
    v := setup_once s
  done;
  (s, !v)

let between_rounds s () =
  if median (Array.of_list s.times) < 0.05 then begin
    let t_end = now () +. 0.05 in
    while now () < t_end do
      ignore (setup_once s)
    done
  end

let setup_summary s =
  let a = Array.of_list s.times in
  (median a, Array.fold_left Float.min infinity a, Array.length a)

(* --- per-layer micro timings (traced runs) ------------------------------- *)

let best_time ?(reps = 3) f =
  let best = ref infinity and words = ref 0. in
  for _ = 1 to reps do
    let w0 = minor_words () in
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    let dt = now () -. t0 in
    words := minor_words () -. w0;
    best := Float.min !best dt
  done;
  (!best, !words)

let sweep_layers =
  [
    "daemon.protocol.parse";
    "streaming.canonical.fingerprint";
    "service.shard.probe";
    "service.batch.transport";
    "service.batch.render";
  ]

(* The hit path split by layer over one workload's lines: parse,
   fingerprint, shard probe, transport/validation (the rest of
   [try_cache_view]) and render. Returns (name, us, kwords) rows. *)
let layer_sweep ~requests ~lines ~shard ~responses =
  let load_graph =
    let t = Hashtbl.create 64 in
    List.iter (fun (r : Req.t) -> Hashtbl.replace t r.Req.label r.Req.graph) requests;
    Hashtbl.find t
  in
  let n = float_of_int (Array.length lines) in
  let acc = Array.make 10 0. in
  let add k (dt, w) =
    acc.(2 * k) <- acc.(2 * k) +. (dt *. 1e6);
    acc.((2 * k) + 1) <- acc.((2 * k) + 1) +. (w /. 1000.)
  in
  let view = Shard.view shard in
  Array.iteri
    (fun i line ->
      let parse () = Protocol.parse ~load_graph i line in
      add 0 (best_time parse);
      match parse () with
      | Protocol.Command (Protocol.Submit { request = r; _ }) ->
          let fp = Req.fingerprint r in
          let t_fp, w_fp = best_time (fun () -> Req.fingerprint r) in
          add 1 (t_fp, w_fp);
          let t_pr, w_pr = best_time (fun () -> Shard.find shard fp) in
          add 2 (t_pr, w_pr);
          let t_all, w_all = best_time (fun () -> Batch.try_cache_view ~view r) in
          add 3 (Float.max 0. (t_all -. t_fp -. t_pr), Float.max 0. (w_all -. w_fp -. w_pr));
          let resp = match Batch.try_cache_view ~view r with Some x -> Some x | None -> responses i in
          Option.iter (fun x -> add 4 (best_time (fun () -> Batch.render x))) resp
      | _ -> fail "layer sweep: line %d did not parse as a request" i)
    lines;
  List.mapi (fun k name -> (name, acc.(2 * k) /. n, acc.((2 * k) + 1) /. n)) sweep_layers

(* ns per Eval.probe_move over every (task, PE) pair of each problem,
   from the greedy-mem mapping. *)
let eval_ns_per_probe (problems : Req.t list) =
  let total = ref 0. and count = ref 0 in
  List.iter
    (fun (r : Req.t) ->
      let p = r.Req.platform and g = r.Req.graph in
      let ev = Cellsched.Eval.create p g (Cellsched.Heuristics.greedy_mem p g) in
      let n_pes = Cell.Platform.n_pes p in
      let dt, _ =
        best_time (fun () ->
            for k = 0 to G.n_tasks g - 1 do
              for pe = 0 to n_pes - 1 do
                ignore (Sys.opaque_identity (Cellsched.Eval.probe_move ev ~task:k ~pe))
              done
            done)
      in
      total := !total +. dt;
      count := !count + (G.n_tasks g * n_pes))
    problems;
  ratio (!total *. 1e9) (float_of_int !count)

let root_bound_us (problems : Req.t list) =
  mean
    (Array.of_list
       (List.map (fun r -> fst (best_time ~reps:5 (fun () -> root_bound r)) *. 1e6) problems))

(* --- reporting ---------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit metrics =
  List.iter (fun (name, v, unit) -> say "%-40s %s %s" name (json_number v) unit) metrics;
  let correct = !failed = 0 in
  List.iter (fun m -> say "FAIL %s" m) (List.rev !failures);
  let b = Buffer.create 1024 in
  Printf.bprintf b {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {|} correct
    (max 1 !attempted) !failed;
  List.iteri
    (fun k (name, v, unit) ->
      Printf.bprintf b {|%s"%s": {"value": %s, "unit": "%s"}|}
        (if k > 0 then ", " else "")
        name (json_number v) unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  exit (if correct then 0 else 1)

type e2e = {
  setup : float * float * int;  (* median, best, reps *)
  rounds : round list;
  throughput : float;
  quality : float list;  (* period / root bound of non-partial replies *)
  exact_words : bool;
}

let end_to_end e =
  let bests = best_of e.rounds in
  let s = sorted bests in
  let n = Array.length bests in
  let p, tail_v, beyond = tail s in
  let raw = match e.rounds with r :: _ -> sorted r.lat | [] -> [||] in
  let setup_med, setup_best, reps = e.setup in
  let words =
    match e.rounds with r :: _ -> r.words /. float_of_int (max 1 n) /. 1000. | [] -> 0.
  in
  say "rounds: %d (best of %d per request), %d requests per round" (List.length e.rounds)
    (List.length e.rounds) n;
  say "round walls: %s s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.wall) e.rounds));
  say "setup: median %.6f s, best %.6f s over %d set-ups" setup_med setup_best reps;
  say "latency tail: p%g over %d samples (%d beyond)" p n beyond;
  if raw <> [||] then
    say "raw single pass (round 0): p50 %.4f ms, p%g %.4f ms" (percentile raw 50. *. 1000.) p
      (percentile raw p *. 1000.);
  (match e.rounds with
  | r :: _ ->
      say "exact counts per round%s: words=%.0f %s"
        (if e.exact_words then "" else " (words approximate: two domains)")
        r.words
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts))
  | [] -> ());
  [
    ("setup_s", setup_med, "s");
    ("throughput_rps", e.throughput, "req/s");
    ("latency_p50_ms", percentile s 50. *. 1000., "ms");
    ("latency_tail_ms", tail_v *. 1000., "ms");
    ("period_over_bound_geomean", geomean e.quality, "ratio");
    ("alloc_kwords_per_req", words, "kwords");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("ok_share", ratio (float_of_int (!attempted - !failed)) (float_of_int (max 1 !attempted)), "fraction");
  ]

(* Per-layer rows; layers a workload never reaches read 0. *)
type layers = {
  sweep : (string * float * float) list;
  window : (string * int) list;  (* solver counters over the solves measured *)
  bb_solves : int;  (* bb solves behind [window] *)
  stages : stage_tally;
  timed_counts : (string * int) list;  (* one traced round *)
  timed_requests : int;
  bounds_us : float;
  ns_per_probe : float;
  simplex : float * float;  (* us, kwords per pivot *)
  lp_round_ms : float;
  busy : float;
  majors_per_kreq : float;
  overhead_ms : float;
}

let per_layer l =
  let tc = l.timed_counts and w = l.window in
  let per_req k = ratio (get tc k) (float_of_int (max 1 l.timed_requests)) in
  let n_bb = float_of_int l.bb_solves in
  let bb_ms = mean (Array.of_list l.stages.bb_ms) in
  let sweep =
    List.concat_map
      (fun (name, us, kw) -> [ (name ^ "_us", us, "us"); (name ^ "_kwords", kw, "kwords") ])
      (if l.sweep = [] then List.map (fun n -> (n, 0., 0.)) sweep_layers else l.sweep)
  in
  sweep
  @ [
      ("service.shard.hit_ratio", ratio (get tc "daemon_hits") (get tc "shard_probes"), "ratio");
      ("service.batch.transport_reject_ratio", ratio (get tc "transport_rejects") (get tc "shard_probes"), "ratio");
      ("core.bounds.root_bound_us", l.bounds_us, "us");
      ("core.portfolio.solve_ms", mean (Array.of_list l.stages.pf_ms), "ms");
      (* bb seeds its dive with a portfolio run, so entrants count per solve *)
      ("core.portfolio.candidates",
        ratio (get w "portfolio_candidates") (get w "daemon_solved" +. get w "daemon_partial"), "count");
      ("core.eval.probes_per_req", per_req "eval_probes", "count");
      ("core.eval.ns_per_probe", l.ns_per_probe, "ns");
      ("core.heuristics.ls_accept_ratio",
        ratio (get w "ls_accepted" +. get w "ls_swaps") (get w "eval_probes"), "ratio");
      ("core.mapping_search.solve_ms", bb_ms, "ms");
      ("core.mapping_search.nodes_per_req", ratio (get w "bb_nodes") n_bb, "count");
      ("core.mapping_search.prune_ratio",
        ratio (get w "bb_pruned") (get w "bb_pruned" +. get w "bb_nodes"), "ratio");
      ("core.mapping_search.us_per_node", ratio (bb_ms *. n_bb *. 1000.) (get w "bb_nodes"), "us");
      ("lp.simplex.pivots_per_req", per_req "simplex_pivots", "count");
      ("lp.simplex.us_per_pivot", fst l.simplex, "us");
      ("lp.simplex.kwords_per_pivot", snd l.simplex, "kwords");
      ("lp.simplex.solves_per_req", per_req "simplex_solves", "count");
      ("core.heuristics.lp_round_ms", l.lp_round_ms, "ms");
      ("daemon.admission.queue_wait_ms_p50", median (Array.of_list l.stages.queue_ms), "ms");
      ("daemon.server.reply_us", median (Array.of_list l.stages.reply_us), "us");
      ("par.pool.worker_busy_fraction", l.busy, "fraction");
      ("gc.major_collections_per_kreq", l.majors_per_kreq, "count");
      ("trace.overhead_ms_per_req", l.overhead_ms, "ms");
    ]

let no_layers =
  {
    sweep = [];
    window = List.map (fun (k, _) -> (k, 0)) counted;
    bb_solves = 0;
    stages = stage_tally ();
    timed_counts = List.map (fun (k, _) -> (k, 0)) counted;
    timed_requests = 1;
    bounds_us = 0.;
    ns_per_probe = 0.;
    simplex = (0., 0.);
    lp_round_ms = 0.;
    busy = 0.;
    majors_per_kreq = 0.;
    overhead_ms = 0.;
  }

(* Traced vs untraced best-of latency medians, and the GC rate. *)
let trace_summary rounds =
  let traced = List.filter (fun r -> r.traced_round) rounds
  and plain = List.filter (fun r -> not r.traced_round) rounds in
  let med rs = median (best_of rs) in
  let reqs = List.fold_left (fun a r -> a + Array.length r.lat) 0 traced in
  let majors = List.fold_left (fun a r -> a + r.majors) 0 traced in
  ( (med traced -. med plain) *. 1000.,
    ratio (float_of_int majors *. 1000.) (float_of_int reqs),
    match traced with r :: _ -> r | [] -> List.hd rounds )

(* ======================================================================= *)
(* hit-replay                                                               *)
(* ======================================================================= *)

(* Paper presets, the audio encoder, Fig. 2(b) and seeded DagGen graphs
   of 10-90 tasks, each at 4 and 8 SPEs, each with a relabelled twin.
   Ranks are fixed: the seed changes graph draws, twins and the stream. *)
let hit_stream_len = 2_000

type hit_state = {
  h_engine : engine;
  h_lines : string array;
  h_expected : string array;
  h_requests : Req.t array;  (* per stream position *)
  h_quality : float list;
  h_warm : stage_tally;
  h_warm_counts : (string * int) list;
  h_problems : Req.t list;
}

let hit_setup ~args =
  let seed = args.seed in
  let module P = Daggen.Presets in
  let fixed =
    [
      ("fig2b", P.figure_2b ());
      ("rg1", P.random_graph_1 ());
      ("audio", P.audio_encoder ());
      ("rg2", P.random_graph_2 ());
      ("rg3", P.random_graph_3 ());
    ]
  in
  let drawn =
    List.mapi (fun k n -> (Printf.sprintf "dag%d" n, corpus_dag ~seed ~salt:1 k n)) [ 30; 10; 90 ]
  in
  let graphs = fixed @ drawn in
  let problems =
    List.concat_map
      (fun (k, (label, g)) ->
        let twin = relabel (rng_for seed 2 k) g in
        List.map
          (fun spes ->
            let orig = request ~label ~graph:g ~spes Req.default_strategy in
            ( orig,
              (* The encoder's eight identical subband groups leave colour-
                 refinement ties, so transport validation rejects its
                 twin and re-solves: it is replayed under its own text. *)
              if label = "audio" then orig
              else request ~label:(label ^ ".twin") ~graph:twin ~spes Req.default_strategy ))
          [ 8; 4 ])
      (List.mapi (fun k g -> (k, g)) graphs)
    |> Array.of_list
  in
  let all = Array.to_list problems |> List.concat_map (fun (a, b) -> [ a; b ]) in
  let e = engine all in
  let c0 = snapshot () in
  let warm = stage_tally () in
  (* Warm the cache: one solve per problem, the reference for its hits. *)
  let solved =
    Array.mapi
      (fun k (orig, _) ->
        let id = Printf.sprintf "w%d" k in
        let text, _, _ = closed_send e (Protocol.render_request ~id orig) in
        let r = last_reply e in
        check (r.Server.status = `Solved) "hit-replay warm-up %s: not solved" orig.Req.label;
        if args.traced then record_stages warm ~strategy:"portfolio" (trace_stages e id);
        (text, Option.get r.Server.response))
      problems
  in
  let warm_counts = delta c0 (snapshot ()) in
  (* Each problem's hit replies, original and twin, checked against the
     warm-up solve before they become the expected bytes. *)
  let hit_ref k (orig, twin) =
    let one req =
      let id = "ref" in
      let text, _, _ = closed_send e (Protocol.render_request ~id req) in
      let r = last_reply e in
      incr attempted;
      check (r.Server.status = `Hit) "hit-replay %s: reference line missed the cache" req.Req.label;
      (text, Option.get r.Server.response)
    in
    let solve_text, solve_resp = solved.(k) in
    let orig_text, orig_resp = one orig and _, twin_resp = one twin in
    let as_hit =
      Protocol.render_reply ~id:"ref" ~partial:false { solve_resp with Batch.source = Batch.Hit }
    in
    check (orig_text = as_hit && solve_text <> "")
      "hit-replay %s: hit differs from the warm-up solve" orig.Req.label;
    let m = M.make twin.Req.platform twin.Req.graph twin_resp.Batch.assignment in
    check
      (Int64.bits_of_float twin_resp.Batch.period = Int64.bits_of_float solve_resp.Batch.period
      && SS.feasible twin.Req.platform twin.Req.graph m = solve_resp.Batch.feasible)
      "hit-replay %s: twin hit does not carry the solved mapping" twin.Req.label;
    (orig_resp, twin_resp)
  in
  let refs = Array.mapi hit_ref problems in
  let rng = rng_for seed 3 0 in
  let ranks = zipf rng ~skew:1.1 ~n:(Array.length problems) ~len:hit_stream_len in
  (* Each problem's occurrences alternate between its two labels. *)
  let seen = Array.make (Array.length problems) 0 in
  let twin_of =
    Array.map
      (fun k ->
        seen.(k) <- seen.(k) + 1;
        seen.(k) mod 2 = 0)
      ranks
  in
  let pick i = let o, t = problems.(ranks.(i)) in if twin_of.(i) then t else o in
  let resp i = let o, t = refs.(ranks.(i)) in if twin_of.(i) then t else o in
  let id i = Printf.sprintf "h%d" i in
  let lines = Array.init hit_stream_len (fun i -> Protocol.render_request ~id:(id i) (pick i)) in
  let expected =
    Array.init hit_stream_len (fun i -> Protocol.render_reply ~id:(id i) ~partial:false (resp i))
  in
  (* Prime the trace store and tables with the stream's tail, so every
     timed round starts from the state the previous round leaves. *)
  for i = hit_stream_len - 300 to hit_stream_len - 1 do
    let text, _, _ = closed_send e lines.(i) in
    check (text = expected.(i)) "hit-replay: priming reply %d differs" i
  done;
  let quality =
    List.init hit_stream_len (fun i ->
        let r = resp i in
        r.Batch.period /. root_bound (pick i))
  in
  {
    h_engine = e;
    h_lines = lines;
    h_expected = expected;
    h_requests = Array.init hit_stream_len pick;
    h_quality = quality;
    h_warm = warm;
    h_warm_counts = warm_counts;
    h_problems = Array.to_list problems |> List.map fst;
  }

let hit_replay args =
  Obs.Metrics.set_enabled true;
  let setup, st = timed_setup (fun () -> hit_setup ~args) in
  let e = st.h_engine in
  let n = Array.length st.h_lines in
  let tally = stage_tally () in
  let rounds =
    run_rounds ~between:(between_rounds setup) ~args ~min_rounds:3 ~max_rounds:200 (fun ~round:_ ~traced ->
        let lat = Array.make n 0. and words = ref 0. in
        let t0 = now () in
        for i = 0 to n - 1 do
          let text, dt, w = closed_send e st.h_lines.(i) in
          lat.(i) <- dt;
          words := !words +. w;
          incr attempted;
          if text <> st.h_expected.(i) then fail "hit-replay: reply %d differs from the reference" i;
          if traced then record_stages tally ~strategy:"" (trace_stages e (Printf.sprintf "h%d" i))
        done;
        (lat, !words, now () -. t0, ""))
  in
  let plain = List.filter (fun r -> not r.traced_round) rounds in
  assert_exact ~name:"hit-replay" plain ~exact_words:true
    ~keys:[ "eval_probes"; "bb_nodes"; "simplex_pivots"; "shard_probes"; "daemon_hits" ];
  List.iter
    (fun r ->
      if List.assoc "daemon_hits" r.counts <> n || List.assoc "daemon_solved" r.counts <> 0 then
        fail "hit-replay: a round was not 100%% hits (%d of %d)" (List.assoc "daemon_hits" r.counts) n)
    rounds;
  if not args.traced then
    emit
      (end_to_end
         {
           setup = setup_summary setup;
           rounds;
           throughput = ratio (float_of_int n) (Array.fold_left ( +. ) 0. (best_of rounds));
           quality = st.h_quality;
           exact_words = true;
         })
  else begin
    let overhead, majors, traced = trace_summary rounds in
    let shard = Server.shard e.server in
    let sweep =
      layer_sweep ~requests:(Array.to_list st.h_requests) ~lines:st.h_lines ~shard
        ~responses:(fun _ -> None)
    in
    let stages = { tally with pf_ms = st.h_warm.pf_ms; queue_ms = st.h_warm.queue_ms } in
    emit
      (per_layer
         {
           no_layers with
           sweep;
           window = st.h_warm_counts;
           stages;
           timed_counts = traced.counts;
           timed_requests = n;
           bounds_us = root_bound_us st.h_problems;
           ns_per_probe = eval_ns_per_probe st.h_problems;
           majors_per_kreq = majors;
           overhead_ms = overhead;
         })
  end

(* ======================================================================= *)
(* cold-solve                                                               *)
(* ======================================================================= *)

(* Ten seeded DagGen graphs of 12-30 tasks x SPEs {4,8} x {portfolio,
   bb gap 0.05}; a fresh engine per round, so every line is a miss. *)
type cold_state = { c_requests : Req.t array; c_lines : string array; c_bounds : float array }

let cold_setup ~args =
  let requests =
    List.init 10 (fun k -> (k, 12 + (2 * k)))
    |> List.concat_map (fun (k, n) ->
           let label = Printf.sprintf "cold%d" n in
           let g = corpus_dag ~seed:args.seed ~salt:4 k n in
           List.concat_map
             (fun spes ->
               List.map (request ~label ~graph:g ~spes) [ Req.default_strategy; bb_strategy ])
             [ 4; 8 ])
    |> Array.of_list
  in
  let lines =
    Array.mapi (fun i r -> Protocol.render_request ~id:(Printf.sprintf "c%d" i) r) requests
  in
  (* Every round builds its own engine; set-up times one creation. *)
  ignore (Sys.opaque_identity (engine (Array.to_list requests)));
  { c_requests = requests; c_lines = lines; c_bounds = Array.map root_bound requests }

let cold_solve args =
  Obs.Metrics.set_enabled true;
  let setup, st = timed_setup (fun () -> cold_setup ~args) in
  let n = Array.length st.c_lines in
  let tally = stage_tally () in
  let quality = ref [] and responses = Array.make n None in
  let rounds =
    run_rounds ~between:(between_rounds setup) ~args ~min_rounds:3 ~max_rounds:200 (fun ~round ~traced ->
        let e = engine (Array.to_list st.c_requests) in
        let lat = Array.make n 0. and words = ref 0. in
        let transcript = Buffer.create (n * 2048) in
        let t0 = now () in
        for i = 0 to n - 1 do
          let text, dt, w = closed_send e st.c_lines.(i) in
          lat.(i) <- dt;
          words := !words +. w;
          Buffer.add_string transcript text;
          incr attempted;
          let r = last_reply e in
          (match (r.Server.status, r.Server.response) with
          | `Solved, Some resp ->
              responses.(i) <- Some resp;
              if round = 0 then quality := (resp.Batch.period /. st.c_bounds.(i)) :: !quality;
              if not resp.Batch.feasible then fail "cold-solve: request %d infeasible" i
          | _ -> fail "cold-solve: request %d was not a completed solve" i);
          if traced then
            record_stages tally ~strategy:(strategy_name st.c_requests.(i))
              (trace_stages e (Printf.sprintf "c%d" i))
        done;
        (lat, !words, now () -. t0, Buffer.contents transcript))
  in
  (match rounds with
  | r0 :: rest ->
      List.iteri
        (fun k r ->
          if r.transcript <> r0.transcript then
            fail "cold-solve: round %d transcript differs from round 0" (k + 1))
        rest
  | [] -> ());
  let plain = List.filter (fun r -> not r.traced_round) rounds in
  assert_exact ~name:"cold-solve" plain ~exact_words:true
    ~keys:[ "eval_probes"; "bb_nodes"; "simplex_pivots"; "shard_probes"; "daemon_hits" ];
  List.iter
    (fun r -> if List.assoc "daemon_hits" r.counts <> 0 then fail "cold-solve: a round hit the cache")
    rounds;
  if not args.traced then
    emit
      (end_to_end
         {
           setup = setup_summary setup;
           rounds;
           throughput = ratio (float_of_int n) (Array.fold_left ( +. ) 0. (best_of rounds));
           quality = !quality;
           exact_words = true;
         })
  else begin
    let overhead, majors, traced = trace_summary rounds in
    let fresh = engine (Array.to_list st.c_requests) in
    let sweep =
      layer_sweep ~requests:(Array.to_list st.c_requests) ~lines:st.c_lines
        ~shard:(Server.shard fresh.server) ~responses:(fun i -> responses.(i))
    in
    let problems = Array.to_list st.c_requests in
    emit
      (per_layer
         {
           no_layers with
           sweep;
           window = traced.counts;
           bb_solves = n / 2;
           stages = tally;
           timed_counts = traced.counts;
           timed_requests = n;
           bounds_us = root_bound_us problems;
           ns_per_probe = eval_ns_per_probe problems;
           majors_per_kreq = majors;
           overhead_ms = overhead;
         })
  end

(* ======================================================================= *)
(* burst-mix                                                                *)
(* ======================================================================= *)

(* Fiber dispatch ([serve --fibers], one worker domain plus this driver).
   A warm head (Fig. 2(b), the audio encoder, two DagGen graphs) and a
   cold tail (eight DagGen graphs), each at 4 and 8 SPEs; every eighth
   line asks a cold 44/52-task graph for a 1 ms deadline, a quarter (the
   tail lines) carry prio +/-1. Lines go out in bursts of [burst_k], then
   the driver polls until the burst is answered. *)
let burst_k = 8
let burst_len = 128

type kind = Head | Tail | Deadline

type burst_state = {
  b_requests : Req.t array;  (* per stream position *)
  b_lines : string array;
  b_kind : kind array;
  b_problem : int array;  (* index into [b_refs]; -1 for deadline lines *)
  b_refs : Batch.response array;
  b_bounds : float array;
  b_head : Service.Cache.entry list;
  b_all : Req.t list;
  b_problems : Req.t array;
}

let burst_setup ~args =
  let seed = args.seed in
  let module P = Daggen.Presets in
  let dag k n = (Printf.sprintf "dag%d" n, corpus_dag ~seed ~salt:6 k n) in
  (* Head ranks, hottest first. The 50-task graph at 8 SPEs is the
     slowest hit and takes two fifths of the head slots, so the median reply
     (the 64th of 128, inside the 80 hits) falls well inside its block. *)
  let head =
    let pf label graph spes = request ~label ~graph ~spes Req.default_strategy in
    let (l30, g30), (l50, g50) = (dag 0 30, dag 1 50) in
    let fig2b = P.figure_2b () and audio = P.audio_encoder () in
    [
      pf l50 g50 8; pf "fig2b" fig2b 4; pf "audio" audio 8; pf l30 g30 4;
      pf "fig2b" fig2b 8; pf "audio" audio 4; pf l30 g30 8; pf l50 g50 4;
    ]
  in
  (* Portfolio only: its work varies least between relabellings, which
     keeps rounds comparable from seed to seed (cold-solve covers bb). *)
  let tail =
    List.concat_map
      (fun (label, graph) ->
        List.map (fun spes -> request ~label ~graph ~spes Req.default_strategy) [ 4; 8 ])
      (List.init 8 (fun k -> dag (k + 2) (20 + (3 * k))))
  in
  let problems = Array.of_list (head @ tail) in
  let deadline =
    List.map
      (fun (label, graph) -> request ~deadline_ms:1. ~label ~graph ~spes:8 Req.default_strategy)
      [ dag 10 44; dag 11 52 ]
    |> Array.of_list
  in
  (* References: one solve per head and tail problem; the head's cache
     entries warm every round's fresh engine. *)
  let scratch = Shard.create () in
  let refs =
    Array.map
      (fun r ->
        let a, p, _ = Batch.solve_request r in
        Batch.solved_response_view ~view:(Shard.view scratch) r (a, p))
      problems
  in
  let head_entries =
    List.map (fun r -> Option.get (Shard.find scratch (Req.fingerprint r))) head
  in
  (* Burst b: slots 0-2 and 4-5 draw head hits (zipf over the head),
     slot 3 a tail problem at prio -1, slot 6 the same problem at prio
     +1 (admitted first, so it solves and slot 3 is deferred into a hit),
     slot 7 a deadline line. Every tail problem appears in one burst. *)
  let n_head = List.length head in
  let tail_order = Array.init (List.length tail) (fun k -> n_head + k) in
  Rng.shuffle (rng_for seed 7 1) tail_order;
  let slot i = i mod burst_k and burst i = i / burst_k in
  let draws = zipf (rng_for seed 7 0) ~skew:1.1 ~n:n_head ~len:(burst_len / burst_k * 5) in
  let kind =
    Array.init burst_len (fun i ->
        match slot i with 3 | 6 -> Tail | 7 -> Deadline | _ -> Head)
  in
  let problem_of i =
    match kind.(i) with
    | Head -> draws.((burst i * 5) + if slot i < 3 then slot i else slot i - 1)
    | Tail -> tail_order.(burst i)
    | Deadline -> -1
  in
  let requests =
    Array.init burst_len (fun i ->
        match kind.(i) with
        | Deadline -> deadline.(burst i mod 2)
        | Head -> problems.(problem_of i)
        | Tail -> { (problems.(problem_of i)) with Req.prio = (if slot i = 3 then -1 else 1) })
  in
  let lines =
    Array.mapi (fun i r -> Protocol.render_request ~id:(Printf.sprintf "b%d" i) r) requests
  in
  let all = Array.to_list problems @ Array.to_list deadline in
  let e = engine ~fibers:true all in
  Server.finish e.server;
  {
    b_requests = requests;
    b_lines = lines;
    b_kind = kind;
    b_problem = Array.init burst_len problem_of;
    b_refs = refs;
    b_bounds = Array.map root_bound problems;
    b_head = head_entries;
    b_all = all;
    b_problems = problems;
  }

let burst_mix args =
  Obs.Metrics.set_enabled true;
  let setup, st = timed_setup (fun () -> burst_setup ~args) in
  let n = burst_len in
  let tally = stage_tally () and busy = ref [] in
  let quality = ref [] in
  (* Best-of-R per burst: the burst is this loop's unit of work. *)
  let n_bursts = n / burst_k in
  let best_burst = Array.make n_bursts infinity in
  let rounds =
    run_rounds ~between:(between_rounds setup) ~args ~min_rounds:3 ~max_rounds:200 (fun ~round ~traced ->
        let e = engine ~fibers:true st.b_all in
        List.iter (Shard.add (Server.shard e.server)) st.b_head;
        let lat = Array.make n 0. and sent = Array.make n 0. in
        let got = Array.make n 0 and texts = Array.make n "" in
        let solve_ms = ref 0. in
        let w0 = (Gc.quick_stat ()).Gc.minor_words in
        let t0 = now () in
        for b = 0 to n_bursts - 1 do
          let t_burst = now () in
          for i = b * burst_k to ((b + 1) * burst_k) - 1 do
            sent.(i) <- now ();
            Server.handle_line e.server st.b_lines.(i) ~out:(fun s ->
                lat.(i) <- now () -. sent.(i);
                got.(i) <- got.(i) + 1;
                texts.(i) <- s)
          done;
          let open_ () =
            let r = ref false in
            for i = b * burst_k to ((b + 1) * burst_k) - 1 do
              if got.(i) = 0 then r := true
            done;
            !r
          in
          (* 50 us naps between polls: fine-grained against millisecond
             solves, and the polling itself stays out of the words. *)
          while open_ () do
            Server.poll e.server;
            if open_ () then Unix.sleepf 5e-5
          done;
          best_burst.(b) <- Float.min best_burst.(b) (now () -. t_burst);
          if traced then
            for i = b * burst_k to ((b + 1) * burst_k) - 1 do
              let stages = trace_stages e (Printf.sprintf "b%d" i) in
              List.iter (fun (p, ms) -> if p = "/request/solve" then solve_ms := !solve_ms +. ms) stages;
              record_stages tally
                ~strategy:(if st.b_kind.(i) = Deadline then "" else strategy_name st.b_requests.(i))
                stages
            done
        done;
        let wall = now () -. t0 in
        (* After the worker domain is joined its allocation is merged
           into the totals, so the round's words are complete. *)
        Server.finish e.server;
        let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
        if traced then busy := ratio (!solve_ms /. 1000.) wall :: !busy;
        (* Exactly one reply per line; complete replies byte-equal to the
           reference render for their source; deadline partials feasible;
           each drawn tail problem solved exactly once per round. *)
        let solves = Array.make (Array.length st.b_problems) 0 in
        for i = 0 to n - 1 do
          incr attempted;
          let id = Printf.sprintf "b%d" i in
          match (got.(i), Hashtbl.find_opt e.replies id) with
          | 1, Some { Server.status; response = Some resp; _ } -> (
              match (st.b_kind.(i), status) with
              | Deadline, `Partial ->
                  let r = st.b_requests.(i) in
                  let m = M.make r.Req.platform r.Req.graph resp.Batch.assignment in
                  if not (resp.Batch.feasible && SS.feasible r.Req.platform r.Req.graph m) then
                    fail "burst-mix: deadline partial %d infeasible" i
              | (Head | Tail), ((`Hit | `Solved) as s) ->
                  let k = st.b_problem.(i) in
                  let source = if s = `Hit then Batch.Hit else Batch.Solved in
                  if s = `Solved then solves.(k) <- solves.(k) + 1;
                  if st.b_kind.(i) = Head && s = `Solved then fail "burst-mix: warm line %d solved" i;
                  let expect =
                    Protocol.render_reply ~id ~partial:false { (st.b_refs.(k)) with Batch.source }
                  in
                  if texts.(i) <> expect then fail "burst-mix: reply %d differs from the reference" i;
                  if round = 0 then quality := (resp.Batch.period /. st.b_bounds.(k)) :: !quality
              | _ -> fail "burst-mix: line %d got an unexpected reply status" i)
          | c, _ -> fail "burst-mix: line %d got %d replies" i c
        done;
        Array.iteri
          (fun k c ->
            let expect = if Array.exists (( = ) k) st.b_problem && k >= List.length st.b_head then 1 else 0 in
            if c <> expect then
              fail "burst-mix: tail problem %d solved %d times in a round" k c)
          solves;
        (lat, words, wall, ""))
  in
  assert_exact ~name:"burst-mix" rounds ~exact_words:false
    ~keys:[ "shard_probes"; "daemon_hits"; "daemon_solved"; "daemon_partial" ];
  if not args.traced then
    emit
      (end_to_end
         {
           setup = setup_summary setup;
           rounds;
           throughput = ratio (float_of_int n) (Array.fold_left ( +. ) 0. best_burst);
           quality = !quality;
           exact_words = false;
         })
  else begin
    let overhead, majors, traced = trace_summary rounds in
    let shard = Shard.create () in
    List.iter (Shard.add shard) st.b_head;
    let sweep =
      layer_sweep ~requests:st.b_all ~lines:st.b_lines ~shard ~responses:(fun i ->
          let k = st.b_problem.(i) in
          if k >= 0 then Some st.b_refs.(k) else None)
    in
    let problems = Array.to_list st.b_problems in
    emit
      (per_layer
         {
           no_layers with
           sweep;
           window = traced.counts;
           (* bb requests are all in the tail, each solved once a round *)
           bb_solves = List.length (List.filter (fun r -> strategy_name r = "bb") problems);
           stages = tally;
           timed_counts = traced.counts;
           timed_requests = n;
           bounds_us = root_bound_us problems;
           ns_per_probe = eval_ns_per_probe problems;
           busy = median (Array.of_list !busy);
           majors_per_kreq = majors;
           overhead_ms = overhead;
         })
  end

(* ======================================================================= *)
(* lp-relax                                                                 *)
(* ======================================================================= *)

(* [map -s lp-round] on twenty seeded DagGen graphs of 11-13 tasks x SPEs
   {4,8}: the simplex over the compact relaxation dominates. Graphs stay
   well under the rounding's 2000-row limit (heuristics.ml), past which
   the LP is silently skipped. *)
let lp_row_limit = 2000

type lp_state = { l_requests : Req.t array; l_bounds : float array }

let lp_setup ~args =
  let requests =
    List.init 20 (fun k -> (k, 11 + (k mod 3)))
    |> List.concat_map (fun (k, n) ->
           let label = Printf.sprintf "lp%d.%d" k n in
           let g = corpus_dag ~seed:args.seed ~salt:8 k n in
           List.map (fun spes -> request ~label ~graph:g ~spes Req.default_strategy) [ 4; 8 ])
    |> Array.of_list
  in
  Array.iter
    (fun (r : Req.t) ->
      let f = Cellsched.Milp_formulation.build_compact r.Req.platform r.Req.graph in
      let rows = Lp.Problem.n_constrs f.Cellsched.Milp_formulation.problem in
      if rows > lp_row_limit then fail "lp-relax: %s has %d rows (limit %d)" r.Req.label rows lp_row_limit)
    requests;
  { l_requests = requests; l_bounds = Array.map root_bound requests }

let lp_transcript (r : Req.t) m =
  let p = r.Req.platform and g = r.Req.graph in
  Printf.sprintf "%s spes=%d period=%h feasible=%b map=%s\n" r.Req.label p.Cell.Platform.n_spe
    (SS.period p (SS.loads p g m))
    (SS.feasible p g m)
    (String.concat "," (Array.to_list (Array.map string_of_int (M.to_array m))))

let lp_relax args =
  (* Counters on in both runs: the exact pivot counts are checked here. *)
  Obs.Metrics.set_enabled true;
  let setup, st = timed_setup (fun () -> lp_setup ~args) in
  let n = Array.length st.l_requests in
  let quality = ref [] in
  let rounds =
    run_rounds ~between:(between_rounds setup) ~args ~min_rounds:3 ~max_rounds:200 (fun ~round ~traced:_ ->
        let lat = Array.make n 0. and words = ref 0. in
        let transcript = Buffer.create (n * 128) in
        let t0 = now () in
        Array.iteri
          (fun i (r : Req.t) ->
            let p0 = Obs.Metrics.Counter.value c_pivots in
            let w0 = minor_words () in
            let t = now () in
            let m = Cellsched.Heuristics.lp_rounding r.Req.platform r.Req.graph in
            lat.(i) <- now () -. t;
            words := !words +. (minor_words () -. w0);
            incr attempted;
            if Obs.Metrics.Counter.value c_pivots = p0 then fail "lp-relax: %s skipped the LP" r.Req.label;
            let p = r.Req.platform and g = r.Req.graph in
            if not (SS.feasible p g m) then fail "lp-relax: %s rounded to an infeasible mapping" r.Req.label
            else if round = 0 then quality := (SS.period p (SS.loads p g m) /. st.l_bounds.(i)) :: !quality;
            Buffer.add_string transcript (lp_transcript r m))
          st.l_requests;
        (lat, !words, now () -. t0, Buffer.contents transcript))
  in
  (match rounds with
  | r0 :: rest ->
      List.iteri
        (fun k r ->
          if r.transcript <> r0.transcript then fail "lp-relax: round %d transcript differs" (k + 1))
        rest
  | [] -> ());
  assert_exact ~name:"lp-relax" rounds ~exact_words:true
    ~keys:[ "eval_probes"; "simplex_pivots"; "simplex_solves" ];
  if not args.traced then
    emit
      (end_to_end
         {
           setup = setup_summary setup;
           rounds;
           throughput = ratio (float_of_int n) (Array.fold_left ( +. ) 0. (best_of rounds));
           quality = !quality;
           exact_words = true;
         })
  else begin
    let overhead, majors, traced = trace_summary rounds in
    let problems = Array.to_list st.l_requests in
    let simplex_us = ref 0. and simplex_words = ref 0. and pivots = ref 0 in
    List.iter
      (fun (r : Req.t) ->
        let f = Cellsched.Milp_formulation.build_compact r.Req.platform r.Req.graph in
        let p0 = Obs.Metrics.Counter.value c_pivots in
        let dt, w = best_time ~reps:1 (fun () -> Lp.Simplex.solve f.Cellsched.Milp_formulation.problem) in
        pivots := !pivots + (Obs.Metrics.Counter.value c_pivots - p0);
        simplex_us := !simplex_us +. (dt *. 1e6);
        simplex_words := !simplex_words +. w)
      problems;
    let pv = float_of_int !pivots in
    emit
      (per_layer
         {
           no_layers with
           window = traced.counts;
           timed_counts = traced.counts;
           timed_requests = n;
           bounds_us = root_bound_us problems;
           ns_per_probe = eval_ns_per_probe problems;
           simplex = (ratio !simplex_us pv, ratio (!simplex_words /. 1000.) pv);
           lp_round_ms = median (best_of rounds) *. 1000.;
           majors_per_kreq = majors;
           overhead_ms = overhead;
         })
  end

let () =
  let args = parse_args () in
  match args.workload with
  | "hit-replay" -> hit_replay args
  | "cold-solve" -> cold_solve args
  | "burst-mix" -> burst_mix args
  | "lp-relax" -> lp_relax args
  | w ->
      prerr_endline ("bench: unknown workload " ^ w ^ " (hit-replay, cold-solve, burst-mix, lp-relax)");
      exit 2
