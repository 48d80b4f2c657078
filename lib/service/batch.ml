module SS = Cellsched.Steady_state
module M = Cellsched.Mapping

type source = Hit | Solved

type response = {
  request : Request.t;
  fingerprint : string;
  source : source;
  assignment : int array;
  period : float;
  feasible : bool;
  throughput : float;
  bottleneck : string;
}

let m_requests =
  Obs.Metrics.counter ~help:"Requests accepted by the batch front end"
    "svc_requests_total"

let m_hits =
  Obs.Metrics.counter ~help:"Requests answered from the mapping cache"
    "svc_hits_total"

let m_misses =
  Obs.Metrics.counter ~help:"Requests answered by a fresh solver run"
    "svc_misses_total"

let m_rejects =
  Obs.Metrics.counter
    ~help:"Cache hits whose transported mapping failed validation"
    "svc_transport_rejects_total"

let h_batch =
  Obs.Metrics.histogram ~help:"Wall-clock latency of one batch run"
    "svc_batch_seconds"

(* Returns the assignment, its period and the best proven lower bound
   on the optimal period (the combinatorial {!Cellsched.Bounds} root
   for the portfolio, the search's own bound for [bb]) — the daemon
   quotes the bound and the implied optimality gap on partial replies. *)
let solve_request ?(span = Obs.Span.null) ?(should_stop = fun () -> false)
    (r : Request.t) =
  match r.Request.strategy with
  | Request.Portfolio { seed; restarts } ->
      let res =
        Cellsched.Portfolio.solve ~span ~should_stop ~seed ~restarts r.platform
          r.graph
      in
      ( M.to_array res.Cellsched.Portfolio.best,
        res.Cellsched.Portfolio.period,
        res.Cellsched.Portfolio.lower_bound )
  | Request.Bb { rel_gap; max_nodes } ->
      (* A node budget, never a wall-clock limit: early stopping must be
         deterministic for the batch determinism contract to hold. The
         daemon's deadline cancellation enters through [should_stop],
         and such results are tagged partial rather than cached. *)
      let options =
        {
          Cellsched.Mapping_search.default_options with
          rel_gap;
          max_nodes;
          time_limit = 3600.;
        }
      in
      let res =
        Cellsched.Mapping_search.solve ~span ~options ~should_stop r.platform
          r.graph
      in
      ( M.to_array res.Cellsched.Mapping_search.mapping,
        res.Cellsched.Mapping_search.period,
        res.Cellsched.Mapping_search.lower_bound )

let summary (r : Request.t) assignment period =
  let m = M.make r.Request.platform r.Request.graph assignment in
  let loads = SS.loads r.platform r.graph m in
  let feasible = SS.feasible r.platform r.graph m in
  let resource, _ = SS.bottleneck r.platform loads in
  let bottleneck =
    Format.asprintf "%a" (SS.pp_resource r.platform) resource
  in
  let throughput =
    if period > 0. && Float.is_finite period then 1. /. period else 0.
  in
  (feasible, throughput, bottleneck)

(* Pull a stored canonical assignment back onto the request's task ids:
   canonical position [p] holds the PE of the task at position [p] of
   the request graph's own canonical order. *)
let transport (entry : Cache.entry) ord =
  let n = Array.length ord in
  if Array.length entry.Cache.canonical_assignment <> n then None
  else begin
    let a = Array.make n 0 in
    Array.iteri (fun p id -> a.(id) <- entry.Cache.canonical_assignment.(p)) ord;
    Some a
  end

(* A fingerprint match is necessary, not sufficient (64-bit hash;
   colour-refinement ties): accept the transported mapping only if it
   is well-formed on the request graph and reproduces the cached period
   there. Bitwise equality holds for identical resubmission; the
   relative tolerance absorbs the summation-order rounding of a
   relabeled-but-isomorphic request. *)
let validate (r : Request.t) (entry : Cache.entry) assignment =
  let n_pes = Cell.Platform.n_pes r.Request.platform in
  Array.for_all (fun pe -> pe >= 0 && pe < n_pes) assignment
  &&
  let m = M.make r.platform r.graph assignment in
  let p = SS.period r.platform (SS.loads r.platform r.graph m) in
  Int64.bits_of_float p = Int64.bits_of_float entry.Cache.period
  || Float.abs (p -. entry.Cache.period) <= 1e-9 *. Float.abs entry.Cache.period

(* One cache probe. The daemon and [run_view] pass the request's
   precomputed key, so a request is canonicalised once however many
   probes and stores it goes through. Every cache touch goes through a
   {!Cache.view}, so the same code serves one plain cache or a
   fingerprint-sharded map ({!Shard.view}) — the reply bytes depend
   only on what the probe returns, which is why sharded and single
   caches answer identically. *)
let key_of ?key r = match key with Some k -> k | None -> Request.key r

let try_cache_view ?key ~(view : Cache.view) (r : Request.t) =
  let { Request.fingerprint = fp; order } = key_of ?key r in
  match view.Cache.probe fp with
  | None -> None
  | Some entry -> (
      match transport entry order with
      | Some assignment when validate r entry assignment ->
          Some
            {
              request = r;
              fingerprint = fp;
              source = Hit;
              assignment;
              period = entry.Cache.period;
              feasible = entry.Cache.feasible;
              throughput = entry.Cache.throughput;
              bottleneck = entry.Cache.bottleneck;
            }
      | _ ->
          if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_rejects;
          None)

let solved_response_view ?(store = true) ?key ~(view : Cache.view)
    (r : Request.t) (assignment, period) =
  let { Request.fingerprint = fp; order } = key_of ?key r in
  let feasible, throughput, bottleneck = summary r assignment period in
  if store then begin
    let canonical = Array.map (fun id -> assignment.(id)) order in
    view.Cache.insert
      {
        Cache.fingerprint = fp;
        strategy = Request.strategy_to_string r.Request.strategy;
        canonical_assignment = canonical;
        period;
        feasible;
        throughput;
        bottleneck;
      }
  end;
  {
    request = r;
    fingerprint = fp;
    source = Solved;
    assignment;
    period;
    feasible;
    throughput;
    bottleneck;
  }

let run_view ?(span = Obs.Span.null) ?pool ~view requests =
  Obs.Span.with_span span "batch" @@ fun span ->
  let t0 = Unix.gettimeofday () in
  let requests = Array.of_list requests in
  let n = Array.length requests in
  let keys = Array.map Request.key requests in
  let fps = Array.map (fun k -> k.Request.fingerprint) keys in
  let responses : response option array = Array.make n None in
  let try_hit i =
    match try_cache_view ~key:keys.(i) ~view requests.(i) with
    | Some r ->
        responses.(i) <- Some r;
        true
    | None -> false
  in
  (* Classify in request order: hit, in-batch duplicate, or miss. *)
  let planned = Hashtbl.create 16 in
  let misses = ref [] and duplicates = ref [] in
  for i = 0 to n - 1 do
    if not (try_hit i) then
      if Hashtbl.mem planned fps.(i) then duplicates := i :: !duplicates
      else begin
        Hashtbl.add planned fps.(i) ();
        misses := i :: !misses
      end
  done;
  let record_solved (i, assignment, period) =
    responses.(i) <-
      Some
        (solved_response_view ~key:keys.(i) ~view requests.(i)
           (assignment, period))
  in
  (* Miss spans are named by the request fingerprint, so the merged
     stream is independent of which worker solved which miss. *)
  let solve_one i =
    Obs.Span.with_span span ("solve:" ^ String.sub fps.(i) 0 12) @@ fun span ->
    (* The yield tick suspends a fiber-run solve at node-budget
       boundaries so more misses than domains still interleave; it is
       a no-op on the sequential path and never stops the solver, so
       both paths compute identical results. *)
    let tick = Par.Fiber.yielder ~every:1 in
    let should_stop () =
      tick ();
      false
    in
    let assignment, period, _bound =
      solve_request ~span ~should_stop requests.(i)
    in
    (i, assignment, period)
  in
  (* Distinct misses fan out over the pool as suspendable fibers; each
     inner solve is deterministic, so fibered and sequential batches
     agree bitwise. *)
  let miss_indices = Array.of_list (List.rev !misses) in
  let solved =
    match pool with
    | Some p when Array.length miss_indices > 1 ->
        Par.Fiber.run p (fun () -> Par.Fiber.parallel_map solve_one miss_indices)
    | _ -> Array.map solve_one miss_indices
  in
  Array.iter record_solved solved;
  (* Duplicates are served by the entries the misses just filled in;
     the fallback solve only fires on a validation reject (hash
     collision or refinement tie — pathological, but kept correct). *)
  List.iter
    (fun i -> if not (try_hit i) then record_solved (solve_one i))
    (List.rev !duplicates);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_requests n;
    Array.iter
      (fun r ->
        match r with
        | Some { source = Hit; _ } -> Obs.Metrics.Counter.inc m_hits
        | Some { source = Solved; _ } -> Obs.Metrics.Counter.inc m_misses
        | None -> ())
      responses;
    Obs.Metrics.Histogram.observe h_batch (Unix.gettimeofday () -. t0)
  end;
  Array.to_list responses
  |> List.map (function
       | Some r -> r
       | None -> assert false (* every index is classified above *))

let render r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "# %s strategy=%s\n" r.request.Request.label
    (Request.strategy_to_string r.request.Request.strategy);
  Printf.bprintf buf "fingerprint: %s\n" r.fingerprint;
  Printf.bprintf buf "source: %s\n"
    (match r.source with Hit -> "cache" | Solved -> "solver");
  Printf.bprintf buf "feasible: %b\n" r.feasible;
  Printf.bprintf buf "period: %.17g s\n" r.period;
  Printf.bprintf buf "throughput: %.17g instances/s\n" r.throughput;
  Printf.bprintf buf "bottleneck: %s\n" r.bottleneck;
  let mapping = M.make r.request.Request.platform r.request.Request.graph r.assignment in
  Buffer.add_string buf
    (Format.asprintf "%a"
       (M.pp r.request.Request.platform r.request.Request.graph)
       mapping);
  Buffer.add_char buf '\n';
  Buffer.contents buf
