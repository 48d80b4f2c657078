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

let m_rejects =
  Obs.Metrics.counter
    ~help:"Cache hits whose transported mapping failed validation"
    "svc_transport_rejects_total"

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
  let feasible = SS.violations_of_loads r.platform loads = [] in
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

(* One cache probe. The daemon passes the request's precomputed key, so
   a request is canonicalised once however many probes and stores it
   goes through. Every cache touch goes through a
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
