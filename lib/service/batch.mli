(** Batched mapping front end: answer a stream of {!Request}s from the
    {!Cache}, solving only the distinct misses.

    {b Pipeline.} Each request's {!Request.key} is computed once, and
    requests are classified in order:
    cache hits are answered by {e transporting} the stored canonical
    assignment onto the request graph through its own canonical order;
    duplicate fingerprints within the batch defer to the first
    occurrence's solve; the remaining distinct misses are dispatched —
    as {!Par.Fiber}s over a {!Par.Pool.t} when given, in order
    otherwise — to the requested solver ({!Cellsched.Portfolio} or
    {!Cellsched.Mapping_search}).

    {b Determinism.} Parallelism is {e across} requests only and every
    solver call is deterministic (PR-4 contract: fixed seeds, node
    budgets instead of wall-clock cutoffs), so the response list —
    sources included — is a pure function of (cache state, request
    list): byte-identical between a sequential per-request loop and
    fibered batches over a pool of any size.

    {b Hit validation.} A fingerprint match does not prove the graphs
    isomorphic (a 64-bit hash can collide), and tasks that colour
    refinement leaves tied are placed by input order. Every transported
    assignment is therefore validated on the request graph (arity, PE
    range, and steady-state period within 1 ulp-scale relative
    tolerance of the cached period); a failed validation bumps
    [svc_transport_rejects_total] and falls back to a fresh solve. Ties
    can also make a relabelled copy key differently, so it misses and
    is solved under its own key ({!Streaming.Canonical}): refinement's
    limits cost time, never correctness.

    Observability ([svc_*] families, default-off like every other
    layer): requests/hits/misses/transport-rejects counters and a batch
    latency histogram here; evictions, recoveries and size gauges in
    {!Cache}. *)

type source =
  | Hit  (** Answered from the cache (incl. in-batch duplicates). *)
  | Solved  (** A fresh solver run (misses and validation fallbacks). *)

type response = {
  request : Request.t;
  fingerprint : string;
  source : source;
  assignment : int array;  (** PE per task id of the {e request} graph. *)
  period : float;  (** The solver's canonical period. *)
  feasible : bool;
  throughput : float;  (** [1 / period] ([0.] when infeasible). *)
  bottleneck : string;
}

val solve_request :
  ?span:Obs.Span.ctx ->
  ?should_stop:(unit -> bool) ->
  Request.t ->
  int array * float * float
(** One uncached solver run: the assignment (request task order), the
    canonical period, and the best proven lower bound on the optimal
    period (the search's bound for [bb], the combinatorial
    {!Cellsched.Bounds.root_bound} for the portfolio) — the daemon
    quotes the bound and its implied gap on partial replies. Exposed
    for differential testing and as the daemon's cancellable solve
    entry point: [should_stop] (default: never) is threaded into the
    underlying solver, which then returns its best incumbent so far —
    always a feasible mapping — instead of running to completion. *)

val try_cache_view :
  ?key:Request.key -> view:Cache.view -> Request.t -> response option
(** The pure hit path: probe, transport, validate. [key] is the
    request's {!Request.key} when the caller already has it (computed
    here otherwise). [Some] is a [Hit] response bitwise identical to
    what {!run_view} would return for a singleton batch hitting the same
    entry; [None] is a miss (a failed transport validation bumps
    [svc_transport_rejects_total], exactly as in {!run_view}). Never
    solves. Every cache touch goes through the [view], so a plain
    {!Cache.t} ({!Cache.view}) and a {!Shard.t} serve requests through
    identical code — the basis of the sharded-vs-single bitwise-identity
    guarantee. *)

val solved_response_view :
  ?store:bool ->
  ?key:Request.key ->
  view:Cache.view ->
  Request.t ->
  int array * float ->
  response
(** Wrap a {!solve_request} result into a [Solved] response, computing
    the summary (feasibility, throughput, bottleneck). [key] as in
    {!try_cache_view}. [store] (default [true]) also records the entry
    through the view; the daemon passes [store:false] for deadline-
    cancelled partial results so a timing-dependent incumbent can never
    poison the deterministic cache. *)

val run_view :
  ?span:Obs.Span.ctx ->
  ?pool:Par.Pool.t ->
  view:Cache.view ->
  Request.t list ->
  response list
(** Responses in request order. The cache behind [view] is updated in
    place with every fresh solve.

    With a [pool], distinct misses fan out as suspendable
    {!Par.Fiber}s, each yielding its domain at solver node-budget
    boundaries so more misses than domains interleave; without one
    they are solved in order. Both produce identical bytes — fibers
    schedule execution, never results.

    [span] (default {!Obs.Span.null}: free) records one ["batch"] span
    with a ["solve:<fp12>"] child per distinct miss (named by the first
    12 hex digits of the request fingerprint, so the merged stream is
    independent of which pool worker ran which solve), each containing
    the underlying solver's flight-recorder spans. *)

val render : response -> string
(** Deterministic multi-line text block (the CLI output format; the
    differential tests compare these byte-for-byte). *)
