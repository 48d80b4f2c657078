(** The mapping front end's request path: answer a {!Request} from the
    {!Cache}, or solve it and store the result. [Daemon.Server] is the
    one engine that drives these calls for a stream of requests — the
    [serve] daemon and the [batch] command alike — and adds admission,
    in-stream deduplication and the fiber fan-out.

    {b Pipeline.} A request's {!Request.key} is computed once. A cache
    hit is answered by {e transporting} the stored canonical assignment
    onto the request graph through its own canonical order
    ({!try_cache_view}); a miss goes to the requested solver
    ({!Cellsched.Portfolio} or {!Cellsched.Mapping_search}) through
    {!solve_request}, and {!solved_response_view} records the result.

    {b Determinism.} Every solver call is deterministic (fixed seeds,
    node budgets instead of wall-clock cutoffs), so a response — source
    included — is a pure function of (cache state, request): the engine
    answers a stream with identical bytes inline and on a pool of any
    size.

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

    Observability (default-off like every other layer): the
    transport-rejects counter here; evictions, recoveries and size
    gauges in {!Cache} and {!Shard}; request, hit and solve counts in
    the daemon's [daemon_*] families. *)

type source =
  | Hit  (** Answered from the cache (incl. in-stream duplicates). *)
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
    here otherwise). [Some] is a [Hit] response; [None] is a miss (a
    failed transport validation bumps [svc_transport_rejects_total]).
    Never solves. Every cache touch goes through the [view], so a plain
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

val render : response -> string
(** Deterministic multi-line text block (the CLI output format; the
    differential tests compare these byte-for-byte). *)
