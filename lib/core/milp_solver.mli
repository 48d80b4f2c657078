(** Throughput-optimal mapping via mixed linear programming (paper §5–6).

    This is the entry point corresponding to the paper's "Linear
    Programming" strategy: build the mapping MILP, seed it with the best
    heuristic mapping, and solve it with a 5 % relative optimality gap —
    the same stopping rule the paper applies to CPLEX.

    Two engines are available and chosen automatically by instance size:

    - [`Exact]: the generic {!Lp.Branch_bound} on the compact formulation
      (exact within the gap; right for small and mid-size graphs);
    - [`Search]: the specialized {!Mapping_search} branch and bound,
      bounded below by its combinatorial relaxations, with no LP at any
      node (scales to the paper's 50–94-task graphs).

    A PPE-only mapping is always feasible, so [solve] always returns a
    mapping. *)

type engine = Exact | Search | Auto

type options = {
  rel_gap : float;  (** Stop at this optimality gap (default 0.05). *)
  time_limit : float;  (** Seconds (default 60). *)
  max_nodes : int;
  engine : engine;
  share_colocated_buffers : bool;  (** Model the §7 buffer sharing. *)
}

val default_options : options

type result = {
  mapping : Mapping.t;
  period : float;  (** Period of [mapping] (seconds per instance). *)
  throughput : float;  (** Instances per second: [1 / period]. *)
  lower_bound : float;  (** Proven lower bound on the optimal period. *)
  gap : float;  (** [(period - lower_bound) / period]. *)
  proven_within_gap : bool;  (** Whether the target gap was certified. *)
  nodes : int;
  solve_time : float;  (** Wall-clock seconds. *)
}

val solve :
  ?span:Obs.Span.ctx ->
  ?options:options ->
  ?should_stop:(unit -> bool) ->
  ?pool:Par.Pool.t ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  result
(** [span] (default {!Obs.Span.null}: free) is passed to the chosen
    engine: {!Lp.Branch_bound.solve} records a ["milp-bb"] span,
    {!Mapping_search.solve} the portfolio/dive/fanout/subtree family.

    [pool] parallelizes the [`Search] engine's branch and bound (the
    [`Exact] engine ignores it); the result is bitwise identical to the
    sequential run — see {!Mapping_search.solve}.

    [should_stop] (default: never) cancels the underlying branch and
    bound early, in either engine, returning the best incumbent so far
    with [proven_within_gap = false] — the heuristic seed guarantees a
    feasible mapping even under immediate cancellation. *)
