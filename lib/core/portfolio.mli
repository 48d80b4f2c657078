(** Portfolio mapping search: race the constructive heuristics and a
    set of seeded random restarts, keep the best.

    Entrants — the PPE-only safety net, GreedyMem, GreedyCpu and
    [restarts] seeded {!Heuristics.place_random_feasible} walks (each with
    its own [Support.Rng] stream derived from [seed]), every one with a
    feasible start polished by {!Heuristics.local_search} — run
    independently, each on one {!Eval} engine of its own from its start
    through local search to its score, and fold their scores into a
    shared {!Incumbent.t}. Periods are canonical (bitwise
    {!Eval.scratch_period} of the mapping) and the incumbent order is
    strict and total (period, then fingerprint), so the winner is a
    pure function
    of [(seed, restarts, graph, platform)]: running on a {!Par.Pool.t}
    of any size returns bitwise the same mapping and period as the
    sequential fold. *)

val default_restarts : int
(** 6 *)

val default_seed : int

type candidate = {
  name : string;
  mapping : Mapping.t;  (** after local search *)
  period : float;  (** canonical; [infinity] when infeasible *)
  feasible : bool;
}

type result = {
  best : Mapping.t;
  period : float;
  lower_bound : float;
      (** Closed-form {!Bounds.root_bound} of the instance — heuristics
          prove nothing on their own, but the combinatorial bound gives
          every caller an honest optimality gap for free. *)
  candidates : candidate list;  (** in entrant order, for reporting *)
}

val solve :
  ?span:Obs.Span.ctx ->
  ?pool:Par.Pool.t ->
  ?should_stop:(unit -> bool) ->
  ?restarts:int ->
  ?seed:int ->
  ?share_colocated_buffers:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  result
(** Defaults: [restarts = 6], [seed = 0x5EED], sequential when [pool] is
    absent. Each feasible start is polished by {!Heuristics.improve}.

    [span] (default {!Obs.Span.null}: free) records a ["portfolio"]
    span with one ["entrant:<name>"] child per entrant run, annotated
    with its canonical period and feasibility. Entrant names are the
    span path components, so the merged stream is pool-size
    independent (timestamps aside).

    [should_stop] (default: never) is checked before each entrant: once
    it returns [true], remaining entrants other than the always-run
    ppe-only safety net are skipped (and omitted from [candidates]), so
    the best-so-far is returned quickly and is always feasible. A
    cancelled result is timing-dependent — the bitwise-determinism
    contract only covers runs where [should_stop] never fired. *)
