(** A mapping request: solve one (graph, platform, solver options)
    triple. The unit of work of the request path ({!Batch}) and the key
    domain of the mapping cache ({!Cache}).

    Requests are keyed by a {e canonical} fingerprint — 32 hex digits
    combining {!Streaming.Canonical.fingerprint} of the graph with
    FNV-1a hashes of every platform field and every solver option. Equal
    fingerprints mean the same problem up to task relabelling (or a
    64-bit collision), so a cached solution can be transported between
    them, subject to the validation described in {!Batch}. The converse
    does not always hold: a relabelled graph whose tasks colour
    refinement leaves tied can key differently and miss the cache (see
    {!Streaming.Canonical}). *)

type strategy =
  | Portfolio of { seed : int; restarts : int }
      (** {!Cellsched.Portfolio.solve}: deterministic for fixed seed and
          restart count at any pool size (the PR-4 contract). *)
  | Bb of { rel_gap : float; max_nodes : int }
      (** {!Cellsched.Mapping_search.solve} under a node budget — a
          deterministic cutoff, unlike a wall-clock limit. *)

type t = {
  label : string;  (** User-facing name (e.g. the graph file); not keyed. *)
  platform : Cell.Platform.t;
  graph : Streaming.Graph.t;
  strategy : strategy;
  deadline_ms : float option;
      (** Wall-clock reply budget in milliseconds, counted by the daemon
          from admission: when it expires the solve is cancelled and the
          best incumbent so far is returned, tagged partial. [None] (the
          default) never cancels; the batch command clears it, as it
          never cancels.
          Not part of the fingerprint — the problem is the same whatever
          the caller's patience. *)
  prio : int;
      (** Dispatch priority in the daemon's pending queue: higher first,
          FIFO within a level. Default [0]; the batch command clears it,
          as it answers in file order. Not part of the fingerprint. *)
}

val default_strategy : strategy
(** [Portfolio] with {!Cellsched.Portfolio.default_seed} and
    {!Cellsched.Portfolio.default_restarts}. *)

val strategy_to_string : strategy -> string
(** Stable one-token rendering, e.g.
    ["portfolio:seed=24301,restarts=6"]. *)

type key = {
  fingerprint : string;
      (** 32 lower-case hex digits: canonical graph hash, then a hash of
          (graph hash, platform, strategy). *)
  order : int array;
      (** The graph's canonical task order ({!Streaming.Canonical.order}),
          through which cached assignments are stored and transported. *)
}
(** Everything the cache needs to know about a request, from one
    canonical pass ({!Streaming.Canonical.key}). Compute it once per
    request and pass it along: the request engine does, so a request is
    canonicalised exactly once however many cache probes and stores it
    goes through. *)

val key : t -> key
(** Bumps [svc_canonical_keys_total] when metrics are enabled. *)

val fingerprint : t -> string
(** [(key r).fingerprint]. *)

val parse_line :
  load_graph:(string -> Streaming.Graph.t) ->
  ?default_spes:int ->
  ?default_strategy:strategy ->
  int ->
  string ->
  t option
(** Parse one line of a batch request file:
    {v <graph-file> [spes=N] [strategy=portfolio|bb] [seed=N]
       [restarts=N] [gap=F] [max-nodes=N] [deadline=MS] [prio=N] v}
    Blank lines and [#] comments yield [None]. The graph file is loaded
    through [load_graph] (callers may memoize). The platform is a QS22
    with [spes] SPEs (default [default_spes], itself defaulting to 8).
    [deadline] must be a positive number of milliseconds.
    @raise Failure with the line number on malformed input. *)
