(** Mapping heuristics.

    [greedy_mem] and [greedy_cpu] are the paper's reference heuristics
    (§6.3): both walk the tasks in topological order and never reconsider a
    decision. The remaining strategies address the paper's §7 observation
    that "simple heuristics fail": [lp_rounding] rounds the LP relaxation
    of the mapping program and [local_search] hill-climbs single-task moves.

    All heuristics place tasks through the incremental {!Eval} engine,
    which performs the feasibility checks (SPE memory and DMA-queue
    limits) as tasks are placed and falls back to the PPE when no SPE
    fits. Forced PPE placements that would overflow a predecessor SPE's
    to-PPE DMA queue are repaired before returning: the returned mapping
    never carries a {!Steady_state.Dma_to_ppe} violation. Memory or
    incoming-DMA infeasibility can still occur when the graph fits
    nowhere (e.g. a single task's buffers exceed every local store), so
    callers selecting among candidates should still consult
    {!Steady_state.feasible} or {!Eval.feasible}. *)

val ppe_only : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Everything on PPE0 — the speed-up baseline. *)

val greedy_mem : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Paper §6.3: among the SPEs with enough free local store (and DMA slots)
    for the task and its buffers, pick the one with the least loaded
    memory; if none fits, the task goes to the PPE. *)

val greedy_cpu : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Paper §6.3: among all PEs (SPEs and PPE) with enough memory, pick the
    one with the smallest computation load. *)

val density_pack : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Offload tasks to the SPEs by decreasing [w_ppe / buffer-footprint]
    value density (the fractional-knapsack order): the right structure when
    SPE local stores are the binding resource. Tasks that fit nowhere stay
    on the PPE. *)

val random : rng:Support.Rng.t -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Uniformly random PE per task (may be infeasible); for tests. *)

val random_feasible :
  rng:Support.Rng.t -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Seeded random placement walk in topological order, choosing
    uniformly among the PEs the incremental feasibility check admits
    (PPE0 when none), followed by the to-PPE DMA repair pass — the
    restart generator for {!Portfolio}. A pure function of the seed. *)

val local_search :
  ?options:Eval.options ->
  ?max_passes:int ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Mapping.t ->
  Mapping.t
(** Best-improvement hill climbing over single-task moves and pairwise
    swaps (swaps matter when the local stores are full and no single move
    is feasible), keeping feasibility; stops at a local optimum or after
    [max_passes] (default 50) sweeps. The input mapping must be feasible.
    Candidates are probed through {!Eval.probe_move_below}/
    {!Eval.probe_swap_below} with the acceptance threshold: an O(degree +
    PEs) screen rules out almost every candidate, and only the rest pay
    the exact O(tasks + edges) sweep. The decisions are exactly those of
    the unscreened probes. Evaluation uses the given [options] (default
    {!Eval.default_options}, the paper's model). *)

val lp_rounding :
  ?improve:bool -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t
(** Solve the LP relaxation of the compact mapping program, assign each
    task to its largest feasible [alpha] component (PPE as fallback), then
    run {!local_search} unless [improve] is [false]. *)

val best_feasible :
  Cell.Platform.t ->
  Streaming.Graph.t ->
  (string * Mapping.t) list ->
  (string * Mapping.t) option
(** Highest-throughput feasible mapping among the candidates. *)

val standard_candidates :
  ?with_lp:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  (string * Mapping.t) list
(** [ppe-only; greedy-mem; greedy-cpu; density-pack], plus [chain-dp]
    ({!Chain_dp}) when the graph is a chain, plus [lp-round] when [with_lp]
    (default true); in that order. *)
