(** Mapping heuristics.

    [greedy_mem] and [greedy_cpu] are the paper's reference heuristics
    (§6.3): both walk the tasks in topological order and never reconsider a
    decision. The remaining strategies address the paper's §7 observation
    that "simple heuristics fail": [lp_rounding] rounds the LP relaxation
    of the mapping program and [local_search] hill-climbs single-task moves
    and pairwise swaps.

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

(** {1 Placement walks on a caller's engine}

    The walks behind [ppe_only], [greedy_mem] and [greedy_cpu], and the
    {!Portfolio}'s seeded restarts, run on an engine the caller owns so
    that one engine can carry a mapping from its construction through
    {!improve} to its score. Each takes an engine with every task
    unassigned and leaves the mapping the function of the same name
    returns (the greedy and random walks include the to-PPE repair).
    The walks read the engine's memory rows, so they expect the paper's
    model ({!Eval.default_options}); switch options with
    {!Eval.set_options} afterwards. A placement step allocates nothing. *)

val place_ppe_only : Eval.t -> unit
val place_greedy_mem : Eval.t -> unit
val place_greedy_cpu : Eval.t -> unit

val place_random_feasible : rng:Support.Rng.t -> Eval.t -> unit
(** Seeded random placement walk in topological order, choosing
    uniformly among the PEs the incremental feasibility check admits
    (PPE0 when none), followed by the to-PPE DMA repair pass — the
    restart generator for {!Portfolio}. One [rng] draw per task with an
    admissible PE, so the mapping is a pure function of the seed. *)

val improve : Eval.t -> unit
(** {!local_search} in place, on the engine's current (complete,
    feasible) assignment and options. The engine's counts are left for
    its owner to {!Eval.publish}. *)

val local_search :
  Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> Mapping.t
(** Hill climbing over single-task moves and pairwise swaps (swaps
    matter when the local stores are full and no single move is
    feasible), keeping feasibility; stops at a local optimum or after
    50 passes. Each pass first visits the tasks in id order and moves
    each to the PE giving the lowest feasible period, if that improves
    on the best period by more than 1e-12; then it visits the pairs
    [(k1, k2)], [k1 < k2], on different PEs and applies the first swap
    that improves, going on from there. The input mapping must be
    feasible. Evaluation uses the paper's model
    (no buffer sharing); {!improve} runs the same search under an
    engine's own options.

    {b Bottleneck-directed neighbourhood.} The period is the time of the
    single most loaded row β ({!Eval.bottleneck}), and a candidate is
    taken only if it beats that period, so only the mutations that can
    change a term of β's row are probed. When β is a PE's compute or
    interface row, the {e hot} tasks are those on that PE; a move
    [k -> pe] is probed iff [k] is hot or [pe] is β's PE, a swap iff one
    of its tasks is hot. When β is an inter-Cell link row, every
    candidate is probed. The hot set is recomputed after every applied
    move or swap.

    Why skipping is exact. A skipped mutation moves tasks from PEs other
    than β's to PEs other than β's. β's compute row sums the weights of
    the tasks on β's PE; its interface rows add those tasks' memory
    reads (writes) and the bytes of the remote edges entering (leaving)
    it. None of these changes: the tasks on the PE are the same, and an
    edge between a task there and a moved task is remote before and
    after, with the same bytes. The exact sweep re-adds the same terms
    in the same order, so the row comes back bitwise, and the period is
    at least that row: the current period, which is above the
    acceptance threshold. The probe would have answered [infinity], and
    the state does not change until a candidate is applied, so this
    holds across a task's whole PE scan. The decisions, and the mapping,
    are those of probing every candidate. A move onto β's PE can lower
    an interface row (an edge to a task there turns local), which is
    why such moves are always probed.
    [search_ls_probes_skipped_total] counts the candidates left out.

    Candidates are probed through {!Eval.probe_move_below}/
    {!Eval.probe_swap_below} with the acceptance threshold: an O(degree +
    PEs) screen rules out almost every candidate, and only the rest pay
    the exact O(tasks + edges) sweep. *)

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

module For_testing : sig
  val refresh_hot : Eval.t -> bool array -> int
  (** Fill [local_search]'s hot set (one flag per task) for the engine's
      current state and return the bottleneck row's PE, or -1 for a link
      row (every task hot). Allocates nothing. *)
end
