(** Incremental evaluation engine: the single source of truth for the
    resource state, period and feasibility of a (possibly partial) mapping.

    Every layer that explores mappings — {!Heuristics} placement and local
    search, the {!Mapping_search} branch and bound, {!Replication} and the
    resilience controller's remap loop — needs the same three questions
    answered for a stream of closely related candidates: what is the
    period, what is the bottleneck, is the mapping feasible. Recomputing
    {!Steady_state.loads} from scratch allocates and fills every row for
    each candidate; this engine materializes the full resource state once
    and keeps it under task moves. A mutation costs O(degree(task)): it
    adjusts the integer counters and marks the affected rows dirty. The
    next accessor revalidates the dirty rows in one sweep over every task
    and edge, O(tasks + edges), so that each row keeps its canonical
    summation order. Probes cost that sweep too, unless the screen of
    {!probe_move_below}/{!probe_swap_below} settles them in
    O(degree + PEs) first.

    {b Flat view.} The sweeps, the mutations and the screen read plain
    arrays, one load per element: the graph's {!Streaming.Graph.flat}
    view (per-edge endpoints and bytes, per-task weights and memory
    traffic, CSR in/out edge ids in {!Streaming.Graph.in_edges} order),
    built once with the graph and shared by every engine on it, plus
    per-PE SPE flags and Cell indices built with the engine, O(PEs). No
    element costs a cross-module call: dune's dev profile compiles each
    module [-opaque], so such calls are never inlined. The floating-point
    operations and their order are those of {!Steady_state.loads}.

    {b Exactness.} The engine does not keep running float sums (which
    drift under add/subtract cycles). Each per-PE resource row is cached
    and, when a mutation dirties it, recomputed over exactly the
    contributions {!Steady_state.loads} would accumulate for that PE, in
    the same order — so every accessor returns values {e bitwise equal} to
    a from-scratch [Steady_state] evaluation of the same assignment,
    with and without {!options}' buffer sharing. DMA-queue counters are
    integers and are maintained incrementally (integer arithmetic is
    exact).

    {b Partial mappings.} Tasks may be unassigned (PE [-1]); an edge
    contributes to communication, DMA and memory accounting only through
    its assigned endpoints. On a complete assignment the state coincides
    with [Steady_state]. This is what lets branch-and-bound nodes extend
    an engine instead of rebuilding partial loads.

    {b Buffers.} Per-edge buffer sizes and per-task footprints are the
    paper's, sized once per graph in {!Streaming.Graph.flat} (§3.1) and
    read from there: they never depend on the assignment, so a mutation
    changes a memory row only through the tasks it moves. *)

(** {1 Options} *)

type options = {
  share_colocated_buffers : bool;
      (** The §7 memory optimization: a colocated edge occupies one buffer
          instead of separate in/out copies. Default [false], as in the
          paper. *)
}

(** {1 Construction} *)

type t

val create :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> t
(** Engine positioned on a complete mapping. O(tasks + edges). *)

val create_empty : ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> t
(** Engine with every task unassigned — the root of a placement walk or a
    branch-and-bound tree. [options] defaults to the paper's model (no
    buffer sharing). *)

val set_options : t -> options -> unit
(** Switch buffer sharing on or off for the current assignment: every
    accessor then answers bitwise what an engine built by {!create}
    [~options] on the same assignment would. Marks every row stale (the
    next accessor re-sweeps them) and discards the saved row blocks; a
    no-op when the options are unchanged. Buffer sizes do not depend on
    the options. *)

val reset : t -> unit
(** Unassign every task: the engine is then bitwise the one
    {!create_empty} built with its options, its saved row blocks
    discarded but its arrays kept. O(tasks + PEs); allocates nothing.
    Counts not yet published are kept. *)

val platform : t -> Cell.Platform.t

val graph : t -> Streaming.Graph.t

(** {1 Inspection} *)

val pe_of : t -> int -> int
(** Current PE of a task, [-1] when unassigned. *)

val n_assigned : t -> int

val mapping : t -> Mapping.t
(** Snapshot of a complete assignment.
    @raise Invalid_argument if some task is unassigned. *)

val loads : t -> Steady_state.loads
(** Fresh copy of the current resource state; bitwise equal to
    [Steady_state.loads] on the same (complete) assignment. *)

val period : t -> float
(** Smallest feasible period of the current state, exactly
    [Steady_state.period platform (loads t)] without the copy. O(PEs)
    plus the lazy revalidation of dirtied rows. *)

val period_exceeds : t -> at_least:float -> above:float -> bool
(** [period t >= at_least || period t > above], without boxing the
    period: the branch-and-bound's node test. *)

val bottleneck : t -> Steady_state.resource * float
(** Why the period is what it is; ties broken like
    {!Steady_state.bottleneck}. *)

val bottleneck_row : t -> int
(** {!bottleneck}'s resource, int-coded so that reading it allocates
    nothing: [5 * i + kind] for PE or Cell [i], with [kind] 0 for
    compute, 1 interface in, 2 interface out, 3 link out and 4 link
    in. Same scan and tie-breaking as {!bottleneck}. *)

val violations : t -> Steady_state.violation list
(** SPE memory and DMA-queue violations of the current state, identical
    to {!Steady_state.violations} on a complete assignment. *)

val feasible : t -> bool
(** [violations t = []], without materializing the list. *)

val rows : t -> Steady_state.loads
(** The engine's own row arrays, shared, not copied, and the same record
    on every call: a loop that reads many rows reads them with one load
    each, with no accessor call and no boxed float. The arrays are
    updated in place, never replaced, so one view serves for the
    engine's lifetime. The DMA counters are always current; the float
    rows are current after any call that validates them — {!validate},
    {!period}, {!period_exceeds}, {!feasible}, {!loads}, {!save_rows},
    {!retract}, {!assign_exceeds}, {!assign_memory_fits} — and until
    the next mutation. Callers must not write to them. *)

val validate : t -> unit
(** Bring the float rows of {!rows} up to date: the lazy revalidation
    every accessor runs first. *)

val assign_memory_fits : t -> task:int -> pe:int -> slack:float -> bool
(** Whether [pe]'s memory row plus what assigning the (unassigned) task
    there would add stays within the SPE memory budget plus [slack]
    ([<= budget +. slack]): the task's graph footprint, minus
    one copy of every buffer shared with a neighbour already on [pe]
    when [share_colocated_buffers]. Validates the rows; allocates
    nothing.
    @raise Invalid_argument if [pe] is out of range. *)

val remote_in_edges : t -> task:int -> pe:int -> int
(** In-edges of [task] from assigned tasks on PEs other than [pe]: the
    incoming DMA slots placing it on [pe] would take. *)

(** {1 Mutation}

    [assign], [save_rows] and [retract] are the branch-and-bound
    primitives: a depth-first walk saves the rows at each node it
    expands, assigns a child, and retracts it last-in first-out, so that
    backtracking costs O(degree + PEs) and no re-sweep. [apply_move] and
    [apply_swap] are local search's mutations; either discards every
    saved row block. *)

val assign : t -> task:int -> pe:int -> unit
(** Place an unassigned task. O(degree).
    @raise Invalid_argument if the task is assigned or [pe] out of range. *)

val save_rows : t -> unit
(** Validate the rows and save them for the current depth
    ([n_assigned]), O(PEs) plus the validation. The first call
    allocates the engine's backtrack stack, (tasks + 1) x (4 PEs + 2
    Cells) floats; engines that never backtrack never allocate it. *)

val retract : t -> task:int -> unit
(** Unassign [task], which must be the last task assigned since the
    rows of its depth were saved, and restore those rows. The restored
    state is bitwise the state a fresh engine reaches on the same
    partial assignment, because the rows are a pure function of the
    assignment. O(degree + PEs).
    @raise Invalid_argument if the task is not assigned, or is not the
    last assignment on top of rows saved by {!save_rows} (an
    {!apply_move} or {!apply_swap} since then counts as no save). *)

val assign_exceeds :
  t -> task:int -> pe:int -> at_least:float -> above:float -> bool
(** [true] only if [assign ~task ~pe] would surely give a {!period}
    [>= at_least] or [> above]; the state is left untouched. The test
    reads [pe]'s validated compute row [r] and the task's cost [w] there
    and bounds the new row below by the probe screen's bound (see
    Probing), [(r + w) - c*eps*(r + w)]: O(PEs) for the validation check, then
    O(1), and no allocation. The period is at least the compute row, so
    a [true] implies the exact rule's verdict; [false] decides nothing.
    @raise Invalid_argument if the task is assigned or [pe] out of
    range. *)

val apply_move : t -> task:int -> pe:int -> unit
(** Reassign an assigned task. O(degree). A caller that wants the
    previous state back moves the task to its old PE ({!pe_of}). *)

val apply_swap : t -> int -> int -> unit
(** Exchange the PEs of two assigned tasks; swapping them again
    restores the previous state. O(degree).
    @raise Invalid_argument if the two tasks are the same, before any
    mutation. *)

(** {1 Probing (evaluate without committing)}

    An exact probe validates the state, blits the float rows aside,
    applies the mutation, re-sweeps the dirtied rows — O(tasks + edges):
    the sweep visits every task and edge, so that each row keeps its
    canonical summation order — and restores. A screened probe first
    gathers what the mutation does to each row in one pass over the
    moved task(s) and their incident edges, O(degree + PEs), and runs the
    exact probe only when that cannot already rule the mutation out.
    The screen bounds each touched row from below by
    [(cached + delta) - c*eps*(cached + sum |delta terms|)], with [c]
    derived from the most terms any row or delta can hold: a rounding
    margin covering the cached row's, the delta's and the exact sweep's
    own summation errors (the argument is stated at [lower] in
    [eval.ml]). Untouched rows enter at their cached bits. So a screened
    probe rejects only mutations the exact probe would also reject, and
    returns the exact probe's bits for the rest. In local search two to
    three probes in a hundred survive the screen; {!Heuristics.local_search}
    also leaves unprobed the candidates that cannot change the
    bottleneck row.

    {b Pre-screen.} Before the screen gathers anything, each PE that
    gains a task — the target of a move, both PEs of a swap, never a PE
    that keeps its task — is tested on two rows with the same bound:
    its compute row, in O(1), from the same delta and magnitude floats
    the screen forms; and, on an SPE without [share_colocated_buffers],
    its memory row against the budget, in O(degree), from the arriving
    task's incident buffers minus the leaving task's (every copy sits
    with its task then). The memory delta is summed in another order
    than the screen's; the rounding argument at [lower] holds for any
    summation order of at most its term bound. Most local-search probes stop
    here: at a compute bottleneck, a gained task overloads the compute
    row, or its buffers overflow the local store. A pre-screen
    rejection implies the exact probe's rejection, so it changes no
    answer. *)

val probe_move : t -> task:int -> pe:int -> float * bool
(** Period and feasibility the state would have after
    [apply_move ~task ~pe]; the state is left untouched. *)

val probe_swap : t -> int -> int -> float * bool
(** Same for {!apply_swap}.
    @raise Invalid_argument if the two tasks are the same. *)

val probe_move_below : t -> task:int -> pe:int -> threshold:float -> float
(** [if f && p < threshold then p else infinity] where
    [(p, f) = probe_move t ~task ~pe], bitwise, and the state is left
    untouched. Screened: the exact probe runs only when the O(degree)
    screen cannot show that the move is infeasible (a touched SPE's DMA
    counter over its limit, or its memory over the budget) or that its
    period is [>= threshold]. A probe the screen or the pre-screen
    rejects allocates nothing. *)

val probe_swap_below : t -> int -> int -> threshold:float -> float
(** Same for {!probe_swap}.
    @raise Invalid_argument if the two tasks are the same. *)

(** {1 Counters}

    An engine counts its probes (screened and exact), moves, swaps, row
    sweeps and recomputed rows in plain fields of its own, not in the
    shared registry: the probe path touches no atomic and no cache line
    another domain writes. *)

val publish : t -> unit
(** Add the engine's counts to the [search_eval_*] counters of
    {!Obs.Metrics} (when metrics are enabled) and reset them. Whoever
    owns an engine publishes it once, at the end of its solve; the
    functions of this library that build an engine publish it
    themselves. *)

(** {1 Scratch wrappers}

    One-shot evaluations through a throwaway engine, the recommended
    spelling for a single period or feasibility check under {!options}. *)

val scratch_period :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> float

val scratch_feasible :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> bool

(** {1 Testing hooks} *)

module For_testing : sig
  type verdict =
    | Pass  (** Left to the screen. *)
    | Compute_row  (** A gaining PE's compute row reaches the threshold. *)
    | Memory_row  (** A gaining SPE's local store overflows. *)

  val prescreen_move : t -> task:int -> pe:int -> threshold:float -> verdict
  (** The pre-screen's verdict on the move {!probe_move_below} would
      probe; [Pass] for a same-PE move. *)

  val prescreen_swap : t -> int -> int -> threshold:float -> verdict
  (** Same for a swap; [Pass] when both tasks share a PE. *)
end
