(** Effects-based lightweight tasks (fibers) over {!Pool}.

    A fiber is a computation spawned onto the pool whose blocking
    points {e suspend} instead of occupying a domain: [await] on an
    unresolved promise captures the fiber's continuation (OCaml 5
    effect handlers) and parks it as a waiter on that promise; the
    domain immediately moves on to other pool work. When the promise
    resolves, the continuation is resubmitted as an ordinary pool task
    on the work-stealing deques. [yield] likewise resubmits the
    continuation, sending a long-running fiber to the back of its
    worker's FIFO deque so thousands of fibers interleave fairly on a
    fixed pool — the substrate that lets the daemon keep serving cache
    hits while slow branch-and-bound solves are in flight.

    Both [await] and [yield] degrade gracefully outside a fiber:
    [await] falls back to {!Pool.help_until} (a pool worker helps —
    runs tasks — so nested blocking cannot deadlock; an outside domain
    spin-waits), and [yield] is a no-op. Code can therefore call them
    unconditionally, e.g. from a solver's [should_stop] hook.

    Determinism: fibers schedule {e execution}, not {e results}. A
    computation whose value depends only on its inputs yields the same
    value at any pool size and any interleaving; {!parallel_map}
    additionally re-raises the lowest-index error, independent of
    completion order. *)

type 'a t
(** A fiber handle: a promise resolved when the fiber's body returns
    or raises. *)

val spawn : ?pool:Pool.t -> (unit -> 'a) -> 'a t
(** Start [f] as a fiber on [pool]. Without [?pool] the caller must be
    running on a pool domain (inside a fiber or a pool task), and that
    pool is used.
    @raise Invalid_argument outside any pool when [?pool] is omitted. *)

val await : 'a t -> 'a
(** The fiber's result; re-raises its exception with the original
    backtrace. Inside a fiber this suspends (never blocks a domain);
    outside it blocks via {!Pool.help_until}. A resolved fiber can be
    awaited any number of times. *)

val yield : unit -> unit
(** Reschedule the current fiber to the back of the worker's deque and
    run other pool work first. No-op outside a fiber. *)

val yielder : every:int -> unit -> unit
(** [yielder ~every] is a stateful tick: every [every]-th call yields.
    Made to wrap polled hooks like the solvers' [should_stop] so long
    dives share their domain at node-budget boundaries.
    @raise Invalid_argument when [every < 1]. *)

val run : Pool.t -> (unit -> 'a) -> 'a
(** [spawn] + [await]: run [f] as a root fiber and wait for it. The
    usual entry point from a non-pool domain. *)

val parallel_map : ?pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map with one fiber per element: element [i] of
    the result is produced by exactly one fiber evaluating [f xs.(i)].
    Returns only once every fiber has finished; if any failed,
    re-raises the lowest-index error, a choice independent of
    completion order. Called from a fiber it suspends; called from
    outside one it blocks as {!await} does. It fans out recursively
    too: a fiber that maps over the subtasks it discovers is a dynamic
    task tree whose root returns once the whole tree has drained.
    Same [?pool] defaulting as {!spawn}. *)
