(** Fixed-size domain pool with per-worker work-stealing deques.

    The pool spawns [size] worker domains at [create] and keeps them
    until [shutdown]. Each worker owns one {!Spmc_queue.t}; tasks
    submitted from a worker go to its own deque (falling back to the
    shared injector when the deque is full), tasks submitted from
    outside the pool go to a mutex-protected injector queue. Idle
    workers scan own deque -> injector -> steal (rotating over peers),
    then park on a condition variable; producers wake sleepers after
    publishing work, using a sleeper count read after the (sequentially
    consistent) work publication so wakeups cannot be lost.

    Blocking on results never deadlocks on nested use: when a worker
    awaits, it helps — running pool tasks until its predicate holds —
    instead of sleeping.

    Exceptions raised by tasks are captured with their backtraces and
    re-raised at the join point; combinators re-raise the error of the
    {e lowest-indexed} failing task, a deterministic choice independent
    of execution order. *)

type t

val default_size : unit -> int
(** Pool size from the [CELLSTREAM_DOMAINS] environment variable when
    it parses as a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val create : ?size:int -> ?deque_pow:int -> unit -> t
(** Spawn [size] workers (default {!default_size}); each worker deque
    holds [2^deque_pow] tasks (default 10). *)

val size : t -> int

val shutdown : t -> unit
(** Stop and join all workers. Call only when no submitted work is
    outstanding (every combinator below awaits its own tasks, so this
    holds whenever they are used). Idempotent. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val self : unit -> t option
(** The pool whose worker domain is running the caller, if any. Lets
    code spawned onto a pool (plain tasks and {!Fiber}s alike) reach
    its own scheduler without threading the handle through every
    call. *)

val run_async : t -> (unit -> unit) -> unit
(** Fire-and-forget submission: enqueue the closure (own deque when
    called from a worker of this pool, injector otherwise) and wake a
    sleeper. The closure must capture its own exceptions — anything it
    leaks is shielded and counted in [shielded] ({!stats}), not
    propagated. This is the primitive {!Fiber} schedules on. *)

val help_until : t -> (unit -> bool) -> unit
(** Block until the predicate holds. A worker of this pool {e helps} —
    runs pool tasks between checks — so nested blocking cannot
    deadlock; an outside domain spins briefly then sleeps in 50 µs
    slices. The predicate must eventually be made true by pool tasks
    or another domain. *)

(** {1 Futures} *)

type 'a promise

val submit : t -> (unit -> 'a) -> 'a promise
val await : t -> 'a promise -> 'a
(** Re-raises the task's exception with its original backtrace. *)

(** {1 Combinators} *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map; element [i] of the result is produced by
    exactly one task evaluating [f xs.(i)]. Returns only once every
    task has finished; if any failed, re-raises the lowest-index
    error. Empty and singleton arrays are evaluated in the calling
    domain without touching the pool. *)

val parallel_grow : t -> ('a -> 'a array) -> 'a array -> unit
(** Dynamic fan-out: run [f] on every root item; the items [f] returns
    are resubmitted as fresh tasks (stolen like any other work), until
    the whole transitively spawned frontier has drained. Built for
    node-budgeted search subtrees that split themselves when their
    budget runs out. Items communicate results through the caller's own
    shared state. If any task raises, one captured exception is
    re-raised after the drain — with dynamically spawned work there is
    no stable index order, so unlike {!parallel_map} the choice is not
    deterministic; callers needing determinism must capture their own
    errors. *)

(** {1 Statistics} *)

type worker_stats = {
  executed : int;       (** tasks run by this worker *)
  stolen : int;         (** tasks this worker stole from peers *)
  steal_failures : int; (** steal attempts that found nothing / lost the race *)
  shielded : int;       (** exceptions leaked by raw closures and swallowed by
                            the worker shield — should stay zero; a nonzero
                            count means a {!run_async} closure failed to
                            capture its own errors *)
  busy_s : float;       (** seconds spent running tasks *)
}

val stats : t -> worker_stats array

val publish_stats : t -> unit
(** Push cumulative deltas since the previous call into the [obs]
    [par_*] metric families ([par_tasks_total], [par_steals_total],
    [par_steal_failures_total] counters and the
    [par_worker_busy_fraction] / [par_pool_size] gauges), labeled by
    worker index. No-op when metrics are disabled. *)
