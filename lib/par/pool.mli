(** Fixed-size domain pool with per-worker work-stealing deques: the
    scheduler under {!Fiber}, which is the one way to put work on it.

    The pool spawns [size] worker domains at [create] and keeps them
    until [shutdown]. Each worker owns one {!Spmc_queue.t} of 2^10
    tasks; tasks submitted from a worker go to its own deque (falling
    back to the shared injector when the deque is full), tasks
    submitted from outside the pool go to a mutex-protected injector
    queue. Idle workers scan own deque -> injector -> steal (rotating
    over peers), then park on a condition variable; producers wake
    sleepers after publishing work, using a sleeper count read after
    the (sequentially consistent) work publication so wakeups cannot
    be lost.

    Blocking never deadlocks on nested use: a worker that waits in
    {!help_until} helps — runs pool tasks until its predicate holds —
    instead of sleeping. Results, exception capture and the
    lowest-index error order live in {!Fiber}. *)

type t

val default_size : unit -> int
(** Pool size from the [CELLSTREAM_DOMAINS] environment variable when
    it parses as a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val create : ?size:int -> unit -> t
(** Spawn [size] workers (default {!default_size}). *)

val size : t -> int

val shutdown : t -> unit
(** Stop and join all workers. Call only when no submitted work is
    outstanding (every fiber that was spawned has been awaited).
    Idempotent. *)

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
    leaks is shielded: counted in [shielded] ({!stats}) and reported on
    stderr as [par: worker N shielded <exn>], not propagated. This is
    the primitive {!Fiber} schedules on. *)

val help_until : t -> (unit -> bool) -> unit
(** Block until the predicate holds. A worker of this pool {e helps} —
    runs pool tasks between checks — so nested blocking cannot
    deadlock; an outside domain spins briefly then sleeps in 50 µs
    slices. The predicate must eventually be made true by pool tasks
    or another domain. *)

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
