(** Declarative fault plans for resilience experiments.

    A fault plan is a set of timed perturbations of the Cell platform that
    the simulator ({!Simulator.Runtime}) replays as discrete events: a PE
    can fail outright (fail-stop), compute slower for a while (thermal
    throttling, contention from a co-tenant), or see its communication
    interface degraded (EIB arbitration pressure, a flaky DMA engine).
    Plans are plain data: build them by hand for targeted scenarios, or
    generate randomized campaigns from a {!Support.Rng} seed so entire
    fault-injection sweeps are reproducible from one printed integer. *)

type kind =
  | Fail_stop
      (** The PE halts at [start] and never recovers: it stops selecting
          tasks, its in-flight instance is dropped, and transfers to or
          from it no longer start. *)
  | Slowdown of float
      (** Compute times on the PE are multiplied by the factor ([>= 1])
          for instances {e starting} within the interval. *)
  | Link_degrade of float
      (** The PE's interface bandwidth is divided by the factor ([>= 1])
          for transfers starting within the interval, in both
          directions. *)

type fault = {
  pe : int;  (** Platform PE index. *)
  kind : kind;
  start : float;  (** Onset time, seconds. *)
  finish : float;  (** End of the interval; [infinity] for fail-stop. *)
}

type plan = fault list

(** {1 Constructors} *)

val fail_stop : pe:int -> at:float -> fault

val slowdown : pe:int -> factor:float -> from_:float -> until:float -> fault

val link_degrade : pe:int -> factor:float -> from_:float -> until:float -> fault

(** {1 Validation and normalization} *)

val validate : Cell.Platform.t -> plan -> unit
(** @raise Invalid_argument on out-of-range PEs, factors below 1, negative
    onsets, empty intervals, a finite fail-stop window, or two faults of
    the same kind overlapping on the same PE. *)

val sorted : plan -> fault list
(** Plan ordered by onset time (ties by PE index). *)

(** {1 Plan surgery (used by the recovery controller)} *)

val shift : float -> plan -> plan
(** [shift offset plan] translates the plan into the time frame of a
    stream resumed at absolute time [offset]: onsets become
    [max 0 (start - offset)], intervals are clipped, and faults entirely
    in the past — including fail-stops that already fired — are dropped. *)

val mask : alive:(int -> bool) -> remap:(int -> int) -> plan -> plan
(** [mask ~alive ~remap plan] drops faults targeting dead PEs and
    renumbers the survivors' PE indices via [remap] — the translation onto
    a reduced platform after failed resources were masked out. *)

(** {1 Randomized campaigns} *)

val random_campaign :
  rng:Support.Rng.t ->
  ?n_fail_stops:int ->
  ?n_slowdowns:int ->
  ?n_degrades:int ->
  ?max_factor:float ->
  Cell.Platform.t ->
  horizon:float ->
  plan
(** Deterministic random plan over [\[0, horizon)]: [n_fail_stops]
    (default 1) fail-stops on distinct SPEs (PPEs are never killed so
    recovery is always possible), [n_slowdowns] (default 1) and
    [n_degrades] (default 1) transient faults on uniformly chosen PEs with
    factors in [\[1.5, max_factor\]] (default 4.0), each lasting between 5
    and 50 % of the horizon. Equal seeds give equal plans.
    @raise Invalid_argument if the platform has fewer SPEs than
    [n_fail_stops] or [horizon <= 0]. *)

(** {1 Printing} *)

val pp : Cell.Platform.t -> Format.formatter -> plan -> unit
