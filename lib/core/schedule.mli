(** Explicit periodic steady-state schedule (paper §3.1, Fig. 3).

    Given a mapping, the schedule is periodic with period [T]: after an
    initialization phase, during period [p] the PE in charge of task [T_k]
    processes instance [p - firstPeriod(T_k)] while the data of
    neighbouring instances is in flight. This module materializes that
    object: what every PE computes and what every edge carries during an
    arbitrary period — useful for inspection, for driving a runtime, and
    for the paper's Fig. 3-style renderings. *)

type activity = {
  task : int;
  instance : int;  (** Instance processed during the queried period. *)
}

type transfer = {
  edge : int;
  src_pe : int;
  dst_pe : int;
  instance : int;  (** Instance of the data in flight during the period. *)
}

type t

val build : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> t
(** Analyze the mapping; uses the paper's mapping-independent
    [firstPeriod]. *)

val throughput : t -> float

val first_period : t -> int -> int
(** [firstPeriod T_k]. *)

val warmup_periods : t -> int
(** Number of periods before every task is active (max [firstPeriod]). *)

val activities : t -> int -> activity list
(** [activities t p]: what runs during period [p >= 0], tasks whose
    [firstPeriod <= p], with the instance each processes. *)

val transfers : t -> int -> transfer list
(** Remote data in flight during period [p]: the result of instance
    [p - firstPeriod(src) - peek-adjusted offset] produced during the
    previous period by each remote edge's source, when available. *)

val instance_latency : t -> int
(** Pipeline depth in periods: number of periods between a source instance
    entering and the same instance leaving the last task. *)

val pp_period : t -> Streaming.Graph.t -> Cell.Platform.t -> int ->
  Format.formatter -> unit -> unit
(** Render one period like the paper's Fig. 3(b). *)
