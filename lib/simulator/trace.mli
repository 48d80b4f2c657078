(** Execution traces of simulated runs.

    Pass a fresh trace to {!Runtime.run} via [?trace] to record every
    computation slot and every remote transfer with exact start/finish
    times, then inspect utilization or render Gantt charts (text or SVG) —
    the observability layer one would use on real hardware with a
    profiler. *)

type span = {
  pe : int;  (** Executing PE (for transfers: the destination PE). *)
  label : string;  (** ["task[i]"], ["D(src,dst)[i]"] or a fault label. *)
  kind : [ `Compute | `Transfer | `Fault ];
  start : float;
  finish : float;
}

type t

val create : unit -> t

val record : t -> span -> unit
(** Used by the runtime; spans may arrive out of order. *)

val spans : t -> span list
(** All recorded spans sorted by start time. Allocates and sorts on
    every call. *)

val busy_fraction : t -> n_pes:int -> horizon:float -> float array
(** Fraction of [0, horizon] each PE spends computing. *)

val gantt :
  ?width:int ->
  ?from_time:float ->
  ?to_time:float ->
  Cell.Platform.t ->
  t ->
  string
(** ASCII Gantt chart: one row per PE, ['#'] for compute, ['-'] for
    transfer activity, ['x'] for an active fault, ['.'] for idle. [width]
    defaults to 80 columns. *)

val to_svg :
  ?width:int ->
  ?row_height:int ->
  ?from_time:float ->
  ?to_time:float ->
  Cell.Platform.t ->
  t ->
  string
(** Standalone SVG rendering of the same chart, one lane per PE. *)

val to_chrome : ?extra:Obs.Events.event list -> Cell.Platform.t -> t -> string
(** Chrome/Perfetto trace JSON: one [Complete] span per recorded span
    (thread id = PE index, category ["compute"], ["transfer"] or
    ["fault"]) after thread-name metadata naming each PE lane, plus
    [extra] events, e.g. counter samples drained from a
    {!Obs.Events.sink}. Open the
    written file in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}. *)
