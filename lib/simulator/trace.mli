(** Execution traces of simulated runs — the simulator's one recorder.

    Pass a fresh trace to {!Runtime.run} via [?trace] to record every
    computation slot and every remote transfer with exact start/finish
    times, plus the runtime's counter samples (DMA-queue depth, buffer
    occupancy, completed instances, achieved throughput), then inspect
    utilization, render Gantt charts (text or SVG) or export everything
    as a Chrome trace — the observability layer one would use on real
    hardware with a profiler. Nothing is dropped: spans and samples are
    kept in full, however long the run. *)

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

val sample :
  t -> cat:string -> ?lane:int -> ts:float -> string ->
  (string * Obs.Events.arg) list -> unit
(** [sample t ~cat ~lane ~ts name args] records one value of counter
    [name] at simulated time [ts]: the numeric [args] are its series,
    [lane] (default 0) the Chrome thread it is drawn on. Used by the
    runtime; samples keep their recording order. *)

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

val write_chrome : (Buffer.t -> unit) -> Cell.Platform.t -> t -> unit
(** Chrome/Perfetto trace JSON, written to a sink as
    {!Obs.Events.write_chrome_json} does: thread-name metadata naming
    each PE lane, then one [Complete] span per recorded span by start
    time (thread id = PE index, category ["compute"], ["transfer"] or
    ["fault"]), then every counter sample in recording order. Open the
    written file in [chrome://tracing] or
    {{:https://ui.perfetto.dev} Perfetto}. *)
