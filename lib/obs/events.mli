(** Structured event sink with a Chrome [trace_event] exporter.

    Instrumented code emits events into a {!sink}; the ring-buffered
    implementation keeps the most recent [capacity] events, timestamps
    them through a {!Clock.t} (a fake clock keeps tests deterministic),
    and totally orders them by emission sequence number. {!to_chrome_json}
    renders any event list as a JSON object Perfetto and
    [chrome://tracing] open directly.

    The {!null} sink is the default everywhere: emitting into it is a
    single pattern match and no allocation, so hot paths are unaffected
    until a caller opts in. *)

(** {1 Clocks} *)

module Clock : sig
  type t

  val monotonic : unit -> t
  (** Wall-clock time rebased to 0 at creation. *)

  val fake : ?start:float -> unit -> t
  (** Manual clock for deterministic tests; starts at [start]
      (default [0.]). *)

  val now : t -> float
  (** Seconds since the clock's origin. *)

  val advance : t -> float -> unit
  (** Move a fake clock forward.
      @raise Invalid_argument on a monotonic clock or a negative step. *)
end

(** {1 Events} *)

type arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type phase =
  | Complete of float  (** a span with the given duration, seconds *)
  | Instant
  | Counter  (** sampled values; the numeric [args] are the series *)
  | Metadata  (** e.g. thread naming; [args] carry the payload *)

type event = {
  seq : int;  (** emission order — the deterministic total order *)
  ts : float;  (** seconds on the sink's clock *)
  name : string;
  cat : string;
  pid : int;
  tid : int;
  phase : phase;
  args : (string * arg) list;
}

(** {1 Sinks} *)

type sink

val null : sink
(** Swallows everything; {!enabled} is [false]. *)

val ring : ?capacity:int -> ?pid:int -> clock:Clock.t -> unit -> sink
(** Keeps the last [capacity] (default 65536) events, overwriting the
    oldest; {!dropped} counts the overwritten ones.
    @raise Invalid_argument when [capacity <= 0]. *)

val enabled : sink -> bool
(** [false] only for {!null} — the guard instrumentation sites use. *)

val emit :
  sink ->
  ?cat:string ->
  ?tid:int ->
  ?ts:float ->
  ?phase:phase ->
  ?args:(string * arg) list ->
  string ->
  unit
(** Record one event. [ts] defaults to the sink clock's now; [phase]
    defaults to {!Instant}; [cat] to [""]; [tid] to [0]. No-op on
    {!null}. *)

val dropped : sink -> int

val events : sink -> event list
(** Buffered events, oldest first (i.e. by [seq]). *)

val clear : sink -> unit

(** {1 Chrome trace export} *)

val to_chrome_json : event list -> string
(** A [{"traceEvents": [...], "displayTimeUnit": "ms"}] object with one
    entry per event: phase ["X"] (with [dur]) for {!Complete}, ["i"] for
    {!Instant}, ["C"] for {!Counter}, ["M"] for {!Metadata}; [ts]/[dur]
    in microseconds. Events are emitted in [seq] order. *)

val thread_name_event : ?pid:int -> tid:int -> string -> event
(** The Chrome metadata event naming thread [tid] — use it so PE lanes
    show up with platform names in Perfetto. *)
