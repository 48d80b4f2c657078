(** The Chrome [trace_event] export model.

    An {!event} is one row of a Chrome trace: a complete span, a counter
    sample or a metadata record. The recorders of the codebase
    ({!Span} for request-scoped tracing, [Simulator.Trace] for simulated
    runs) build their events in the order they should appear and render
    them with {!write_chrome_json}, a JSON object Perfetto and
    [chrome://tracing] open directly. *)

type arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type phase =
  | Complete of float  (** a span with the given duration, seconds *)
  | Counter  (** sampled values; the numeric [args] are the series *)
  | Metadata  (** e.g. thread naming; [args] carry the payload *)

type event = {
  ts : float;  (** seconds *)
  name : string;
  cat : string;
  pid : int;
  tid : int;
  phase : phase;
  args : (string * arg) list;
}

val write_chrome_json : (Buffer.t -> unit) -> event Seq.t -> unit
(** Render a [{"traceEvents": [...], "displayTimeUnit": "ms"}] object
    with one entry per event, in sequence order: phase ["X"] (with
    [dur]) for {!Complete}, ["C"] for {!Counter}, ["M"] for
    {!Metadata}; [ts]/[dur] in microseconds. Put metadata first so
    viewers name the lanes before drawing them.

    The document goes to [sink] piece by piece, each event rendered
    into one reused buffer: [Buffer.output_buffer oc] streams it to a
    channel in memory bounded by the largest event, and
    [Buffer.add_buffer out] collects it in [out]. *)

val thread_name_event : ?pid:int -> tid:int -> string -> event
(** The Chrome metadata event naming thread [tid] — use it so PE lanes
    show up with platform names in Perfetto. *)
