(** Request-scoped tracing: spans, contexts and a lock-free collector.

    A {!span} is one timed stage of one request: it carries the
    request's trace id, its own content-derived span id, its parent's
    id, start/stop timestamps on the process monotonic-ish clock
    ({!now}), and a small attribute list. Instrumented code receives a
    {!ctx} — trace id plus position in the tree — and opens children
    with {!with_span}/{!record}; the {!null} context turns every hook
    into a single pattern match, so the default-off path costs nothing
    measurable.

    {b Identity is content, not allocation order.} A span's [path] is
    its slash-joined ancestor names (["/request/solve/dive"]), and its
    [id] is a 64-bit FNV-1a hash of [trace ^ path]. Two runs that open
    the same stages for the same request therefore produce the same
    ids and parentage whatever the domain interleaving — the property
    the pools-1/2/4 determinism tests pin down. Sites must keep sibling
    names unique within one parent (e.g. ["cache"] vs
    ["cache@dispatch"], ["entrant:greedy-mem"], ["subtree:<hash>"]);
    {!spans} breaks path ties by timestamp, which is the one
    nondeterministic component.

    {b Domain safety.} A {!collector} holds a fixed array of
    [Atomic]-backed list heads indexed by the pushing domain (PR-4
    registry style): {!with_span} from any {!Par.Pool} worker or B&B
    subtree task is a retry-CAS prepend, lock-free and never lost.
    {!spans} is the single merge point: it drains nothing, sorts the
    union by [(trace, path, t_start)] and returns a deterministic
    stream (timestamps aside). *)

type attr = Events.arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
(** The Chrome export's argument type, so attributes render unconverted. *)

type span = {
  trace : string;  (** request-scoped trace id *)
  id : int64;  (** FNV-1a of [trace ^ path]; never [0L] *)
  parent : int64;  (** [0L] for a root span *)
  name : string;  (** last path component *)
  path : string;  (** ["/a/b/c"] — the deterministic sort key *)
  t_start : float;  (** seconds on {!now}'s clock *)
  t_stop : float;
  attrs : (string * attr) list;
}

type collector

val collector : unit -> collector
(** A fresh, empty collector. Cheap enough to create per request. *)

val spans : collector -> span list
(** Everything collected so far, merged across domains and sorted by
    [(trace, path, t_start, t_stop)] — parents sort before their
    children (a path is a strict prefix of its descendants').
    Deterministic up to timestamps whenever sibling names are unique. *)

val count : collector -> int
val clear : collector -> unit

(** {1 Contexts} *)

type ctx
(** Immutable; safe to capture in closures that run on other domains. *)

val null : ctx
(** The default everywhere: every operation below is a no-op. *)

val active : ctx -> bool

val root : collector -> trace:string -> ctx
(** A live context at the top of [trace]'s tree. Opening a child of it
    records a root span ([parent = 0L]). *)

val now : unit -> float
(** The clock every span uses: wall seconds ([Unix.gettimeofday]),
    shared process-wide so stages recorded on different domains nest
    consistently. *)

val sub : ctx -> string -> ctx
(** Descend one level {e without} recording a span — for a stage whose
    own span is recorded later with {!record} (e.g. the request root,
    closed only when the reply is sent) but whose children must nest
    under it now. *)

val with_span : ctx -> ?attrs:(string * attr) list -> string -> (ctx -> 'a) -> 'a
(** [with_span ctx name f] times [f], passing it the child context, and
    records the span when [f] returns — also when it raises, with an
    extra [("raised", Bool true)] attribute. On {!null}: [f null]. *)

val with_span_attrs :
  ctx -> string -> (ctx -> 'a * (string * attr) list) -> 'a
(** Like {!with_span} for stages whose attributes are computed by the
    stage itself (solver counters); [f] returns [(value, attrs)]. On
    {!null}, [f null] must still return the pair (the attrs are
    dropped). *)

val record :
  ctx ->
  ?attrs:(string * attr) list ->
  ?t_start:float ->
  ?t_stop:float ->
  string ->
  unit
(** Record a child span with explicit endpoints (both default to
    {!now} [()]) — for stages measured across asynchronous boundaries,
    like an admission-queue wait whose start was stamped at receipt. *)

(** {1 Rendering} *)

val to_chrome_json : span list -> string
(** Chrome [trace_event] JSON: one phase-[X] event per span, [ts]
    rebased so the earliest span starts at 0, the span's [path],
    [trace] and attributes in [args]. Perfetto / [chrome://tracing]
    open it directly. *)

val render_flat : span list -> string
(** One line per span, paths explicit — the [TRACE] verb's body:
    {v span /request/solve dur_ms=12.345 nodes=4821 v}
    Lines follow {!spans} order, so a parent precedes its children and
    well-parentedness is checkable line by line. *)

val render_tree : span list -> string
(** Human-readable indented tree (two spaces per depth level):
    {v request 14.2ms status=ok
  queue 1.3ms
  solve 12.3ms nodes=4821 v} *)
