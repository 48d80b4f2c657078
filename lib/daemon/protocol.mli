(** Line protocol of the scheduling daemon.

    {b Grammar} (one command per line; [#] starts a comment, blank
    lines are ignored, a trailing [\r] is tolerated):

    {v
    line     ::= request | "TRACE" TOKEN | "METRICS" | "PING" | "QUIT" | blank
    request  ::= <graph-file> attr*          ; the batch request grammar
    attr     ::= spes=N | strategy=portfolio|bb | seed=N | restarts=N
               | gap=F | max-nodes=N | deadline=MS | prio=N | id=TOKEN
    TOKEN    ::= 1-64 chars of [A-Za-z0-9_.:-]
    v}

    [id=] is protocol-level (echoed in the reply so pipelined clients
    can match replies to requests); the server assigns sequential ids
    to requests that omit it. Everything else is exactly the grammar of
    {!Service.Request.parse_line}.

    {b Replies} — one per request line, in completion order:

    {v
    BEGIN <id> ok|partial          ; mapping follows, `partial` when the
    <batch render block>           ;   deadline cancelled the solve
    END <id>
    REJECT <id> overload           ; admission bound hit
    ERROR <id> <reason>            ; unparseable line
    PONG                           ; reply to PING
    BEGIN metrics ... END metrics  ; reply to METRICS (Prometheus text)
    BEGIN trace <id> ... END trace <id>  ; reply to TRACE (span tree)
    BYE                            ; reply to QUIT, then shutdown
    v}

    [TRACE <id>] returns the retained span tree of a completed request
    (one [span <path> dur_ms=... k=v] line per span, parents first);
    an unknown or evicted id gets an [ERROR] reply.

    The body between [BEGIN]/[END] is byte-for-byte
    {!Service.Batch.render} of the response, so daemon replies can be
    compared literally against [batch] CLI output. *)

type command =
  | Submit of { id : string option; request : Service.Request.t }
      (** [id = None] when the client omitted [id=]; the server assigns
          one before replying. *)
  | Trace of string  (** [TRACE <id>]: the span tree of request [id]. *)
  | Metrics
  | Ping
  | Quit

type parsed =
  | Nothing  (** Blank or comment-only line. *)
  | Command of command
  | Malformed of { id : string option; reason : string }
      (** Reply with [ERROR]; [id] is echoed when it parsed. *)

val parse :
  load_graph:(string -> Streaming.Graph.t) ->
  ?default_spes:int ->
  ?default_strategy:Service.Request.strategy ->
  int ->
  string ->
  parsed
(** Total: never raises; any parse failure (including an exception from
    [load_graph]) becomes {!Malformed}. [lineno] seeds error messages. *)

val render_reply :
  id:string -> partial:bool -> ?bound:float -> Service.Batch.response -> string
(** [bound] (a proven lower bound on the optimal period) is quoted —
    with the optimality gap it implies against the response period — as
    extra [lower_bound:]/[gap:] body lines on {e partial} replies only;
    complete ([ok]) replies stay byte-identical to the historical
    frame. *)

val render_reject : id:string -> string
val render_error : id:string -> string -> string
(** Newlines in the reason are flattened to keep the reply one line. *)

val render_metrics : string -> string

val render_trace : id:string -> string -> string
(** Frame a span-tree body as [BEGIN trace <id> ... END trace <id>]. *)

val pong : string
val bye : string

val render_request : ?id:string -> Service.Request.t -> string
(** A request line (no trailing newline) that {!parse} maps back to an
    equal request — used by stream generators and round-trip tests.
    [label] must be a loadable graph path without whitespace. *)
