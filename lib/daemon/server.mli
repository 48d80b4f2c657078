(** The one engine that answers request streams: the {!Service.Batch}
    request path behind admission, deduplication and a slot-ordered
    reply sequencer.

    It drives both daemon transports ([stdin] pipe mode and a
    Unix-domain socket) and the [batch] command, which submits its
    whole request file and calls {!finish}. Lines come in through
    {!handle_line} (parsed requests through {!submit}), work advances
    through {!poll}. The split keeps every policy decision
    unit-testable without a file descriptor in sight:

    - {b Hits are free}: a request answered by the warm {!Service.Cache}
      replies inline from {!handle_line} and never queues — an
      overloaded daemon keeps serving everything it already knows.
    - {b Admission control}: misses enter a bounded priority queue
      ({!Admission}); when queued plus in-flight work reaches
      [config.bound] the daemon replies [REJECT <id> overload]
      immediately instead of queueing without bound.
    - {b Deadlines}: a request's [deadline=MS] starts a wall-clock
      budget at receipt; when it expires mid-solve the solver is
      cancelled through the [should_stop] hook and the best incumbent
      so far — always a feasible mapping — is returned tagged
      [partial]. Partial results are {e never} written to the cache
      (they are timing-dependent; the cache stays deterministic).
    - {b Two execution modes, one dispatcher.} Without a pool
      ([config.concurrency = 1] and [config.fibers] off) {!poll} runs
      at most one solve inline (deterministic, no domains spawned —
      fork-safe for tests). With [concurrency > 1] or [config.fibers]
      (a pool of [concurrency] domains, one even at concurrency 1)
      every dispatched miss runs as a suspendable {!Par.Fiber},
      yielding its domain at solver node-budget boundaries, with up to
      [config.max_inflight] solves in flight at once; completions cross
      back to the main loop through a mutex-protected queue, so the
      cache and the client writers are only ever touched from the loop.
      Both modes go through the same {e slot sequencer}: queued replies
      (and their cache stores) go out in admission-pop order regardless
      of completion order, and a job whose fingerprint is already being
      solved parks until its twin's slot lands — then hits the
      just-stored entry exactly as a one-at-a-time cache@dispatch
      re-check would. Replies are therefore bitwise identical in both
      modes, with one deliberate exception: inline warm-cache hits never
      queue, so on a pool they overtake long dives, where the pool-less
      daemon's inline solve blocks the loop.
    - {b Sharding}: the warm cache is a {!Service.Shard} map of
      [config.cache_shards] independently-locked shards; every probe
      and insert below goes through its {!Service.Cache.view}, so the
      serving code — and the reply bytes — are identical at any shard
      count. One shard (the default) behaves exactly like the plain
      pre-shard cache.
    - {b Persistence}: the cache loads warm from [cache_path] at
      start-up, flushes periodically (every [flush_period] seconds,
      when dirty) and always on shutdown — atomically {e per shard}
      ({!Service.Shard.save_files}), so a kill mid-flush never loses
      any shard's previous complete snapshot. Shard-count changes
      (and legacy single-file caches) migrate automatically at load.
    - {b Shutdown}: SIGINT/SIGTERM (installed by the serve loops) and
      the [QUIT] verb set one atomic flag; in-flight solves cancel,
      still-pending requests are dispatched and cancel on their first
      check, so {e every admitted request is replied to} (tagged
      partial) before the final flush — a SIGTERM drops nothing.

    - {b Tracing}: every submitted request owns a private
      {!Obs.Span.collector}; the engine records a span tree rooted at
      a ["request"] span (annotated with status, priority and SLO
      outcome) with children for the cache probe ([cache] at receipt,
      [cache@dispatch] at the queue head), the admission-queue wait
      ([queue], stamped from receipt), the [solve] (whose subtree is
      the solver flight recorder of {!Service.Batch.solve_request} —
      portfolio entrants, dive/fanout/subtree tasks, [milp-bb]) and the
      [reply] rendering/write. Finished trees are retained in a
      bounded FIFO (most recent 256) and served back by the
      [TRACE <id>] verb as one [span <path> dur_ms=...] line per span,
      parents first; with [config.trace_dir] set, each request
      additionally writes [<dir>/<id>.json] in Chrome [trace_event]
      format.

    Metric families ([daemon_*]: accepted/rejected/hits/solved/partial/
    deadline-expired/errors/flushes counters, pending and in-flight
    gauges, reply-latency, deadline-slack and per-stage latency
    histograms, SLO met/missed counters by priority band) are
    registered at module initialisation; the serve loops enable the
    registry on entry. *)

type config = {
  default_spes : int;  (** For request lines without [spes=]. *)
  default_strategy : Service.Request.strategy;
  bound : int;  (** Admission bound: max queued + in-flight misses. *)
  concurrency : int;
      (** Pool size. [1] without [fibers] = inline solves, no pool. *)
  fibers : bool;
      (** Create the pool even at concurrency 1, so solves run as
          fibers off the main loop. *)
  max_inflight : int;
      (** With a pool: max concurrently in-flight solve fibers
          (default 32). Without one, solves run one at a time. *)
  cache_path : string option;
      (** Warm-start load at create, flush target afterwards. *)
  cache_entries : int option;  (** Total LRU entry bound (default 1024). *)
  cache_bytes : int option;  (** Total LRU byte bound (default 16 MiB). *)
  cache_shards : int;
      (** Independently-locked cache shards (default 1; max
          {!Service.Shard.max_shards}). Budgets above are totals,
          split evenly across shards. *)
  flush_period : float;
      (** Seconds between background flushes; [0.] disables the
          periodic flush (shutdown still flushes). *)
  metrics_file : string option;
      (** Rewritten at every flush and at shutdown, in the format
          {!Obs.Metrics.to_file_format} picks for the path. With a pool
          each flush first publishes its [par_*] worker stats. *)
  trace_dir : string option;
      (** When set (created if missing), every completed request writes
          its span tree to [<dir>/<id>.json] as a Chrome trace. *)
}

val default_config : config
(** 8 SPEs, portfolio strategy, bound 64, concurrency 1, fibers off
    (max 32 in flight with a pool), one cache shard, no persistence, 30 s
    flush period, no trace directory. *)

type status = [ `Hit | `Solved | `Partial | `Rejected | `Error of string ]

type reply = {
  id : string;
  status : status;
  response : Service.Batch.response option;
      (** [None] for [`Rejected] and [`Error]. *)
  latency : float;  (** Seconds from line receipt to reply. *)
}

type stats = {
  received : int;  (** Request lines (malformed included; verbs not). *)
  accepted : int;  (** Hits plus admitted misses. *)
  rejected : int;
  errors : int;
  hits : int;
  solved : int;
  partials : int;
  replies : int;  (** Every reply sent, [REJECT]/[ERROR] included. *)
  flush_errors : int;
      (** Cache flushes that failed (each reported on stderr); the
          batch command exits 2 when its final flush fails. *)
}

type t

val create :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  t
(** [on_reply] observes every request reply (tests, bench latency
    collection). [load_graph] (default: a memoizing
    {!Streaming.Serialize.of_file}) lets tests resolve graph names
    without touching the filesystem.
    @raise Invalid_argument on non-positive [bound] or [concurrency],
    or on non-positive [max_inflight] with a pool. *)

val shard : t -> Service.Shard.t
(** The warm cache (a 1-shard map unless configured otherwise). *)

val stats : t -> stats

val submit :
  t -> out:(string -> unit) -> ?id:string -> ?trace:bool -> Service.Request.t -> unit
(** Act on one parsed request: a cache hit or an admission rejection
    replies immediately through [out]; an admitted miss waits for
    {!poll}. [id] defaults to the next [q<N>]. [trace] (default
    [true]) records the request's span tree for the [TRACE] verb and
    [config.trace_dir]; [false] records nothing, for callers that can
    never ask (the batch command). *)

val handle_line : t -> out:(string -> unit) -> string -> unit
(** Parse and act on one protocol line. Verbs and malformed lines reply
    immediately through [out]; requests go to {!submit}. *)

val poll : t -> unit
(** Advance the engine: reap completed solves and reply in slot order
    (through each job's own [out]), dispatch pending work up to the
    in-flight limit, and run the periodic flush. Non-blocking with a
    pool; without one it runs at most one pending solve inline. *)

val idle : t -> bool
(** No pending, in-flight or unreaped work. *)

val drain : t -> unit
(** {!poll} until {!idle} — lets outstanding work complete normally.
    Between polls it blocks only while pooled solves run, and a
    completing solve wakes it at once; queued inline work runs without
    a pause. *)

val shutdown_requested : t -> bool

val finish : t -> unit
(** Graceful end-of-input (the pipe EOF path): drain letting solves
    complete, flush, stop the pool and close its wake-up pipe. Call it
    (or {!shutdown}) once per engine. *)

val shutdown : t -> unit
(** Fast stop (the SIGTERM/QUIT path): cancel in-flight solves, reply
    [partial] to everything admitted, flush, stop the pool. *)

val serve_fd :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  t
(** Pipe mode: read lines from [input], write replies to [output],
    until EOF (then {!finish}) or SIGINT/SIGTERM/[QUIT] (then
    {!shutdown}). An unterminated final line is handed to the engine
    at EOF, as {!serve_socket} does for a closing client. Enables
    metrics and installs signal handlers. Returns the engine for
    post-mortem {!stats}. *)

val serve_socket :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  path:string ->
  t
(** Unix-domain-socket mode: listen on [path] (an existing socket file
    is replaced; anything else there fails), multiplex any number of
    clients with [select], ignore SIGPIPE, swallow writes to
    disconnected clients. A client at end of input is no longer read;
    its final unterminated line goes to the engine, and its fd stays
    open until the engine is idle, so every reply it is owed reaches
    it. [QUIT] or a signal stops the whole server
    ({!shutdown}); the socket file is unlinked on exit. *)

(** {1 Testing hooks} *)

module For_testing : sig
  val split_lines : string list -> string list
  (** The lines both serve loops hand to the engine when the input
      arrives cut into the given chunks, an unterminated final line
      included. *)
end
