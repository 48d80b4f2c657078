module Request = Service.Request
module Batch = Service.Batch
module Cache = Service.Cache
module Shard = Service.Shard

(* --- metrics -------------------------------------------------------------- *)

(* Registered eagerly at module initialisation (lazy registration from
   pool workers would race family creation) and bumped behind the
   repo-wide [Obs.Metrics.enabled] branch. The serve loops enable
   metrics on entry: a daemon's METRICS verb is part of its contract. *)
let m_requests =
  Obs.Metrics.counter ~help:"Daemon request lines received"
    "daemon_requests_total"

let m_accepted =
  Obs.Metrics.counter ~help:"Daemon requests admitted (cache hits included)"
    "daemon_accepted_total"

let m_rejected =
  Obs.Metrics.counter ~help:"Daemon requests refused by admission control"
    "daemon_rejected_total"

let m_hits =
  Obs.Metrics.counter ~help:"Daemon requests answered from the warm cache"
    "daemon_hits_total"

let m_solved =
  Obs.Metrics.counter ~help:"Daemon requests answered by a completed solve"
    "daemon_solved_total"

let m_partial =
  Obs.Metrics.counter
    ~help:"Daemon requests answered with a cancelled solve's best incumbent"
    "daemon_partial_total"

let m_deadline =
  Obs.Metrics.counter ~help:"Daemon solves cancelled by their deadline"
    "daemon_deadline_expired_total"

let m_errors =
  Obs.Metrics.counter ~help:"Daemon request lines refused as malformed"
    "daemon_errors_total"

let m_flushes =
  Obs.Metrics.counter ~help:"Daemon cache persistence flushes"
    "daemon_cache_flushes_total"

let g_pending =
  Obs.Metrics.gauge ~help:"Daemon requests admitted but not yet dispatched"
    "daemon_pending"

let g_inflight =
  Obs.Metrics.gauge ~help:"Daemon solves currently running" "daemon_inflight"

let h_latency =
  Obs.Metrics.histogram ~help:"Daemon reply latency (seconds since receipt)"
    "daemon_reply_seconds"

(* Slack can be negative (reply after the deadline), so the log-scale
   default is unusable: explicit symmetric-ish ms bounds instead. *)
let slack_buckets =
  [|
    -60000.; -30000.; -10000.; -5000.; -2000.; -1000.; -500.; -200.; -100.;
    -50.; -20.; -10.; -5.; -2.; -1.; 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.;
    200.; 500.; 1000.; 2000.; 5000.; 10000.; 30000.; 60000.;
  |]

let h_slack =
  Obs.Metrics.histogram
    ~help:
      "Milliseconds between the reply and its deadline (negative: missed)"
    ~buckets:slack_buckets "daemon_deadline_slack_ms"

(* SLO and stage families: every child hoisted eagerly at module init —
   family lookups from pool workers would contend the registry lock and
   lazy registration across domains is racy. *)
let slo_family name help =
  let child band = Obs.Metrics.counter_family ~help name ~labels:[ "band" ] [ band ] in
  (child "low", child "normal", child "high")

let slo_met =
  slo_family "daemon_slo_met_total"
    "Replies delivered within their deadline (no deadline counts as met), by priority band"

let slo_missed =
  slo_family "daemon_slo_missed_total"
    "Replies delivered after their deadline, by priority band"

let slo_counter (low, normal, high) prio =
  if prio < 0 then low else if prio > 0 then high else normal

let stage_hist stage =
  Obs.Metrics.histogram_family
    ~help:"Per-request stage latency (seconds), by stage" "daemon_stage_seconds"
    ~labels:[ "stage" ] [ stage ]

let h_stage_queue = stage_hist "queue"
let h_stage_cache = stage_hist "cache"
let h_stage_solve = stage_hist "solve"
let h_stage_reply = stage_hist "reply"

(* --- configuration -------------------------------------------------------- *)

type config = {
  default_spes : int;
  default_strategy : Request.strategy;
  bound : int;
  concurrency : int;
  fibers : bool;
  max_inflight : int;
  cache_path : string option;
  cache_entries : int option;
  cache_bytes : int option;
  cache_shards : int;
  flush_period : float;
  metrics_file : string option;
  trace_dir : string option;
}

let default_config =
  {
    default_spes = 8;
    default_strategy = Request.default_strategy;
    bound = 64;
    concurrency = 1;
    fibers = false;
    max_inflight = 32;
    cache_path = None;
    cache_entries = None;
    cache_bytes = None;
    cache_shards = 1;
    flush_period = 30.;
    metrics_file = None;
    trace_dir = None;
  }

(* --- server state --------------------------------------------------------- *)

type status = [ `Hit | `Solved | `Partial | `Rejected | `Error of string ]

type reply = {
  id : string;
  status : status;
  response : Batch.response option;
  latency : float;
}

type outcome =
  | Finished of {
      assignment : int array;
      period : float;
      bound : float;  (* proven lower bound, quoted on partial replies *)
      partial : bool;
      deadline_hit : bool;
    }
  | Crashed of string
  | Hit of Batch.response
      (* a dispatch-time cache hit parked in the reply sequencer so it
         goes out in admission order like every other queued reply *)

type job = {
  id : string;
  request : Request.t;
  out : string -> unit;
  received : float;
  deadline : float;  (* absolute seconds; [infinity] when none *)
  trace : Obs.Span.collector option;  (* this request's private span buffer *)
  span : Obs.Span.ctx;  (* position under the request root span *)
  (* The request's canonical key, computed once at receipt and reused by
     every probe and by the store of its solve. *)
  key : Request.key;
  (* reply-sequencing slot (pop order), stamped at dispatch; -1 beforehand *)
  mutable slot : int;
}

type done_item = { job : job; outcome : outcome }

type stats = {
  received : int;
  accepted : int;
  rejected : int;
  errors : int;
  hits : int;
  solved : int;
  partials : int;
  replies : int;
  flush_errors : int;
}

type t = {
  config : config;
  shard : Shard.t;
  (* Every cache touch below goes through this view, so the serving
     code is byte-identical whether the map has 1 shard or 64. *)
  view : Cache.view;
  (* [None]: solves run inline in [poll], one at a time. [Some]: each
     runs as a fiber on the pool, up to [max_inflight] at once. *)
  pool : Par.Pool.t option;
  admission : job Admission.t;
  (* Solve fibers push completions; only the main loop drains. The
     cache, the admission queue and every [out] writer are therefore
     touched exclusively from the main loop. *)
  completed : done_item Queue.t;
  completed_mutex : Mutex.t;
  (* With a pool: a self-pipe (read end, write end), both non-blocking.
     A solve fiber writes a byte after queueing its completion, and
     every wait on the main loop selects on the read end, so a finished
     solve wakes the loop at once. [None] without a pool (inline solves
     need no wake-up) and after [finish] closes it. *)
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
  (* Reply sequencer, main-loop-only like the cache: done items keyed by
     slot, emitted in contiguous slot order. [deferred] holds popped jobs
     whose fingerprint is being solved by an earlier slot;
     [inflight_fps] the fingerprints with a live solve. *)
  ready : (int, done_item) Hashtbl.t;
  deferred : job Queue.t;
  inflight_fps : (string, unit) Hashtbl.t;
  mutable next_slot : int;
  mutable next_reply : int;
  stop : bool Atomic.t;
  load_graph : string -> Streaming.Graph.t;
  on_reply : reply -> unit;
  (* Completed span trees for the TRACE verb, bounded FIFO. Touched only
     from the main loop (send_reply and handle_line both run there). *)
  traces : (string, Obs.Span.span list) Hashtbl.t;
  trace_order : string Queue.t;
  mutable line_no : int;
  mutable auto_id : int;
  mutable last_flush : float;
  mutable dirty : bool;
  mutable received : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable errors : int;
  mutable hits : int;
  mutable solved : int;
  mutable partials : int;
  mutable replies : int;
  mutable flush_errors : int;
}

let default_loader () =
  let table = Hashtbl.create 16 in
  fun path ->
    match Hashtbl.find_opt table path with
    | Some g -> g
    | None ->
        let g = Streaming.Serialize.of_file path in
        Hashtbl.add table path g;
        g

let create ?(on_reply = fun _ -> ()) ?load_graph config =
  if config.concurrency <= 0 then
    invalid_arg "Server.create: non-positive concurrency";
  let pooled = config.concurrency > 1 || config.fibers in
  if pooled && config.max_inflight <= 0 then
    invalid_arg "Server.create: non-positive max_inflight";
  if config.flush_period < 0. then
    invalid_arg "Server.create: negative flush period";
  let shard =
    match config.cache_path with
    | Some path ->
        Shard.load_files ~shards:config.cache_shards
          ?max_entries:config.cache_entries ?max_bytes:config.cache_bytes path
    | None ->
        Shard.create ~shards:config.cache_shards
          ?max_entries:config.cache_entries ?max_bytes:config.cache_bytes ()
  in
  (* [fibers] gets a pool even at concurrency 1: the whole point is
     that solves run off the main loop so hits keep flowing. *)
  let pool =
    if pooled then Some (Par.Pool.create ~size:config.concurrency ()) else None
  in
  let load_graph =
    match load_graph with Some f -> f | None -> default_loader ()
  in
  (match config.trace_dir with
  | Some dir -> ( try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | None -> ());
  {
    config;
    shard;
    view = Shard.view shard;
    pool;
    admission = Admission.create ~bound:config.bound;
    completed = Queue.create ();
    completed_mutex = Mutex.create ();
    wake =
      (if pooled then begin
         let r, w = Unix.pipe ~cloexec:true () in
         Unix.set_nonblock r;
         Unix.set_nonblock w;
         Some (r, w)
       end
       else None);
    ready = Hashtbl.create 64;
    deferred = Queue.create ();
    inflight_fps = Hashtbl.create 64;
    next_slot = 0;
    next_reply = 0;
    stop = Atomic.make false;
    load_graph;
    on_reply;
    traces = Hashtbl.create 64;
    trace_order = Queue.create ();
    line_no = 0;
    auto_id = 0;
    last_flush = Unix.gettimeofday ();
    dirty = false;
    received = 0;
    accepted = 0;
    rejected = 0;
    errors = 0;
    hits = 0;
    solved = 0;
    partials = 0;
    replies = 0;
    flush_errors = 0;
  }

let shard t = t.shard

let stats t =
  {
    received = t.received;
    accepted = t.accepted;
    rejected = t.rejected;
    errors = t.errors;
    hits = t.hits;
    solved = t.solved;
    partials = t.partials;
    replies = t.replies;
    flush_errors = t.flush_errors;
  }

let request_shutdown t = Atomic.set t.stop true
let shutdown_requested t = Atomic.get t.stop

let idle t =
  Admission.load t.admission = 0
  && begin
       Mutex.lock t.completed_mutex;
       let empty = Queue.is_empty t.completed in
       Mutex.unlock t.completed_mutex;
       empty
     end

let publish_queue t =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Gauge.set g_pending
      (float_of_int (Admission.pending t.admission));
    Obs.Metrics.Gauge.set g_inflight
      (float_of_int (Admission.inflight t.admission))
  end

let metrics_inc c = if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc c

let observe_latency latency =
  if Obs.Metrics.enabled () then Obs.Metrics.Histogram.observe h_latency latency

(* One timed stage: a child span plus the matching stage-latency
   histogram observation. *)
let stage_span span hist name f =
  let t0 = Unix.gettimeofday () in
  let v = Obs.Span.with_span span name (fun _ -> f ()) in
  if Obs.Metrics.enabled () then
    Obs.Metrics.Histogram.observe hist (Unix.gettimeofday () -. t0);
  v

(* --- persistence ---------------------------------------------------------- *)

let write_metrics_file path =
  let text = Obs.Metrics.to_file_format path Obs.Metrics.default in
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  with
  | () -> ()
  | exception Sys_error m -> Printf.eprintf "cellsched: %s\n%!" m

let flush t =
  (match t.config.cache_path with
  | Some path -> (
      match Shard.save_files ~force:true t.shard path with
      | Ok () ->
          t.dirty <- false;
          t.last_flush <- Unix.gettimeofday ();
          metrics_inc m_flushes
      | Error m ->
          t.flush_errors <- t.flush_errors + 1;
          Printf.eprintf "cellsched: cache flush: %s\n%!" m)
  | None -> ());
  Option.iter Par.Pool.publish_stats t.pool;
  match t.config.metrics_file with
  | Some path -> write_metrics_file path
  | None -> ()

let maybe_flush t =
  if
    t.dirty && t.config.cache_path <> None
    && t.config.flush_period > 0.
    && Unix.gettimeofday () -. t.last_flush >= t.config.flush_period
  then flush t

(* --- request lifecycle ---------------------------------------------------- *)

let next_id t =
  t.auto_id <- t.auto_id + 1;
  Printf.sprintf "q%d" t.auto_id

let max_retained_traces = 256

let write_trace_file t id spans =
  match t.config.trace_dir with
  | None -> ()
  | Some dir -> (
      let path = Filename.concat dir (id ^ ".json") in
      try
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Obs.Span.to_chrome_json spans))
      with Sys_error m -> Printf.eprintf "cellsched: trace: %s\n%!" m)

let store_trace t id spans =
  if not (Hashtbl.mem t.traces id) then begin
    Queue.push id t.trace_order;
    while Queue.length t.trace_order > max_retained_traces do
      Hashtbl.remove t.traces (Queue.pop t.trace_order)
    done
  end;
  (* An id reused by the client keeps its latest tree (no extra FIFO
     slot, so eviction order stays first-completion). *)
  Hashtbl.replace t.traces id spans

let send_reply t (job : job) ~partial ?bound response =
  stage_span job.span h_stage_reply "reply" (fun () ->
      job.out (Protocol.render_reply ~id:job.id ~partial ?bound response));
  let now = Unix.gettimeofday () in
  let latency = now -. job.received in
  t.replies <- t.replies + 1;
  observe_latency latency;
  let status : status =
    if partial then `Partial
    else match response.Batch.source with Batch.Hit -> `Hit | _ -> `Solved
  in
  (* SLO accounting: a reply with no deadline counts as met; slack is
     only meaningful (and only observed) for finite deadlines. *)
  let met = now <= job.deadline in
  if Obs.Metrics.enabled () then begin
    let prio = job.request.Request.prio in
    Obs.Metrics.Counter.inc
      (slo_counter (if met then slo_met else slo_missed) prio);
    if Float.is_finite job.deadline then
      Obs.Metrics.Histogram.observe h_slack ((job.deadline -. now) *. 1000.)
  end;
  (* Close the request root span and retain the finished tree for the
     TRACE verb and the per-request Chrome file. *)
  Option.iter
    (fun trace ->
      Obs.Span.record
        (Obs.Span.root trace ~trace:job.id)
        ~t_start:job.received ~t_stop:now
        ~attrs:
          [
            ( "status",
              Obs.Span.String
                (match status with
                | `Partial -> "partial"
                | `Hit -> "hit"
                | _ -> "solved") );
            ("prio", Obs.Span.Int job.request.Request.prio);
            ("slo_met", Obs.Span.Bool met);
          ]
        "request";
      let spans = Obs.Span.spans trace in
      store_trace t job.id spans;
      write_trace_file t job.id spans)
    job.trace;
  t.on_reply { id = job.id; status; response = Some response; latency }

let send_error t ~id ~out reason =
  t.errors <- t.errors + 1;
  t.replies <- t.replies + 1;
  metrics_inc m_errors;
  out (Protocol.render_error ~id reason);
  t.on_reply { id; status = `Error reason; response = None; latency = 0. }

(* Runs as a fiber on a pool worker (or inline without a pool).
   Touches nothing but the request and the stop flag. *)
let run_job t (job : job) =
  let deadline_hit = ref false and cancelled = ref false in
  (* On the pool the tick yields the domain at every solver node-budget
     poll, so more in-flight solves than domains still make joint
     progress. *)
  let tick =
    if Option.is_some t.pool then Par.Fiber.yielder ~every:1 else fun () -> ()
  in
  let should_stop () =
    tick ();
    if job.deadline < infinity && Unix.gettimeofday () > job.deadline then begin
      deadline_hit := true;
      cancelled := true;
      true
    end
    else if Atomic.get t.stop then begin
      cancelled := true;
      true
    end
    else false
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match
      Obs.Span.with_span_attrs job.span "solve" (fun span ->
          let res = Batch.solve_request ~span ~should_stop job.request in
          ( res,
            [
              ("partial", Obs.Span.Bool !cancelled);
              ("deadline_hit", Obs.Span.Bool !deadline_hit);
            ] ))
    with
    | assignment, period, bound ->
        Finished
          {
            assignment;
            period;
            bound;
            partial = !cancelled;
            deadline_hit = !deadline_hit;
          }
    | exception exn -> Crashed (Printexc.to_string exn)
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.Histogram.observe h_stage_solve (Unix.gettimeofday () -. t0);
  { job; outcome }

let finish_job t { job; outcome } =
  Admission.finish t.admission;
  match outcome with
  | Crashed reason -> send_error t ~id:job.id ~out:job.out reason
  | Hit response ->
      t.hits <- t.hits + 1;
      metrics_inc m_hits;
      send_reply t job ~partial:false response
  | Finished { assignment; period; bound; partial; deadline_hit } ->
      (* Partial results are timing-dependent: render them, never cache
         them (store:false), so the deterministic cache stays a pure
         function of the completed-solve history. *)
      let response =
        Batch.solved_response_view ~store:(not partial) ~key:job.key
          ~view:t.view job.request (assignment, period)
      in
      if partial then begin
        t.partials <- t.partials + 1;
        metrics_inc m_partial;
        if deadline_hit then metrics_inc m_deadline
      end
      else begin
        t.solved <- t.solved + 1;
        t.dirty <- true;
        metrics_inc m_solved
      end;
      send_reply t job ~partial
        ?bound:(if partial then Some bound else None)
        response

(* --- dispatch ------------------------------------------------------------- *)

(* The dispatcher keeps the determinism contract under concurrent
   solves by separating execution order from reply order. Every popped
   job gets a slot (pop order = the order a one-at-a-time daemon would
   serve it); solves land in [ready], inline or from pool fibers;
   replies — and the cache stores they carry — are emitted strictly in
   contiguous slot order by [finish_ready]. A job whose fingerprint is
   already being solved is parked in [deferred] instead of burning a
   duplicate solve, and re-probed when its twin's slot finishes, so it
   hits the just-stored entry exactly as a one-at-a-time cache@dispatch
   re-check would ([source: cache]). Progress is guaranteed: a deferred
   job always waits on a strictly smaller slot (its twin was popped
   earlier or spawned by an earlier retry), so the smallest unfinished
   slot is never deferred. Without a pool the in-flight limit is 1 and
   [spawn_solve] runs the solve on the spot, so nothing is ever
   deferred and each [poll] runs at most one solve. *)

(* After the push, so a loop that reaped before the push still finds
   the byte. A full pipe already holds a wake-up: EAGAIN is fine. *)
let signal_wake t =
  match t.wake with
  | Some (_, w) -> (
      try ignore (Unix.single_write_substring w "!" 0 1)
      with Unix.Unix_error _ -> ())
  | None -> ()

let clear_wake t =
  match t.wake with
  | Some (r, _) ->
      let buf = Bytes.create 64 in
      let rec go () =
        match Unix.read r buf 0 64 with
        | 64 -> go ()
        | _ | (exception Unix.Unix_error _) -> ()
      in
      go ()
  | None -> ()

let spawn_solve t (job : job) =
  Hashtbl.replace t.inflight_fps job.key.Request.fingerprint ();
  match t.pool with
  | None -> Hashtbl.replace t.ready job.slot (run_job t job)
  | Some pool ->
      ignore
        (Par.Fiber.spawn ~pool (fun () ->
             let item = run_job t job in
             Mutex.lock t.completed_mutex;
             Queue.push item t.completed;
             Mutex.unlock t.completed_mutex;
             signal_wake t))

(* Probe-or-spawn for a job already holding a slot; shared between
   first dispatch and deferred retries so both produce the exact bytes
   a one-at-a-time cache@dispatch re-check would. *)
let classify_dispatch t (job : job) =
  if Hashtbl.mem t.inflight_fps job.key.Request.fingerprint then
    Queue.push job t.deferred
  else
    match
      stage_span job.span h_stage_cache "cache@dispatch" (fun () ->
          Batch.try_cache_view ~key:job.key ~view:t.view job.request)
    with
    | Some response -> Hashtbl.replace t.ready job.slot { job; outcome = Hit response }
    | None -> spawn_solve t job

let retry_deferred t =
  if not (Queue.is_empty t.deferred) then begin
    let parked = Queue.create () in
    Queue.transfer t.deferred parked;
    (* retry in queue (= slot) order; classify_dispatch re-defers any
       job whose fingerprint went back in flight this round *)
    Queue.iter (fun job -> classify_dispatch t job) parked
  end

let transfer_completed t =
  Mutex.lock t.completed_mutex;
  while not (Queue.is_empty t.completed) do
    let item = Queue.pop t.completed in
    Hashtbl.replace t.ready item.job.slot item
  done;
  Mutex.unlock t.completed_mutex

let rec finish_ready t =
  match Hashtbl.find_opt t.ready t.next_reply with
  | None -> ()
  | Some ({ job; outcome } as item) ->
      Hashtbl.remove t.ready t.next_reply;
      t.next_reply <- t.next_reply + 1;
      (match outcome with
      | Finished _ | Crashed _ ->
          Hashtbl.remove t.inflight_fps job.key.Request.fingerprint
      | Hit _ -> ());
      finish_job t item;
      (* this finish may have stored a cache entry and released its
         fingerprint: deferred twins can now hit or respawn *)
      retry_deferred t;
      finish_ready t

let dispatch t =
  let limit = if Option.is_some t.pool then t.config.max_inflight else 1 in
  let rec go () =
    if Hashtbl.length t.inflight_fps < limit then
      match Admission.next t.admission with
      | None -> ()
      | Some job ->
          job.slot <- t.next_slot;
          t.next_slot <- t.next_slot + 1;
          (* The admission-queue wait: stamped from receipt to dispatch,
             recorded here because its start crossed an async boundary. *)
          Obs.Span.record job.span ~t_start:job.received "queue";
          if Obs.Metrics.enabled () then
            Obs.Metrics.Histogram.observe h_stage_queue
              (Unix.gettimeofday () -. job.received);
          classify_dispatch t job;
          go ()
  in
  go ()

let poll t =
  transfer_completed t;
  finish_ready t;
  dispatch t;
  (* a dispatch-time hit or an inline solve may occupy the very next slot *)
  finish_ready t;
  maybe_flush t;
  publish_queue t

let submit t ~out ?id ?(trace = true) request =
  t.received <- t.received + 1;
  metrics_inc m_requests;
  let id = match id with Some id -> id | None -> next_id t in
  let received = Unix.gettimeofday () in
  (* A traced request gets a private span collector rooted at its id;
     the root "request" span itself is recorded when the reply goes
     out, but children nest under it from the first probe on. *)
  let trace = if trace then Some (Obs.Span.collector ()) else None in
  let span =
    match trace with
    | Some col -> Obs.Span.sub (Obs.Span.root col ~trace:id) "request"
    | None -> Obs.Span.null
  in
  (* The warm-cache hit path never queues: it is answered inline,
     bypassing admission control entirely, so an overloaded daemon
     keeps serving everything it already knows. *)
  let key, hit =
    stage_span span h_stage_cache "cache" (fun () ->
        let key = Request.key request in
        (key, Batch.try_cache_view ~key ~view:t.view request))
  in
  let job deadline =
    { id; request; out; received; deadline; trace; span; key; slot = -1 }
  in
  match hit with
  | Some response ->
      t.accepted <- t.accepted + 1;
      t.hits <- t.hits + 1;
      metrics_inc m_accepted;
      metrics_inc m_hits;
      send_reply t (job infinity) ~partial:false response
  | None ->
      let job =
        job
          (match request.Request.deadline_ms with
          | Some ms -> received +. (ms /. 1000.)
          | None -> infinity)
      in
      if Admission.admit t.admission ~prio:request.Request.prio job then begin
        t.accepted <- t.accepted + 1;
        metrics_inc m_accepted;
        publish_queue t
      end
      else begin
        t.rejected <- t.rejected + 1;
        t.replies <- t.replies + 1;
        metrics_inc m_rejected;
        out (Protocol.render_reject ~id);
        t.on_reply
          { id; status = `Rejected; response = None; latency = 0. }
      end

let handle_line t ~out line =
  t.line_no <- t.line_no + 1;
  match
    Protocol.parse ~load_graph:t.load_graph
      ~default_spes:t.config.default_spes
      ~default_strategy:t.config.default_strategy t.line_no line
  with
  | Protocol.Nothing -> ()
  | Protocol.Command Protocol.Ping -> out Protocol.pong
  | Protocol.Command Protocol.Quit ->
      out Protocol.bye;
      request_shutdown t
  | Protocol.Command Protocol.Metrics ->
      out
        (Protocol.render_metrics
           (Obs.Metrics.to_prometheus Obs.Metrics.default))
  | Protocol.Command (Protocol.Trace id) -> (
      (* A read-only verb like METRICS: replies without touching the
         request counters or admission control. *)
      match Hashtbl.find_opt t.traces id with
      | Some spans ->
          out (Protocol.render_trace ~id (Obs.Span.render_flat spans))
      | None -> out (Protocol.render_error ~id "unknown or evicted trace id"))
  | Protocol.Malformed { id; reason } ->
      t.received <- t.received + 1;
      metrics_inc m_requests;
      let id = match id with Some id -> id | None -> next_id t in
      send_error t ~id ~out reason
  | Protocol.Command (Protocol.Submit { id; request }) -> submit t ~out ?id request

(* --- lifecycle ------------------------------------------------------------ *)

(* Block until one of [fds] is readable, a pooled solve completes, or
   50 ms pass; returns the readable [fds]. A pool-less engine with
   queued work never blocks: its next [poll] runs that work, so the
   wait only polls [fds] (and is skipped when there are none). *)
let wait t fds =
  let inline_work = t.pool = None && Admission.pending t.admission > 0 in
  if inline_work && fds = [] then []
  else
    let wake = match t.wake with Some (r, _) -> [ r ] | None -> [] in
    match
      Unix.select (wake @ fds) [] [] (if inline_work then 0. else 0.05)
    with
    | readable, _, _ ->
        if List.exists (fun fd -> List.memq fd wake) readable then clear_wake t;
        List.filter (fun fd -> List.memq fd fds) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let drain t =
  poll t;
  while not (idle t) do
    ignore (wait t []);
    poll t
  done

let finish t =
  drain t;
  flush t;
  publish_queue t;
  Option.iter Par.Pool.shutdown t.pool;
  (* After the shutdown joined every worker: no fiber writes it now. *)
  Option.iter
    (fun (r, w) ->
      t.wake <- None;
      Unix.close r;
      Unix.close w)
    t.wake

let shutdown t =
  (* The stop flag cancels every in-flight solve; [drain] then
     dispatches the still-pending queue, whose solves cancel on their
     first check — every admitted request gets a (partial) reply before
     the flush, so a SIGTERM drops nothing. *)
  request_shutdown t;
  finish t

(* --- serve loops ---------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Line framing, shared by both serve loops. [pending] holds the bytes
   after the last '\n' of the stream so far. [feed_lines] hands each line
   that [chunk.[0 .. n-1]] completes to [f], in order and without its
   '\n', and keeps the unterminated rest. It scans only the new bytes, so
   a line that arrives in many chunks costs O(its length) in all. *)
let feed_lines pending chunk n f =
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get chunk i = '\n' then begin
      let len = i - !start in
      if Buffer.length pending = 0 then f (Bytes.sub_string chunk !start len)
      else begin
        Buffer.add_subbytes pending chunk !start len;
        let line = Buffer.contents pending in
        Buffer.clear pending;
        f line
      end;
      start := i + 1
    end
  done;
  Buffer.add_subbytes pending chunk !start (n - !start)

(* One read from [fd] through [feed_lines]; [false] at end of input. An
   interrupted read reads nothing. *)
let read_lines fd chunk pending f =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      feed_lines pending chunk n f;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* A final line without a trailing newline still deserves a reply. *)
let final_line pending f =
  if Buffer.length pending > 0 then f (Buffer.contents pending)

let install_signals t =
  let handler = Sys.Signal_handle (fun _ -> request_shutdown t) in
  List.iter
    (fun signal ->
      try Sys.set_signal signal handler
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let serve_fd ?on_reply ?load_graph config ~input ~output =
  Obs.Metrics.set_enabled true;
  let t = create ?on_reply ?load_graph config in
  install_signals t;
  let out = write_all output in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  while (not (shutdown_requested t)) && not (!eof && idle t) do
    (* At EOF the unterminated final line goes to the engine at once,
       exactly as the socket loop hands over a closing client's. *)
    (if wait t (if !eof then [] else [ input ]) <> []
        && not (read_lines input chunk buf (handle_line t ~out))
     then begin
       final_line buf (handle_line t ~out);
       eof := true
     end);
    poll t
  done;
  if shutdown_requested t then shutdown t else finish t;
  t

let serve_socket ?on_reply ?load_graph config ~path =
  Obs.Metrics.set_enabled true;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (match Unix.lstat path with
  | st ->
      if st.Unix.st_kind = Unix.S_SOCK then Unix.unlink path
      else failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  let t = create ?on_reply ?load_graph config in
  install_signals t;
  let clients : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  (* A client at end of input is no longer read, but its fd stays open
     until the engine is idle: replies to its queued requests still
     reach it (as the pipe loop answers everything before exiting), and
     no reply can land on a later client that reuses the fd number. *)
  let closing = ref [] in
  let end_client fd =
    Hashtbl.remove clients fd;
    closing := fd :: !closing
  in
  let close_all fds =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
  in
  (* A job's reply may outlive its client: swallow write failures so a
     disconnect never kills the daemon (SIGPIPE is already ignored). *)
  let client_out fd s =
    try write_all fd s with Unix.Unix_error _ | Sys_error _ -> ()
  in
  let chunk = Bytes.create 65536 in
  while not (shutdown_requested t) do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [ srv ] in
    List.iter
      (fun fd ->
        if fd == srv then (
          match Unix.accept srv with
          | cfd, _ -> Hashtbl.replace clients cfd (Buffer.create 1024)
          | exception Unix.Unix_error _ -> ())
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some buf -> (
              let reply = handle_line t ~out:(client_out fd) in
              match read_lines fd chunk buf reply with
              | true -> ()
              | false ->
                  final_line buf reply;
                  end_client fd
              | exception Unix.Unix_error _ -> end_client fd))
      (wait t fds);
    poll t;
    if !closing <> [] && idle t then begin
      close_all !closing;
      closing := []
    end
  done;
  shutdown t;
  close_all !closing;
  close_all (Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []);
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  t

module For_testing = struct
  let split_lines chunks =
    let pending = Buffer.create 16 and lines = ref [] in
    let add line = lines := line :: !lines in
    List.iter
      (fun c -> feed_lines pending (Bytes.of_string c) (String.length c) add)
      chunks;
    final_line pending add;
    List.rev !lines
end
