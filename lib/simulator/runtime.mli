(** Discrete-event simulation of a mapped streaming application on the Cell
    model — the experimental substrate standing in for the paper's PS3 and
    QS22 runs (§6).

    The simulated runtime follows the scheduler of paper §6.1 (Fig. 4):
    each PE cyclically selects a runnable task (inputs present, output
    buffer slots free) and processes one instance; inter-PE data moves as
    asynchronous DMA transfers constrained by the bounded-multiport
    interfaces (one transfer at a time per interface direction, [data/bw]
    seconds each plus a DMA setup latency), the per-edge double buffers
    sized by the steady-state analysis, and the SPE DMA-queue limits.
    A configurable per-instance overhead models the framework cost the
    paper measures as the ~5 % gap between predicted and achieved
    throughput (§6.4.1). *)

type options = {
  overhead_fraction : float;
      (** Fractional compute overhead per task instance (default 0.05:
          the paper's framework overhead). *)
  dma_setup_time : float;
      (** Seconds to initiate one DMA transfer (default 2e-6). *)
  comm_cpu_time : float;
      (** CPU seconds consumed on each endpoint per remote transfer for
          issuing the DMA, polling its status and signalling (the paper
          notes SPEs must interrupt computation to manage communication);
          default 5e-5. *)
  peek_flush : bool;
      (** Allow tasks with [peek > 0] to process the final instances of a
          finite stream with truncated look-ahead (default true). *)
}

val default_options : options

type metrics = {
  instances : int;  (** Instances fully processed by every task. *)
  makespan : float;  (** Completion time of the last instance. *)
  completion_times : float array;
      (** [completion_times.(i)]: time when instance [i] left the last
          task. *)
  average_throughput : float;  (** [instances / makespan]. *)
  steady_throughput : float;
      (** Rate over the second half of the stream — the plateau of the
          paper's Fig. 6. *)
  pe_busy : float array;  (** Compute-busy seconds per PE. *)
  transfers : int;  (** Remote transfers performed. *)
  bytes_transferred : float;  (** Total remote bytes moved. *)
  dma_in_highwater : int array;
      (** Per-PE maximum number of concurrent incoming DMA transfers
          observed — how close the run came to [max_dma_in]. *)
  dma_to_ppe_highwater : int array;
      (** Per-SPE maximum concurrent SPE-to-PPE transfers observed
          (vs [max_dma_to_ppe]); always 0 on the PPE entries. *)
}

val run :
  ?options:options ->
  ?trace:Trace.t ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Cellsched.Mapping.t ->
  instances:int ->
  metrics
(** Simulate the stream; with [?trace], every compute slot and remote
    transfer is recorded for {!Trace} post-processing, together with the
    counter samples of a Chrome-trace export: DMA-queue depth per
    destination PE at each transfer start, remote-buffer occupancy at
    each transfer completion, completed instances and achieved
    throughput. Without [?trace] the run records nothing. When the
    process-wide {!Obs.Metrics} registry is enabled, the run additionally
    publishes busy fractions, DMA high-water marks and throughput there.
    @raise Invalid_argument if [instances <= 0] or the mapping overflows
    an SPE local store ({!Cellsched.Steady_state.Memory} violation).
    Mappings that merely exceed the MILP's per-period DMA-queue constraints
    are simulated anyway: the runtime queues transfers dynamically, exactly
    like the real framework, and pays the resulting stalls. *)

val throughput_curve : metrics -> points:int -> (int * float) list
(** Cumulative throughput (instances per second after i instances) sampled
    at [points] evenly spaced instance counts — the experimental curve of
    Fig. 6. *)

(** {1 Fault injection}

    {!run_with_faults} replays a {!Fault.plan} as simulation events: a
    fail-stopped PE stops selecting tasks and drops its in-flight
    instance (transfers already in flight complete, new transfers to or
    from it never start), a slowed PE stretches every compute slot
    starting inside the fault window by the slowdown factor, and a
    degraded interface divides the bandwidth seen by transfers and
    main-memory traffic touching that PE. An empty plan reproduces
    {!run} exactly. *)

type fault_outcome = {
  metrics : metrics;
      (** Metrics over the instances that completed; on a stall,
          [metrics.instances <] the requested stream length and
          [completion_times] is truncated accordingly. *)
  completed : int;  (** Instances fully processed by every task. *)
  stalled : bool;
      (** The stream could not finish on the faulty platform (some task
          is pinned to a fail-stopped PE); recovery needs a remapping —
          see {!Resilience.Controller}. *)
  stall_time : float;
      (** Time of the last delivered task instance — when forward
          progress stopped. *)
  survivors : bool array;  (** Per-PE: still alive at the end. *)
  progress : int array;
      (** Per-task instances produced; beyond [completed], this work was
          in flight in the pipeline when the stream stalled. *)
}

val run_with_faults :
  ?options:options ->
  ?trace:Trace.t ->
  faults:Fault.plan ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Cellsched.Mapping.t ->
  instances:int ->
  fault_outcome
(** Simulate the stream under the fault plan. Unlike {!run}, a stalled
    stream is not an error: the outcome reports how far the stream got.
    With [?trace], the run is recorded as by {!run}, and faults are
    additionally recorded as [`Fault] spans (clipped to the simulated
    horizon) so Gantt output shows the incident.
    @raise Invalid_argument on a non-positive stream length, an invalid
    plan ({!Fault.validate}) or a mapping that overflows a local store. *)
