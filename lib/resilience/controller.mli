(** Online recovery from platform faults: monitor, mask, remap, resume.

    The controller runs a mapped stream through the fault-injecting
    simulator ({!Simulator.Runtime.run_with_faults}) and reacts to
    fail-stop failures the way a production runtime would:

    + {b Detect} — a monitor watches the windowed instance-completion
      rate; when it decays below a threshold fraction of the pre-fault
      rate, the failure is declared (fail-stops eventually stop
      completions entirely, so the alarm always fires, after a latency
      governed by the window length).
    + {b Mask} — the failed PEs are removed from the platform model,
      producing a reduced {!Cell.Platform.t} over the survivors (flattened
      to a single Cell; at least one PPE must survive or the stream is
      declared unrecoverable).
    + {b Remap} — a new mapping is computed on the survivors, either with
      the fast greedy heuristics ({!Cellsched.Heuristics}, policy
      {!Heuristic}) or additionally refined by a time-boxed
      branch-and-bound pass ({!Cellsched.Mapping_search}, policy
      {!Refined}).
    + {b Migrate and resume} — an explicit migration cost is charged for
      every task that changes PE (per-task state plus the adjacent stream
      buffers, moved over the EIB at interface bandwidth, plus a fixed
      restart overhead), then the stream resumes on the reduced platform,
      re-priming the pipeline for the instances that were still in
      flight.

    The report compares the measured post-recovery steady-state period
    against the theoretical {!Cellsched.Steady_state.period} of the new
    mapping on the surviving platform — the degraded-mode analogue of the
    paper's throughput prediction. *)

type policy =
  | Heuristic  (** Fast recovery: best standard greedy heuristic. *)
  | Refined
      (** Heuristics (including LP rounding) seeded into a time-boxed
          {!Cellsched.Mapping_search} second pass. *)

type options = {
  policy : policy;
  window : int;  (** Completions in the monitoring window (>= 1). *)
  degradation_threshold : float;
      (** Alarm when the windowed rate falls below this fraction of the
          pre-fault rate; in (0, 1). *)
  remap_cost : float;
      (** Seconds charged for computing a heuristic remapping. *)
  refine_time_limit : float;
      (** Budget (and charged cost) of the {!Refined} search pass. *)
  state_bytes_per_task : float;
      (** Migration payload per moved task (its checkpointed state). *)
  restart_overhead : float;
      (** Fixed seconds per recovery (barrier, code reload, restart). *)
  sim_options : Simulator.Runtime.options;
}

val default_options : options
(** [Heuristic] policy, window 32, threshold 0.5, 2 ms remap, 1 s refine
    budget, 16 kB state per task, 1 ms restart, default simulator
    options. *)

type incident = {
  failed_pes : int list;  (** Original platform indices, increasing. *)
  stall_time : float;  (** When forward progress stopped (global time). *)
  detection_time : float;  (** When the monitor raised the alarm. *)
  recovery_time : float;
      (** When the stream resumed on the survivors ([nan] if
          unrecoverable). *)
  remap_cost : float;
  migration_cost : float;
  migrated_tasks : int;
  lost_instances : int;
      (** Instances that were in flight in the pipeline at the stall and
          had to be re-processed after recovery. *)
  strategy : string;  (** Winning mapping strategy on the survivors. *)
  predicted_period : float;
      (** {!Cellsched.Steady_state.period} of the new mapping on the
          reduced platform ([nan] if unrecoverable). *)
}

type report = {
  requested : int;  (** Stream length asked for. *)
  completed : int;  (** Instances delivered end to end. *)
  recovered : bool;
      (** Every fail-stop was recovered from and the stream completed. *)
  makespan : float;  (** Global completion (or abandon) time. *)
  completion_times : float array;
      (** Global completion time per delivered instance — ramp-down and
          ramp-up around each incident included. *)
  incidents : incident list;  (** In chronological order. *)
  baseline_period : float;
      (** Predicted steady-state period of the initial mapping on the
          healthy platform. *)
  final_period : float;
      (** Measured steady-state period over the last (post-recovery)
          segment; [nan] when nothing completed there. *)
}

val run :
  ?options:options ->
  ?trace:Simulator.Trace.t ->
  faults:Fault.plan ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Cellsched.Mapping.t ->
  instances:int ->
  report
(** Run the stream to completion (or until unrecoverable) under the
    fault plan, recovering online after each fail-stop. With [?trace],
    the spans of every segment are recorded in the {e original}
    platform's PE indices and global time, so one Gantt chart shows the
    incident: ramp-down, the recovery gap, and the degraded steady
    state.
    @raise Invalid_argument on a non-positive stream length, an invalid
    plan or invalid options. *)

val pp_report : Cell.Platform.t -> Format.formatter -> report -> unit
