module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state
module R = Simulator.Runtime
module T = Simulator.Trace

type policy = Heuristic | Refined

type options = {
  policy : policy;
  window : int;
  degradation_threshold : float;
  remap_cost : float;
  refine_time_limit : float;
  state_bytes_per_task : float;
  restart_overhead : float;
  sim_options : R.options;
}

let default_options =
  {
    policy = Heuristic;
    window = 32;
    degradation_threshold = 0.5;
    remap_cost = 2e-3;
    refine_time_limit = 1.0;
    state_bytes_per_task = 16. *. 1024.;
    restart_overhead = 1e-3;
    sim_options = R.default_options;
  }

type incident = {
  failed_pes : int list;
  stall_time : float;
  detection_time : float;
  recovery_time : float;
  remap_cost : float;
  migration_cost : float;
  migrated_tasks : int;
  lost_instances : int;
  strategy : string;
  predicted_period : float;
}

type report = {
  requested : int;
  completed : int;
  recovered : bool;
  makespan : float;
  completion_times : float array;
  incidents : incident list;
  baseline_period : float;
  final_period : float;
}

let validate_options o =
  if o.window < 1 then invalid_arg "Controller.run: window must be >= 1";
  if not (o.degradation_threshold > 0. && o.degradation_threshold < 1.) then
    invalid_arg "Controller.run: degradation_threshold must be in (0, 1)";
  if
    o.remap_cost < 0. || o.refine_time_limit < 0.
    || o.state_bytes_per_task < 0.
    || o.restart_overhead < 0.
  then invalid_arg "Controller.run: negative cost"

(* When did the windowed-completion-rate monitor raise the alarm?  The
   monitor tracks the rate over the last [window] completions; once
   completions stop, the observed rate at time [t] is
   [window / (t - t_old)], which crosses [threshold * pre-fault rate] at
   [t_last + span * (1/threshold - 1)] where [span] is the length of the
   last full window. Early faults (fewer than [window] completions) fall
   back to the predicted period for the window span. *)
let detection_delay opts ~fallback_period (r : R.fault_outcome) =
  let n = r.R.completed in
  let times = r.R.metrics.R.completion_times in
  let span =
    if n > opts.window then times.(n - 1) -. times.(n - 1 - opts.window)
    else float_of_int opts.window *. fallback_period
  in
  let t_last = if n > 0 then times.(n - 1) else 0. in
  Float.max t_last r.R.stall_time
  +. (span *. ((1. /. opts.degradation_threshold) -. 1.))

(* Mask the failed PEs out of the platform: survivors keep their class and
   parameters, the platform is flattened to a single Cell. Returns the
   reduced platform and the new-index -> old-index translation, or [None]
   when no PPE survives. *)
let reduce platform survivors =
  let alive = List.filter (fun i -> survivors.(i)) (P.ppes platform) in
  let alive_spes =
    List.filter (fun i -> survivors.(i)) (P.spes platform)
  in
  match alive with
  | [] -> None
  | ppes ->
      let pe_map = Array.of_list (ppes @ alive_spes) in
      let p' =
        P.make ~n_ppe:(List.length ppes) ~n_spe:(List.length alive_spes)
          ~bw:platform.P.bw ~eib_bw:platform.P.eib_bw
          ~local_store:platform.P.local_store ~code_size:platform.P.code_size
          ~max_dma_in:platform.P.max_dma_in
          ~max_dma_to_ppe:platform.P.max_dma_to_ppe
          ~ppe_speedup:platform.P.ppe_speedup ~n_cells:1
          ~inter_cell_bw:platform.P.inter_cell_bw ()
      in
      Some (p', pe_map)

let remap options platform g =
  let with_lp = options.policy = Refined in
  let name, m =
    match
      Cellsched.Heuristics.best_feasible platform g
        (Cellsched.Heuristics.standard_candidates ~with_lp platform g)
    with
    | Some (name, m) -> (name, m)
    | None -> ("ppe-only", Cellsched.Heuristics.ppe_only platform g)
  in
  match options.policy with
  | Heuristic -> (name, m, options.remap_cost)
  | Refined ->
      let search_options =
        {
          Cellsched.Mapping_search.default_options with
          time_limit = options.refine_time_limit;
        }
      in
      let r =
        Cellsched.Mapping_search.solve ~options:search_options ~incumbent:m
          platform g
      in
      ( "search+" ^ name,
        r.Cellsched.Mapping_search.mapping,
        options.remap_cost +. options.refine_time_limit )

(* Bytes to move so the stream can resume under [new_mapping]: per-task
   state plus the stream buffers adjacent to every task that changes PE
   (an edge is counted once per moved endpoint: each endpoint holds its
   own copy of the double buffer). *)
let migration options g cur_mapping survivors old_to_new new_mapping =
  let buffers = (G.flat g).G.buffer in
  let moved = ref 0 and bytes = ref 0. in
  for k = 0 to G.n_tasks g - 1 do
    let old_pe = Cellsched.Mapping.pe cur_mapping k in
    let new_pe = Cellsched.Mapping.pe new_mapping k in
    let stays = survivors.(old_pe) && old_to_new.(old_pe) = new_pe in
    if not stays then begin
      incr moved;
      bytes := !bytes +. options.state_bytes_per_task;
      List.iter
        (fun e -> bytes := !bytes +. buffers.(e))
        (G.in_edges g k @ G.out_edges g k)
    end
  done;
  (!moved, !bytes)

let period_of platform g mapping = Cellsched.Eval.scratch_period platform g mapping

(* Default-off observability: incident-level counters and latency
   distributions, published when the process registry is enabled. *)
let m_incidents =
  Obs.Metrics.counter ~help:"Fault incidents handled by the controller"
       "resilience_incidents_total"

let m_migrated =
  Obs.Metrics.counter ~help:"Tasks migrated during recoveries"
       "resilience_migrated_tasks_total"

let m_lost =
  Obs.Metrics.counter ~help:"In-flight instances re-processed after stalls"
       "resilience_lost_instances_total"

let m_detect =
  Obs.Metrics.histogram
       ~help:"Stall-to-detection latency of the completion-rate monitor (s)"
       "resilience_detection_latency_seconds"

let m_remap =
  Obs.Metrics.histogram
       ~help:"Detection-to-resume duration (remap + migration, s)"
       "resilience_remap_duration_seconds"

let observe_incident (i : incident) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.inc m_incidents;
    Obs.Metrics.Counter.add m_migrated i.migrated_tasks;
    Obs.Metrics.Counter.add m_lost i.lost_instances;
    Obs.Metrics.Histogram.observe m_detect
      (i.detection_time -. i.stall_time);
    if not (Float.is_nan i.recovery_time) then
      Obs.Metrics.Histogram.observe m_remap
        (i.recovery_time -. i.detection_time)
  end

let run ?(options = default_options) ?trace ~faults platform g mapping
    ~instances =
  if instances <= 0 then
    invalid_arg "Controller.run: instances must be positive";
  validate_options options;
  Fault.validate platform faults;
  let baseline_period = period_of platform g mapping in
  let times = Array.make instances nan in
  let copy_spans offset pe_map local =
    match trace with
    | None -> ()
    | Some global ->
        List.iter
          (fun (s : T.span) ->
            T.record global
              {
                s with
                T.pe = pe_map.(s.T.pe);
                start = s.T.start +. offset;
                finish = s.T.finish +. offset;
              })
          (T.spans local)
  in
  let rec go ~offset ~done_ ~cur_platform ~pe_map ~cur_mapping ~pending
      ~incidents =
    let remaining = instances - done_ in
    let local_trace = Option.map (fun _ -> T.create ()) trace in
    let r =
      R.run_with_faults ~options:options.sim_options ?trace:local_trace
        ~faults:pending cur_platform g cur_mapping ~instances:remaining
    in
    (match local_trace with
    | Some lt -> copy_spans offset pe_map lt
    | None -> ());
    for i = 0 to r.R.completed - 1 do
      times.(done_ + i) <- r.R.metrics.R.completion_times.(i) +. offset
    done;
    let done_ = done_ + r.R.completed in
    if not r.R.stalled then
      {
        requested = instances;
        completed = done_;
        recovered = true;
        makespan = offset +. r.R.metrics.R.makespan;
        completion_times = times;
        incidents = List.rev incidents;
        baseline_period;
        final_period =
          (if r.R.metrics.R.steady_throughput > 0. then
             1. /. r.R.metrics.R.steady_throughput
           else nan);
      }
    else begin
      let survivors = Array.copy r.R.survivors in
      if Array.for_all Fun.id survivors then
        failwith "Controller.run: stream stalled without a failure";
      let fallback_period = period_of cur_platform g cur_mapping in
      let detection_time =
        offset +. detection_delay options ~fallback_period r
      in
      let stall_time = offset +. r.R.stall_time in
      let lost_instances =
        Array.fold_left max 0 r.R.progress - r.R.completed
      in
      (* Fold in fail-stops landing before the stream can resume: by the
         time migration completes they have happened, so they belong to
         this incident.  Masking more PEs changes the remap and thus the
         resume time, so iterate to a fixpoint (bounded by the PE count);
         fail-stops after the resume stay pending and get their own
         incident in a later segment. *)
      let rec settle () =
        match reduce cur_platform survivors with
        | None -> None
        | Some (p', pe_map_local) ->
            let old_to_new = Array.make (P.n_pes cur_platform) (-1) in
            Array.iteri (fun ni oi -> old_to_new.(oi) <- ni) pe_map_local;
            let strategy, m', remap_cost = remap options p' g in
            let migrated_tasks, mig_bytes =
              migration options g cur_mapping survivors old_to_new m'
            in
            let migration_cost =
              (mig_bytes /. platform.P.bw) +. options.restart_overhead
            in
            let recovery_time =
              detection_time +. remap_cost +. migration_cost
            in
            let late =
              List.filter
                (fun (f : Fault.fault) ->
                  f.Fault.kind = Fault.Fail_stop
                  && survivors.(f.Fault.pe)
                  && f.Fault.start <= recovery_time -. offset)
                pending
            in
            if late <> [] then begin
              List.iter
                (fun (f : Fault.fault) -> survivors.(f.Fault.pe) <- false)
                late;
              settle ()
            end
            else
              Some
                ( p',
                  pe_map_local,
                  old_to_new,
                  strategy,
                  m',
                  remap_cost,
                  migrated_tasks,
                  migration_cost,
                  recovery_time )
      in
      let settled = settle () in
      let failed_orig =
        List.filter_map
          (fun pe -> if survivors.(pe) then None else Some pe_map.(pe))
          (List.init (P.n_pes cur_platform) Fun.id)
      in
      match settled with
      | None ->
          let incident =
            {
              failed_pes = failed_orig;
              stall_time;
              detection_time;
              recovery_time = nan;
              remap_cost = 0.;
              migration_cost = 0.;
              migrated_tasks = 0;
              lost_instances;
              strategy = "none";
              predicted_period = nan;
            }
          in
          observe_incident incident;
          {
            requested = instances;
            completed = done_;
            recovered = false;
            makespan = stall_time;
            completion_times = Array.sub times 0 done_;
            incidents = List.rev (incident :: incidents);
            baseline_period;
            final_period = nan;
          }
      | Some
          ( p',
            pe_map_local,
            old_to_new,
            strategy,
            m',
            remap_cost,
            migrated_tasks,
            migration_cost,
            recovery_time ) ->
          let incident =
            {
              failed_pes = failed_orig;
              stall_time;
              detection_time;
              recovery_time;
              remap_cost;
              migration_cost;
              migrated_tasks;
              lost_instances;
              strategy;
              predicted_period = period_of p' g m';
            }
          in
          observe_incident incident;
          let pending' =
            Fault.mask
              ~alive:(fun pe -> survivors.(pe))
              ~remap:(fun pe -> old_to_new.(pe))
              (Fault.shift (recovery_time -. offset) pending)
          in
          let pe_map' = Array.map (fun oi -> pe_map.(oi)) pe_map_local in
          go ~offset:recovery_time ~done_ ~cur_platform:p' ~pe_map:pe_map'
            ~cur_mapping:m' ~pending:pending'
            ~incidents:(incident :: incidents)
    end
  in
  go ~offset:0. ~done_:0 ~cur_platform:platform
    ~pe_map:(Array.init (P.n_pes platform) Fun.id)
    ~cur_mapping:mapping ~pending:faults ~incidents:[]

let pp_incident platform ppf i =
  Format.fprintf ppf
    "@[<v>failed: %s@,\
     stalled at %.4fs, detected at %.4fs (latency %.4fs)@,\
     remap: %s (%.4fs), migration: %d tasks (%.4fs)@,\
     resumed at %.4fs; %d in-flight instances re-processed@,\
     degraded steady-state period: %.6fs predicted@]"
    (String.concat ", " (List.map (P.pe_name platform) i.failed_pes))
    i.stall_time i.detection_time
    (i.detection_time -. i.stall_time)
    i.strategy i.remap_cost i.migrated_tasks i.migration_cost i.recovery_time
    i.lost_instances i.predicted_period

let pp_report platform ppf r =
  Format.fprintf ppf
    "@[<v>stream: %d/%d instances in %.4fs (%s)@,\
     baseline period: %.6fs; final measured period: %.6fs@,\
     incidents: %d@]"
    r.completed r.requested r.makespan
    (if r.recovered then "recovered" else "UNRECOVERABLE")
    r.baseline_period r.final_period
    (List.length r.incidents);
  List.iteri
    (fun n i ->
      Format.fprintf ppf "@,@[<v2>incident %d:@,%a@]" (n + 1)
        (pp_incident platform) i)
    r.incidents
