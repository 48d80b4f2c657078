module G = Streaming.Graph
module P = Cell.Platform

type options = {
  overhead_fraction : float;
  dma_setup_time : float;
  comm_cpu_time : float;
  peek_flush : bool;
}

let default_options =
  {
    overhead_fraction = 0.05;
    dma_setup_time = 2e-6;
    comm_cpu_time = 5e-5;
    peek_flush = true;
  }

type metrics = {
  instances : int;
  makespan : float;
  completion_times : float array;
  average_throughput : float;
  steady_throughput : float;
  pe_busy : float array;
  transfers : int;
  bytes_transferred : float;
  dma_in_highwater : int array;
  dma_to_ppe_highwater : int array;
}

type event =
  | Compute_done of int  (* task *)
  | Transfer_done of int  (* edge *)
  | Fault_begin of int  (* index into the fault plan *)
  | Fault_end of int

type sim = {
  platform : P.t;
  g : G.t;
  mapping : Cellsched.Mapping.t;
  options : options;
  trace : Trace.t option;
  n_instances : int;
  engine : event Engine.t;
  cap : int array;  (* per-edge buffer capacity, in instances *)
  produced : int array;  (* instances completed, per task *)
  transferred : int array;  (* instances delivered to the consumer, per edge *)
  in_flight : bool array;  (* per edge *)
  pe_running : int array;  (* task being computed per PE, -1 if idle *)
  in_avail : float array;  (* incoming-interface availability per PE *)
  out_avail : float array;
  link_out_avail : float array;  (* inter-Cell link availability per cell *)
  link_in_avail : float array;
  dma_in_count : int array;  (* concurrent incoming transfers per PE *)
  dma_ppe_count : int array;  (* concurrent SPE-to-PPE transfers per SPE *)
  dma_in_hw : int array;  (* high-water marks of the two queues *)
  dma_ppe_hw : int array;
  remote_ins : int array;  (* remote in-edges per task under the mapping *)
  mutable buffered : int;  (* instances sitting in remote consumer buffers *)
  pe_tasks : int array array;  (* tasks per PE in topological order *)
  pending_overhead : float array;  (* comm-management CPU time owed per PE *)
  pe_busy : float array;
  completion_times : float array;
  faults : Fault.fault array;  (* injected fault plan, sorted by onset *)
  failed : bool array;  (* fail-stopped PEs *)
  compute_factor : float array;  (* current compute-time multiplier per PE *)
  bw_factor : float array;  (* current interface-bandwidth multiplier *)
  mutable last_progress : float;  (* time of the last delivered instance *)
  mutable completed_instances : int;  (* min over tasks of produced *)
  mutable transfers : int;
  mutable bytes_transferred : float;
}

let make_sim ~options ~trace ~faults platform g mapping n_instances =
  let fp = (G.flat g).G.first_period in
  let cap =
    Array.init (G.n_edges g) (fun e ->
        let { G.src; dst; _ } = G.edge g e in
        max 1 (fp.(dst) - fp.(src)))
  in
  let topo_pos = Array.make (G.n_tasks g) 0 in
  Array.iteri (fun pos k -> topo_pos.(k) <- pos) (G.topological_order g);
  let pe_tasks =
    Array.init (P.n_pes platform) (fun pe ->
        let tasks = Array.of_list (Cellsched.Mapping.tasks_on mapping pe) in
        Array.sort (fun a b -> compare topo_pos.(a) topo_pos.(b)) tasks;
        tasks)
  in
  let sim =
  {
    platform;
    g;
    mapping;
    options;
    trace;
    n_instances;
    engine = Engine.create ();
    cap;
    produced = Array.make (G.n_tasks g) 0;
    transferred = Array.make (G.n_edges g) 0;
    in_flight = Array.make (G.n_edges g) false;
    pe_running = Array.make (P.n_pes platform) (-1);
    in_avail = Array.make (P.n_pes platform) 0.;
    out_avail = Array.make (P.n_pes platform) 0.;
    link_out_avail = Array.make platform.P.n_cells 0.;
    link_in_avail = Array.make platform.P.n_cells 0.;
    dma_in_count = Array.make (P.n_pes platform) 0;
    dma_ppe_count = Array.make (P.n_pes platform) 0;
    dma_in_hw = Array.make (P.n_pes platform) 0;
    dma_ppe_hw = Array.make (P.n_pes platform) 0;
    remote_ins =
      Array.init (G.n_tasks g) (fun k ->
          List.length
            (List.filter
               (fun e -> Cellsched.Mapping.is_remote mapping (G.edge g e))
               (G.in_edges g k)));
    buffered = 0;
    pe_tasks;
    pending_overhead = Array.make (P.n_pes platform) 0.;
    pe_busy = Array.make (P.n_pes platform) 0.;
    completion_times = Array.make n_instances nan;
    faults;
    failed = Array.make (P.n_pes platform) false;
    compute_factor = Array.make (P.n_pes platform) 1.;
    bw_factor = Array.make (P.n_pes platform) 1.;
    last_progress = 0.;
    completed_instances = 0;
    transfers = 0;
    bytes_transferred = 0.;
  }
  in
  Array.iteri
    (fun i (f : Fault.fault) ->
      Engine.schedule sim.engine f.Fault.start (Fault_begin i);
      if f.Fault.finish < infinity then
        Engine.schedule sim.engine f.Fault.finish (Fault_end i))
    faults;
  sim

(* Effective interface bandwidth of a PE under the current faults. *)
let ifc_bw sim pe = sim.platform.P.bw *. sim.bw_factor.(pe)

let colocated sim e = not (Cellsched.Mapping.is_remote sim.mapping (G.edge sim.g e))

(* Number of data instances of edge [e] the consumer needs before it can
   process instance [i]: i .. i+peek (clipped to the stream end). *)
let needed_inputs sim k i =
  let peek = (G.task sim.g k).Streaming.Task.peek in
  if sim.options.peek_flush then min (i + peek + 1) sim.n_instances
  else i + peek + 1

(* Can task [k] process its next instance now? *)
let runnable sim k =
  let i = sim.produced.(k) in
  i < sim.n_instances
  && List.for_all
       (fun e -> sim.transferred.(e) >= needed_inputs sim k i)
       (G.in_edges sim.g k)
  && List.for_all
       (fun e ->
         if colocated sim e then
           (* Consumer reads the producer's buffer directly; respect the
              consumer-side capacity. *)
           sim.transferred.(e) - sim.produced.((G.edge sim.g e).G.dst)
           < sim.cap.(e)
         else sim.produced.(k) - sim.transferred.(e) < sim.cap.(e))
       (G.out_edges sim.g k)

let start_compute sim k =
  let now = Engine.now sim.engine in
  let pe = Cellsched.Mapping.pe sim.mapping k in
  let task = G.task sim.g k in
  (* Main-memory reads go through the incoming interface first. *)
  let ready =
    if task.Streaming.Task.read_bytes > 0. then begin
      let finish =
        Float.max now sim.in_avail.(pe)
        +. (task.Streaming.Task.read_bytes /. ifc_bw sim pe)
      in
      sim.in_avail.(pe) <- finish;
      finish
    end
    else now
  in
  let cls = P.pe_class sim.platform pe in
  let w = Streaming.Task.w task cls in
  let w = if cls = P.PPE then w /. sim.platform.P.ppe_speedup else w in
  (* A slowdown fault in force when the slot starts stretches the whole
     slot (the factor is sampled once, at dispatch). *)
  let w = w *. sim.compute_factor.(pe) in
  (* Communication management (issuing Gets, watching DMA, signalling)
     interrupts computation: charge the accumulated cost to this slot. *)
  let duration =
    (w *. (1. +. sim.options.overhead_fraction)) +. sim.pending_overhead.(pe)
  in
  sim.pending_overhead.(pe) <- 0.;
  sim.pe_running.(pe) <- k;
  sim.pe_busy.(pe) <- sim.pe_busy.(pe) +. duration;
  (match sim.trace with
  | Some trace ->
      Trace.record trace
        {
          Trace.pe;
          label =
            Printf.sprintf "%s[%d]" task.Streaming.Task.name sim.produced.(k);
          kind = `Compute;
          start = ready;
          finish = ready +. duration;
        }
  | None -> ());
  Engine.schedule sim.engine (ready +. duration) (Compute_done k)

(* A transfer is eligible when data waits on the producer side, the
   consumer-side buffer has room, and DMA slots are free. *)
let transfer_eligible sim e =
  (not (colocated sim e))
  && (not sim.in_flight.(e))
  && sim.transferred.(e) < sim.produced.((G.edge sim.g e).G.src)
  && begin
       let { G.src; dst; _ } = G.edge sim.g e in
       let src_pe = Cellsched.Mapping.pe sim.mapping src in
       let dst_pe = Cellsched.Mapping.pe sim.mapping dst in
       (not sim.failed.(src_pe))
       && (not sim.failed.(dst_pe))
       && sim.transferred.(e) + 1 - sim.produced.(dst) <= sim.cap.(e)
       && ((not (P.is_spe sim.platform dst_pe))
          || sim.dma_in_count.(dst_pe) < sim.platform.P.max_dma_in)
       && ((not (P.is_spe sim.platform src_pe && P.is_ppe sim.platform dst_pe))
          || sim.dma_ppe_count.(src_pe) < sim.platform.P.max_dma_to_ppe)
     end

let start_transfer sim e =
  let now = Engine.now sim.engine in
  let edge = G.edge sim.g e in
  let src_pe = Cellsched.Mapping.pe sim.mapping edge.G.src in
  let dst_pe = Cellsched.Mapping.pe sim.mapping edge.G.dst in
  let src_cell = P.cell_of sim.platform src_pe in
  let dst_cell = P.cell_of sim.platform dst_pe in
  let cross = src_cell <> dst_cell in
  let start = Float.max now (Float.max sim.out_avail.(src_pe) sim.in_avail.(dst_pe)) in
  let start =
    if cross then
      Float.max start
        (Float.max sim.link_out_avail.(src_cell) sim.link_in_avail.(dst_cell))
    else start
  in
  (* A cross-Cell transfer is paced by the slower of the EIB interface and
     the inter-Cell BIF; a degraded interface on either endpoint slows the
     whole transfer. *)
  let ifc = Float.min (ifc_bw sim src_pe) (ifc_bw sim dst_pe) in
  let rate =
    if cross then Float.min ifc sim.platform.P.inter_cell_bw else ifc
  in
  let finish =
    start +. sim.options.dma_setup_time +. (edge.G.data_bytes /. rate)
  in
  sim.out_avail.(src_pe) <- finish;
  sim.in_avail.(dst_pe) <- finish;
  if cross then begin
    sim.link_out_avail.(src_cell) <- finish;
    sim.link_in_avail.(dst_cell) <- finish
  end;
  sim.in_flight.(e) <- true;
  if P.is_spe sim.platform dst_pe then begin
    sim.dma_in_count.(dst_pe) <- sim.dma_in_count.(dst_pe) + 1;
    if sim.dma_in_count.(dst_pe) > sim.dma_in_hw.(dst_pe) then
      sim.dma_in_hw.(dst_pe) <- sim.dma_in_count.(dst_pe)
  end;
  if P.is_spe sim.platform src_pe && P.is_ppe sim.platform dst_pe then begin
    sim.dma_ppe_count.(src_pe) <- sim.dma_ppe_count.(src_pe) + 1;
    if sim.dma_ppe_count.(src_pe) > sim.dma_ppe_hw.(src_pe) then
      sim.dma_ppe_hw.(src_pe) <- sim.dma_ppe_count.(src_pe)
  end;
  sim.transfers <- sim.transfers + 1;
  sim.bytes_transferred <- sim.bytes_transferred +. edge.G.data_bytes;
  sim.pending_overhead.(src_pe) <-
    sim.pending_overhead.(src_pe) +. sim.options.comm_cpu_time;
  (match sim.trace with
  | Some trace ->
      Trace.sample trace ~cat:"dma" ~lane:dst_pe ~ts:start
        (Printf.sprintf "dma_in[%s]" (P.pe_name sim.platform dst_pe))
        [ ("queued", Obs.Events.Int sim.dma_in_count.(dst_pe)) ];
      Trace.record trace
        {
          Trace.pe = dst_pe;
          label =
            Printf.sprintf "D(%s,%s)[%d]"
              (G.task sim.g edge.G.src).Streaming.Task.name
              (G.task sim.g edge.G.dst).Streaming.Task.name
              sim.transferred.(e);
          kind = `Transfer;
          start;
          finish;
        }
  | None -> ());
  Engine.schedule sim.engine finish (Transfer_done e)

(* Greedy dispatch: start every possible activity. Scheduler policy per PE
   (paper Fig. 4): among runnable tasks, pick the least-advanced one
   (fair round robin), ties broken by topological position. *)
let dispatch sim =
  for e = 0 to G.n_edges sim.g - 1 do
    if transfer_eligible sim e then start_transfer sim e
  done;
  Array.iteri
    (fun pe running ->
      if running < 0 && not sim.failed.(pe) then begin
        let best = ref (-1) in
        let better k =
          match !best with
          | -1 -> true
          | b -> sim.produced.(k) < sim.produced.(b)
        in
        Array.iter
          (fun k -> if runnable sim k && better k then best := k)
          sim.pe_tasks.(pe);
        if !best >= 0 then start_compute sim !best
      end)
    sim.pe_running

let handle sim = function
  | Compute_done k when sim.failed.(Cellsched.Mapping.pe sim.mapping k) ->
      (* The PE fail-stopped while computing: the in-flight instance is
         dropped (fault semantics); nothing is produced. *)
      sim.pe_running.(Cellsched.Mapping.pe sim.mapping k) <- -1
  | Compute_done k ->
      let pe = Cellsched.Mapping.pe sim.mapping k in
      let task = G.task sim.g k in
      sim.pe_running.(pe) <- -1;
      sim.produced.(k) <- sim.produced.(k) + 1;
      (* Main-memory writes occupy the outgoing interface asynchronously. *)
      if task.Streaming.Task.write_bytes > 0. then
        sim.out_avail.(pe) <-
          Float.max (Engine.now sim.engine) sim.out_avail.(pe)
          +. (task.Streaming.Task.write_bytes /. ifc_bw sim pe);
      (* Colocated consumers see the data immediately. *)
      List.iter
        (fun e -> if colocated sim e then sim.transferred.(e) <- sim.produced.(k))
        (G.out_edges sim.g k);
      sim.last_progress <- Engine.now sim.engine;
      (* The new instance consumed one slot from each remote input buffer. *)
      sim.buffered <- sim.buffered - sim.remote_ins.(k);
      (* Track globally completed instances. *)
      let min_produced = Array.fold_left min max_int sim.produced in
      let advanced = sim.completed_instances < min_produced in
      while sim.completed_instances < min_produced do
        sim.completion_times.(sim.completed_instances) <- Engine.now sim.engine;
        sim.completed_instances <- sim.completed_instances + 1
      done;
      (match sim.trace with
      | Some trace when advanced ->
          let now = Engine.now sim.engine in
          Trace.sample trace ~cat:"stream" ~ts:now "completed_instances"
            [ ("completed", Obs.Events.Int sim.completed_instances) ];
          if now > 0. then
            Trace.sample trace ~cat:"stream" ~ts:now "achieved_throughput"
              [
                ( "instances_per_s",
                  Obs.Events.Float
                    (float_of_int sim.completed_instances /. now) );
              ]
      | _ -> ())
  | Transfer_done e ->
      let edge = G.edge sim.g e in
      let src_pe = Cellsched.Mapping.pe sim.mapping edge.G.src in
      let dst_pe = Cellsched.Mapping.pe sim.mapping edge.G.dst in
      sim.in_flight.(e) <- false;
      sim.transferred.(e) <- sim.transferred.(e) + 1;
      sim.buffered <- sim.buffered + 1;
      (match sim.trace with
      | Some trace ->
          Trace.sample trace ~cat:"buffers" ~ts:(Engine.now sim.engine)
            "buffer_occupancy"
            [ ("instances", Obs.Events.Int sim.buffered) ]
      | None -> ());
      sim.pending_overhead.(dst_pe) <-
        sim.pending_overhead.(dst_pe) +. sim.options.comm_cpu_time;
      if P.is_spe sim.platform dst_pe then
        sim.dma_in_count.(dst_pe) <- sim.dma_in_count.(dst_pe) - 1;
      if P.is_spe sim.platform src_pe && P.is_ppe sim.platform dst_pe then
        sim.dma_ppe_count.(src_pe) <- sim.dma_ppe_count.(src_pe) - 1
  | Fault_begin i ->
      let f = sim.faults.(i) in
      if not sim.failed.(f.Fault.pe) then begin
        match f.Fault.kind with
        | Fault.Fail_stop -> sim.failed.(f.Fault.pe) <- true
        | Fault.Slowdown factor -> sim.compute_factor.(f.Fault.pe) <- factor
        | Fault.Link_degrade factor ->
            sim.bw_factor.(f.Fault.pe) <- 1. /. factor
      end
  | Fault_end i ->
      let f = sim.faults.(i) in
      if not sim.failed.(f.Fault.pe) then begin
        match f.Fault.kind with
        | Fault.Fail_stop -> ()
        | Fault.Slowdown _ -> sim.compute_factor.(f.Fault.pe) <- 1.
        | Fault.Link_degrade _ -> sim.bw_factor.(f.Fault.pe) <- 1.
      end

let check_deployable platform g mapping =
  (* Local-store overflow is a hard error: the application cannot be
     deployed at all. DMA-queue pressure, in contrast, is handled by the
     runtime (transfers queue until a slot frees), so mappings violating
     the MILP's per-period DMA constraints still run -- just slower. *)
  match
    List.filter
      (function Cellsched.Steady_state.Memory _ -> true | _ -> false)
      (Cellsched.Steady_state.violations platform g mapping)
  with
  | [] -> ()
  | v :: _ ->
      invalid_arg
        (Format.asprintf "Runtime.run: infeasible mapping (%a)"
           (Cellsched.Steady_state.pp_violation platform)
           v)

let simulate sim =
  dispatch sim;
  let rec loop () =
    match Engine.next sim.engine with
    | None -> ()
    | Some (_, event) ->
        handle sim event;
        dispatch sim;
        loop ()
  in
  loop ()

let metrics_of sim ~completed =
  let makespan =
    if completed > 0 then sim.completion_times.(completed - 1) else 0.
  in
  let steady_throughput =
    if completed = 0 then 0.
    else if completed < 4 then float_of_int completed /. makespan
    else begin
      let half = completed / 2 in
      let t0 = sim.completion_times.(half - 1) in
      float_of_int (completed - half) /. (makespan -. t0)
    end
  in
  {
    instances = completed;
    makespan;
    completion_times = Array.sub sim.completion_times 0 completed;
    average_throughput =
      (if completed = 0 then 0. else float_of_int completed /. makespan);
    steady_throughput;
    pe_busy = sim.pe_busy;
    transfers = sim.transfers;
    bytes_transferred = sim.bytes_transferred;
    dma_in_highwater = Array.copy sim.dma_in_hw;
    dma_to_ppe_highwater = Array.copy sim.dma_ppe_hw;
  }

(* Default-off observability: publish a run's aggregate metrics into the
   process-wide registry (per-PE families labeled by PE name). *)
let publish_metrics platform (m : metrics) =
  if Obs.Metrics.enabled () then begin
    let busy name =
      Obs.Metrics.gauge_family ~help:"Compute-busy fraction of the run per PE"
        "sim_pe_busy_fraction" ~labels:[ "pe" ] [ name ]
    and dma_in name =
      Obs.Metrics.gauge_family
        ~help:"High-water mark of the incoming DMA queue per PE"
        "sim_dma_in_highwater" ~labels:[ "pe" ] [ name ]
    and dma_ppe name =
      Obs.Metrics.gauge_family
        ~help:"High-water mark of the SPE-to-PPE DMA queue per PE"
        "sim_dma_to_ppe_highwater" ~labels:[ "pe" ] [ name ]
    in
    let horizon = m.makespan in
    Array.iteri
      (fun pe b ->
        let name = P.pe_name platform pe in
        Obs.Metrics.Gauge.set (busy name)
          (if horizon > 0. then b /. horizon else 0.);
        Obs.Metrics.Gauge.set (dma_in name)
          (float_of_int m.dma_in_highwater.(pe));
        Obs.Metrics.Gauge.set (dma_ppe name)
          (float_of_int m.dma_to_ppe_highwater.(pe)))
      m.pe_busy;
    Obs.Metrics.Counter.add
      (Obs.Metrics.counter ~help:"Remote DMA transfers simulated"
         "sim_transfers_total")
      m.transfers;
    Obs.Metrics.Counter.add
      (Obs.Metrics.counter ~help:"Stream instances completed in simulation"
         "sim_instances_total")
      m.instances;
    Obs.Metrics.Gauge.set
      (Obs.Metrics.gauge
         ~help:"Steady-state throughput of the last simulated run \
                (instances/s)"
         "sim_steady_throughput")
      m.steady_throughput
  end

let run ?(options = default_options) ?trace platform g mapping ~instances =
  if instances <= 0 then invalid_arg "Runtime.run: instances must be positive";
  check_deployable platform g mapping;
  let sim =
    make_sim ~options ~trace ~faults:[||] platform g mapping instances
  in
  simulate sim;
  if sim.completed_instances <> instances then
    failwith "Runtime.run: simulation stalled (runtime bug)";
  let m = metrics_of sim ~completed:instances in
  publish_metrics platform m;
  m

type fault_outcome = {
  metrics : metrics;
  completed : int;
  stalled : bool;
  stall_time : float;
  survivors : bool array;
  progress : int array;
}

let fault_label (f : Fault.fault) =
  match f.Fault.kind with
  | Fault.Fail_stop -> "FAIL"
  | Fault.Slowdown factor -> Printf.sprintf "SLOW x%.1f" factor
  | Fault.Link_degrade factor -> Printf.sprintf "BW /%.1f" factor

let run_with_faults ?(options = default_options) ?trace ~faults platform g
    mapping ~instances =
  if instances <= 0 then
    invalid_arg "Runtime.run_with_faults: instances must be positive";
  Fault.validate platform faults;
  check_deployable platform g mapping;
  let faults = Array.of_list (Fault.sorted faults) in
  let sim = make_sim ~options ~trace ~faults platform g mapping instances in
  simulate sim;
  let horizon = Engine.now sim.engine in
  (match trace with
  | None -> ()
  | Some trace ->
      Array.iter
        (fun (f : Fault.fault) ->
          Trace.record trace
            {
              Trace.pe = f.Fault.pe;
              label = fault_label f;
              kind = `Fault;
              start = f.Fault.start;
              finish = Float.max f.Fault.start (Float.min f.Fault.finish horizon);
            })
        faults);
  let completed = sim.completed_instances in
  let stalled = completed < instances in
  (* The event drain after a stall still fires Fault_begin for fail-stops
     scheduled later in the plan, so [sim.failed] over-reports: only the
     failures that had happened when progress stopped are observable by a
     controller.  Fail-stops after the stall stay in its pending plan and
     surface in a later segment.  If the stall predates every completion
     (the victim hosts the stream's final task, say), blame the earliest
     fail-stop alone. *)
  let survivors =
    let alive = Array.make (P.n_pes platform) true in
    Array.iter
      (fun (f : Fault.fault) ->
        if f.Fault.kind = Fault.Fail_stop && f.Fault.start <= sim.last_progress
        then alive.(f.Fault.pe) <- false)
      faults;
    if stalled && Array.for_all Fun.id alive then
      Array.iter
        (fun (f : Fault.fault) ->
          if
            f.Fault.kind = Fault.Fail_stop
            && Array.for_all Fun.id alive
          then alive.(f.Fault.pe) <- false)
        faults;
    alive
  in
  let m = metrics_of sim ~completed in
  publish_metrics platform m;
  {
    metrics = m;
    completed;
    stalled;
    stall_time = sim.last_progress;
    survivors;
    progress = Array.copy sim.produced;
  }

let throughput_curve metrics ~points =
  if points <= 0 then invalid_arg "Runtime.throughput_curve: points";
  let n = metrics.instances in
  let step = max 1 (n / points) in
  let rec sample i acc =
    if i >= n - 1 then
      List.rev ((n, float_of_int n /. metrics.completion_times.(n - 1)) :: acc)
    else begin
      let t = metrics.completion_times.(i) in
      sample (i + step) ((i + 1, float_of_int (i + 1) /. t) :: acc)
    end
  in
  sample (step - 1) []
