module G = Streaming.Graph
module P = Cell.Platform

type options = { share_colocated_buffers : bool }

let default_options = { share_colocated_buffers = false }

(* Default-off observability hooks. Counters only — the instrumentation
   never touches the float state, so metrics-on runs stay bitwise equal
   to metrics-off runs (property-tested in test_obs). An engine counts
   in plain fields of its own and [publish] adds them to these once per
   solve: no shared atomic on the probe path. *)
let m_probes =
  Obs.Metrics.counter ~help:"Eval probes, screened or exact"
       "search_eval_probes_total"

let m_exact_probes =
  Obs.Metrics.counter
    ~help:"Eval probes that ran the exact sweep (screen survivors included)"
    "search_eval_exact_probes_total"

let m_moves =
  Obs.Metrics.counter ~help:"apply_move mutations"
       "search_eval_moves_total"

let m_swaps =
  Obs.Metrics.counter ~help:"apply_swap mutations"
       "search_eval_swaps_total"

let m_row_recomputes =
  Obs.Metrics.counter ~help:"Dirty per-PE resource rows recomputed"
       "search_eval_dirty_rows_total"

let m_sweeps =
  Obs.Metrics.counter ~help:"Batched dirty-row recomputation sweeps"
       "search_eval_row_sweeps_total"

(* Scratch of the probe screen ([probe_move_below]/[probe_swap_below]):
   what one move or swap does to each row, gathered in one pass over the
   moved tasks and their incident edges. Every entry is zero between
   probes; the screen clears what it touched. *)
type screen = {
  d_compute : float array;  (* signed per-PE row deltas *)
  d_bytes_in : float array;
  d_bytes_out : float array;
  d_memory : float array;
  a_compute : float array;  (* sums of the deltas' magnitudes *)
  a_bytes_in : float array;
  a_bytes_out : float array;
  a_memory : float array;
  d_dma_in : int array;  (* exact *)
  d_dma_to_ppe : int array;
  mark : int array;  (* per PE: [float_row] and/or [dma_row] bits *)
  touched : int array;  (* the marked PEs, [n_touched] of them *)
  mutable n_touched : int;
  d_link_out : float array;  (* per Cell *)
  d_link_in : float array;
  a_link_out : float array;
  a_link_in : float array;
  cell_touched : bool array;
  margin : float;  (* c * epsilon_float, see [lower] *)
}

type t = {
  platform : P.t;
  g : G.t;
  mutable opts : options;
  (* Plain-array views read by the sweeps, [detach]/[attach] and the
     screen instead of cross-module accessors: the graph's own [fl],
     shared by every engine on it, and per-PE platform facts. *)
  fl : G.flat;
  is_spe : bool array;
  cell : int array;
  budget : float;  (* SPE local-store bytes for buffers *)
  assignment : int array;  (* -1 = unassigned *)
  mutable n_assigned : int;
  (* Cached resource rows. Float rows are recomputed lazily, per PE, by
     accumulating exactly the contributions [Steady_state.loads] would,
     in the same order: that recomputation — never an incremental
     add/subtract, which drifts — is what makes every accessor bitwise
     equal to a from-scratch evaluation. *)
  compute : float array;
  bytes_in : float array;
  bytes_out : float array;
  memory : float array;
  row_dirty : bool array;  (* the four float rows of a PE, together *)
  dma_in : int array;  (* integer counters: maintained incrementally *)
  dma_to_ppe : int array;
  link_out : float array;  (* per Cell; recomputed wholesale when dirty *)
  link_in : float array;
  mutable links_dirty : bool;
  view : Steady_state.loads;  (* the rows above, shared: [rows] *)
  (* Preallocated scratch for the probe fast path: a probe saves the
     validated float state, mutates, evaluates, reverses the integer
     state and blits the floats back — a bitwise restoration with no
     recomputation on the undo side. *)
  save_compute : float array;
  save_bytes_in : float array;
  save_bytes_out : float array;
  save_memory : float array;
  save_link_out : float array;
  save_link_in : float array;
  screen : screen;
  probe_period : float array;  (* an exact probe's answer, unboxed *)
  mutable probe_feasible : bool;
  (* Counts for [publish]. *)
  mutable n_probes : int;
  mutable n_exact : int;
  mutable n_moves : int;
  mutable n_swaps : int;
  mutable n_dirty_rows : int;
  mutable n_sweeps : int;
  (* Backtrack stack of [save_rows]/[retract], allocated by the first
     [save_rows]: depth [d]'s block of [snaps] holds the validated float
     rows of the first [d] assignments (compute, bytes in, bytes out and
     memory per PE, then link out and link in per Cell), and
     [snap_task.(d)] the task assigned on top of them. The blocks from
     [snap_floor] to [snap_valid - 1] describe the current assignment's
     prefixes; [snap_floor <= n_assigned] always. *)
  mutable snaps : float array;
  mutable snap_task : int array;
  mutable snap_floor : int;
  mutable snap_valid : int;
}

let platform t = t.platform
let graph t = t.g
let pe_of t k = t.assignment.(k)
let n_assigned t = t.n_assigned

(* --- canonical row recomputation ------------------------------------ *)

(* Compute seconds per period of task [k] on PE [pe]. *)
let[@inline] work_on t k pe =
  if t.is_spe.(pe) then t.fl.G.w_spe.(k)
  else t.fl.G.w_ppe.(k) /. t.platform.P.ppe_speedup

(* Rebuild every dirty PE's four float rows in one batched pass with the
   loop structure of [Steady_state.loads] restricted to the dirty rows:
   all per-task terms in increasing task id, then all per-edge terms in
   increasing edge id (source copy before destination copy within an
   edge). Canonical order — hence bitwise equality with a from-scratch
   evaluation — holds by construction, and a probe touching several rows
   pays one O(tasks + edges) sweep, not one per row. *)
let recompute_dirty_rows t =
  let fl = t.fl in
  let n = Array.length t.compute in
  t.n_sweeps <- t.n_sweeps + 1;
  for pe = 0 to n - 1 do
    if t.row_dirty.(pe) then begin
      t.n_dirty_rows <- t.n_dirty_rows + 1;
      t.compute.(pe) <- 0.;
      t.bytes_in.(pe) <- 0.;
      t.bytes_out.(pe) <- 0.;
      t.memory.(pe) <- 0.
    end
  done;
  for k = 0 to Array.length t.assignment - 1 do
    let pe = t.assignment.(k) in
    if pe >= 0 && t.row_dirty.(pe) then begin
      t.compute.(pe) <- t.compute.(pe) +. work_on t k pe;
      t.bytes_in.(pe) <- t.bytes_in.(pe) +. fl.G.read_bytes.(k);
      t.bytes_out.(pe) <- t.bytes_out.(pe) +. fl.G.write_bytes.(k)
    end
  done;
  for e = 0 to Array.length fl.G.edge_src - 1 do
    let sp = t.assignment.(fl.G.edge_src.(e))
    and dp = t.assignment.(fl.G.edge_dst.(e)) in
    let active = sp >= 0 && dp >= 0 in
    if active && sp <> dp then begin
      if t.row_dirty.(sp) then
        t.bytes_out.(sp) <- t.bytes_out.(sp) +. fl.G.edge_data.(e);
      if t.row_dirty.(dp) then
        t.bytes_in.(dp) <- t.bytes_in.(dp) +. fl.G.edge_data.(e)
    end;
    (* Memory: each assigned endpoint holds its buffer copy — also for
       half-assigned edges — except one copy total when colocated under
       buffer sharing. *)
    if active && sp = dp && t.opts.share_colocated_buffers then begin
      if t.row_dirty.(sp) then t.memory.(sp) <- t.memory.(sp) +. fl.G.buffer.(e)
    end
    else begin
      if sp >= 0 && t.row_dirty.(sp) then
        t.memory.(sp) <- t.memory.(sp) +. fl.G.buffer.(e);
      if dp >= 0 && t.row_dirty.(dp) then
        t.memory.(dp) <- t.memory.(dp) +. fl.G.buffer.(e)
    end
  done;
  Array.fill t.row_dirty 0 n false

let recompute_links t =
  Array.fill t.link_out 0 (Array.length t.link_out) 0.;
  Array.fill t.link_in 0 (Array.length t.link_in) 0.;
  let fl = t.fl in
  for e = 0 to Array.length fl.G.edge_src - 1 do
    let sp = t.assignment.(fl.G.edge_src.(e))
    and dp = t.assignment.(fl.G.edge_dst.(e)) in
    if sp >= 0 && dp >= 0 && sp <> dp then begin
      let sc = t.cell.(sp) and dc = t.cell.(dp) in
      if sc <> dc then begin
        t.link_out.(sc) <- t.link_out.(sc) +. fl.G.edge_data.(e);
        t.link_in.(dc) <- t.link_in.(dc) +. fl.G.edge_data.(e)
      end
    end
  done;
  t.links_dirty <- false

(* A top-level scan, not a local closure: probes call this every time. *)
let rec dirty_from rows i =
  i < Array.length rows && (rows.(i) || dirty_from rows (i + 1))

let any_row_dirty t = dirty_from t.row_dirty 0

let validate_rows t =
  if any_row_dirty t then recompute_dirty_rows t

let validate_all t =
  validate_rows t;
  if t.links_dirty then recompute_links t

(* --- mutation primitives -------------------------------------------- *)

let dirt t pe = t.row_dirty.(pe) <- true

let cross_cell t a b = t.cell.(a) <> t.cell.(b)

(* Add ([d] = 1) or remove ([d] = -1) the integer contributions of a
   remote edge from a task on [sp] to one on [dp] ([dp]'s incoming DMA
   slot, [sp]'s to-PPE slot) and invalidate the link rows it loads. *)
let link_remote t sp dp d =
  t.dma_in.(dp) <- t.dma_in.(dp) + d;
  if t.is_spe.(sp) && not t.is_spe.(dp) then
    t.dma_to_ppe.(sp) <- t.dma_to_ppe.(sp) + d;
  if cross_cell t sp dp then t.links_dirty <- true

(* Task [k]'s edges with the task on [pe]: each edge to or from an
   assigned neighbour is added ([d] = 1) or removed ([d] = -1). Only the
   rows of [pe] and of the neighbours' PEs can change; the integer DMA
   counters are adjusted in place. *)
let link_incident t k pe d =
  let fl = t.fl in
  for i = fl.G.in_start.(k) to fl.G.in_start.(k + 1) - 1 do
    let sp = t.assignment.(fl.G.edge_src.(fl.G.in_ids.(i))) in
    if sp >= 0 && sp <> pe then begin
      link_remote t sp pe d;
      dirt t sp
    end
  done;
  for i = fl.G.out_start.(k) to fl.G.out_start.(k + 1) - 1 do
    let dp = t.assignment.(fl.G.edge_dst.(fl.G.out_ids.(i))) in
    if dp >= 0 && dp <> pe then begin
      link_remote t pe dp d;
      dirt t dp
    end
  done

(* Remove task [k]'s contributions (it must be assigned). *)
let detach t k =
  let pe = t.assignment.(k) in
  link_incident t k pe (-1);
  t.assignment.(k) <- -1;
  t.n_assigned <- t.n_assigned - 1;
  dirt t pe

(* Mirror of [detach]: add task [k]'s contributions on PE [pe]. Graphs
   have no self-loops, so no incident edge sees [k] at both ends. *)
let attach t k pe =
  t.assignment.(k) <- pe;
  t.n_assigned <- t.n_assigned + 1;
  dirt t pe;
  link_incident t k pe 1

(* --- construction ---------------------------------------------------- *)

let create_screen platform g =
  let n = P.n_pes platform and c = platform.P.n_cells in
  let pe_row () = Array.make n 0. and cell_row () = Array.make c 0. in
  (* [n_terms] bounds the number of terms summed into any row (compute:
     tasks; interface: tasks + edges; memory and links: edges) and into
     any row's delta (4 task terms + 2 per incident edge). *)
  let n_terms = G.n_tasks g + (2 * G.n_edges g) + 4 in
  {
    d_compute = pe_row ();
    d_bytes_in = pe_row ();
    d_bytes_out = pe_row ();
    d_memory = pe_row ();
    a_compute = pe_row ();
    a_bytes_in = pe_row ();
    a_bytes_out = pe_row ();
    a_memory = pe_row ();
    d_dma_in = Array.make n 0;
    d_dma_to_ppe = Array.make n 0;
    mark = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0;
    d_link_out = cell_row ();
    d_link_in = cell_row ();
    a_link_out = cell_row ();
    a_link_in = cell_row ();
    cell_touched = Array.make c false;
    margin = float_of_int ((4 * n_terms) + 8) *. epsilon_float;
  }

let create_empty ?(options = default_options) platform g =
  let n = P.n_pes platform in
  let compute = Array.make n 0. and bytes_in = Array.make n 0. in
  let bytes_out = Array.make n 0. and memory = Array.make n 0. in
  let dma_in = Array.make n 0 and dma_to_ppe = Array.make n 0 in
  let link_out = Array.make platform.P.n_cells 0. in
  let link_in = Array.make platform.P.n_cells 0. in
  {
    platform;
    g;
    opts = options;
    fl = G.flat g;
    is_spe = Array.init n (P.is_spe platform);
    cell = Array.init n (P.cell_of platform);
    budget = float_of_int (P.spe_memory_budget platform);
    assignment = Array.make (G.n_tasks g) (-1);
    n_assigned = 0;
    compute;
    bytes_in;
    bytes_out;
    memory;
    row_dirty = Array.make n false;
    dma_in;
    dma_to_ppe;
    link_out;
    link_in;
    links_dirty = false;
    view =
      {
        Steady_state.compute;
        bytes_in;
        bytes_out;
        memory;
        dma_in;
        dma_to_ppe;
        link_out;
        link_in;
      };
    save_compute = Array.make n 0.;
    save_bytes_in = Array.make n 0.;
    save_bytes_out = Array.make n 0.;
    save_memory = Array.make n 0.;
    save_link_out = Array.make platform.P.n_cells 0.;
    save_link_in = Array.make platform.P.n_cells 0.;
    screen = create_screen platform g;
    probe_period = Array.make 1 0.;
    probe_feasible = false;
    n_probes = 0;
    n_exact = 0;
    n_moves = 0;
    n_swaps = 0;
    n_dirty_rows = 0;
    n_sweeps = 0;
    snaps = [||];
    snap_task = [||];
    snap_floor = 0;
    snap_valid = 0;
  }

let check_pe t pe =
  if pe < 0 || pe >= P.n_pes t.platform then
    invalid_arg "Eval: PE index out of range"

let assign t ~task ~pe =
  check_pe t pe;
  if t.assignment.(task) >= 0 then invalid_arg "Eval.assign: task already assigned";
  let d = t.n_assigned in
  if d < t.snap_valid then begin
    t.snap_task.(d) <- task;
    t.snap_valid <- d + 1
  end;
  attach t task pe

let reset t =
  Array.fill t.assignment 0 (Array.length t.assignment) (-1);
  t.n_assigned <- 0;
  let n = Array.length t.compute and c = Array.length t.link_out in
  Array.fill t.compute 0 n 0.;
  Array.fill t.bytes_in 0 n 0.;
  Array.fill t.bytes_out 0 n 0.;
  Array.fill t.memory 0 n 0.;
  Array.fill t.row_dirty 0 n false;
  Array.fill t.dma_in 0 n 0;
  Array.fill t.dma_to_ppe 0 n 0;
  Array.fill t.link_out 0 c 0.;
  Array.fill t.link_in 0 c 0.;
  t.links_dirty <- false;
  t.snap_floor <- 0;
  t.snap_valid <- 0

let create ?options platform g m =
  let t = create_empty ?options platform g in
  for k = 0 to G.n_tasks g - 1 do
    attach t k (Mapping.pe m k)
  done;
  t

(* --- accessors ------------------------------------------------------- *)

let validate = validate_all

(* Sum, left to right from 0, of the buffers of the edge ids
   [e = ids.(lo) .. ids.(hi - 1)] whose end [ends.(e)] is on [pe].
   Inlined, so that its callers box no float. *)
let[@inline] sum_buffers t ids lo hi ends pe =
  let buffer = t.fl.G.buffer and acc = ref 0. in
  for i = lo to hi - 1 do
    let e = ids.(i) in
    acc := !acc +. (if t.assignment.(ends.(e)) = pe then buffer.(e) else 0.)
  done;
  !acc

(* The memory [pe] gains when [task] is assigned there: its footprint,
   minus one copy of each buffer shared with a neighbour on [pe] under
   [share_colocated_buffers]. *)
let[@inline] memory_delta t task pe =
  let base = t.fl.G.footprint.(task) in
  if not t.opts.share_colocated_buffers then base
  else begin
    let fl = t.fl in
    let saved_in =
      sum_buffers t fl.G.in_ids fl.G.in_start.(task) fl.G.in_start.(task + 1)
        fl.G.edge_src pe
    in
    let saved_out =
      sum_buffers t fl.G.out_ids fl.G.out_start.(task)
        fl.G.out_start.(task + 1) fl.G.edge_dst pe
    in
    base -. (saved_in +. saved_out)
  end

let assign_memory_fits t ~task ~pe ~slack =
  check_pe t pe;
  validate_rows t;
  t.memory.(pe) +. memory_delta t task pe <= t.budget +. slack

let remote_in_edges t ~task ~pe =
  let fl = t.fl in
  let n = ref 0 in
  for i = fl.G.in_start.(task) to fl.G.in_start.(task + 1) - 1 do
    let p = t.assignment.(fl.G.edge_src.(fl.G.in_ids.(i))) in
    if p >= 0 && p <> pe then incr n
  done;
  !n

let mapping t =
  if t.n_assigned <> G.n_tasks t.g then
    invalid_arg "Eval.mapping: partial assignment";
  Mapping.make t.platform t.g t.assignment

(* The engine's own rows: current after [validate_all] (or a blit that
   restores validated rows), and readers must not write to them. *)
let rows t = t.view

let loads t =
  validate_all t;
  {
    Steady_state.compute = Array.copy t.compute;
    bytes_in = Array.copy t.bytes_in;
    bytes_out = Array.copy t.bytes_out;
    memory = Array.copy t.memory;
    dma_in = Array.copy t.dma_in;
    dma_to_ppe = Array.copy t.dma_to_ppe;
    link_out = Array.copy t.link_out;
    link_in = Array.copy t.link_in;
  }

(* [Steady_state.period] of the rows, the same fold in the same order,
   written out here and inlined so that no float is boxed. *)
let[@inline] rows_period t =
  let p = t.platform in
  let m = ref 0. in
  for pe = 0 to Array.length t.compute - 1 do
    m := Float.max !m t.compute.(pe);
    m := Float.max !m (t.bytes_in.(pe) /. p.P.bw);
    m := Float.max !m (t.bytes_out.(pe) /. p.P.bw)
  done;
  for c = 0 to Array.length t.link_out - 1 do
    m := Float.max !m (t.link_out.(c) /. p.P.inter_cell_bw);
    m := Float.max !m (t.link_in.(c) /. p.P.inter_cell_bw)
  done;
  !m

let period t =
  validate_all t;
  rows_period t

let period_exceeds t ~at_least ~above =
  validate_all t;
  let p = rows_period t in
  p >= at_least || p > above

let bottleneck t =
  validate_all t;
  Steady_state.bottleneck t.platform t.view

let violations t =
  validate_all t;
  Steady_state.violations_of_loads t.platform t.view

(* [bottleneck], int-coded; the same scan and tie-breaking (first
   strictly larger term wins, starting from compute 0 at 0). *)
let bottleneck_row t =
  validate_all t;
  let p = t.platform in
  let bw = p.P.bw and ibw = p.P.inter_cell_bw in
  let best = ref 0 and top = ref 0. in
  for pe = 0 to Array.length t.compute - 1 do
    let c = t.compute.(pe) in
    if c > !top then begin best := 5 * pe; top := c end;
    let i = t.bytes_in.(pe) /. bw in
    if i > !top then begin best := (5 * pe) + 1; top := i end;
    let o = t.bytes_out.(pe) /. bw in
    if o > !top then begin best := (5 * pe) + 2; top := o end
  done;
  for c = 0 to Array.length t.link_out - 1 do
    let o = t.link_out.(c) /. ibw in
    if o > !top then begin best := (5 * c) + 3; top := o end;
    let i = t.link_in.(c) /. ibw in
    if i > !top then begin best := (5 * c) + 4; top := i end
  done;
  !best

let feasible t =
  validate_all t;
  let p = t.platform in
  let budget = t.budget in
  let ok = ref true in
  let pe = ref 0 in
  let n = P.n_pes p in
  while !ok && !pe < n do
    if t.is_spe.(!pe) then
      if
        t.memory.(!pe) > budget
        || t.dma_in.(!pe) > p.P.max_dma_in
        || t.dma_to_ppe.(!pe) > p.P.max_dma_to_ppe
      then ok := false;
    incr pe
  done;
  !ok

(* --- mutations and probing ---------------------------------------------- *)

let check_move name t ~task ~pe =
  check_pe t pe;
  let old_pe = t.assignment.(task) in
  if old_pe < 0 then invalid_arg (name ^ ": task not assigned");
  old_pe

(* A move or swap changes the first [n_assigned] assignments, so no
   saved block describes a prefix of the new state. *)
let forget_saves t =
  t.snap_floor <- t.n_assigned;
  t.snap_valid <- t.n_assigned

let apply_move t ~task ~pe =
  ignore (check_move "Eval.apply_move" t ~task ~pe : int);
  detach t task;
  attach t task pe;
  forget_saves t;
  t.n_moves <- t.n_moves + 1

(* Swapping a task with itself would detach it twice. *)
let check_swap name t k1 k2 =
  if k1 = k2 then invalid_arg (name ^ ": a task cannot swap with itself");
  if t.assignment.(k1) < 0 || t.assignment.(k2) < 0 then
    invalid_arg (name ^ ": task not assigned")

let apply_swap t k1 k2 =
  check_swap "Eval.apply_swap" t k1 k2;
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  detach t k1;
  detach t k2;
  attach t k1 p2;
  attach t k2 p1;
  forget_saves t;
  t.n_swaps <- t.n_swaps + 1

(* Rows are a pure function of the assignment and the options, so
   marking them all stale gives bitwise the state [create ~options]
   would build; no saved block describes the new rows. *)
let set_options t options =
  if options <> t.opts then begin
    t.opts <- options;
    Array.fill t.row_dirty 0 (Array.length t.row_dirty) true;
    forget_saves t
  end

(* Probe fast path: snapshot the fully validated float state, mutate,
   evaluate, reverse the integer state with the mirror detach/attach
   (exact: integer arithmetic and set operations invert perfectly), and
   blit the floats back — the restored state is bitwise the pre-probe
   one, with no recomputation spent on the way back. *)
let save_floats t =
  validate_all t;
  let n = Array.length t.compute in
  Array.blit t.compute 0 t.save_compute 0 n;
  Array.blit t.bytes_in 0 t.save_bytes_in 0 n;
  Array.blit t.bytes_out 0 t.save_bytes_out 0 n;
  Array.blit t.memory 0 t.save_memory 0 n;
  let c = Array.length t.link_out in
  Array.blit t.link_out 0 t.save_link_out 0 c;
  Array.blit t.link_in 0 t.save_link_in 0 c

let restore_floats t =
  let n = Array.length t.compute in
  Array.blit t.save_compute 0 t.compute 0 n;
  Array.blit t.save_bytes_in 0 t.bytes_in 0 n;
  Array.blit t.save_bytes_out 0 t.bytes_out 0 n;
  Array.blit t.save_memory 0 t.memory 0 n;
  Array.fill t.row_dirty 0 n false;
  let c = Array.length t.link_out in
  Array.blit t.save_link_out 0 t.link_out 0 c;
  Array.blit t.save_link_in 0 t.link_in 0 c;
  t.links_dirty <- false

(* --- backtracking ------------------------------------------------------

   The same bitwise restoration for a branch-and-bound walk: rows are a
   pure function of the assignment, so the rows saved at depth [d] are
   the rows of any later state with the same first [d] assignments. A
   [retract] undoes the integer state with [detach] and blits depth
   [d]'s block back instead of re-sweeping. *)

let save_rows t =
  validate_all t;
  let n = Array.length t.compute and c = Array.length t.link_out in
  let stride = (4 * n) + (2 * c) and d = t.n_assigned in
  if Array.length t.snaps = 0 then begin
    t.snaps <- Array.make ((Array.length t.assignment + 1) * stride) 0.;
    t.snap_task <- Array.make (Array.length t.assignment + 1) (-1)
  end;
  let o = d * stride in
  Array.blit t.compute 0 t.snaps o n;
  Array.blit t.bytes_in 0 t.snaps (o + n) n;
  Array.blit t.bytes_out 0 t.snaps (o + (2 * n)) n;
  Array.blit t.memory 0 t.snaps (o + (3 * n)) n;
  Array.blit t.link_out 0 t.snaps (o + (4 * n)) c;
  Array.blit t.link_in 0 t.snaps (o + (4 * n) + c) c;
  t.snap_task.(d) <- -1;
  (* Blocks between the valid ones and [d] are stale: keep the range
     contiguous. *)
  if t.snap_valid < d then t.snap_floor <- d;
  t.snap_valid <- d + 1

let retract t ~task =
  let d = t.n_assigned - 1 in
  if t.assignment.(task) < 0 then invalid_arg "Eval.retract: task not assigned";
  if d < t.snap_floor || d >= t.snap_valid || t.snap_task.(d) <> task then
    invalid_arg "Eval.retract: no rows saved before this assignment";
  detach t task;
  let n = Array.length t.compute and c = Array.length t.link_out in
  let o = d * ((4 * n) + (2 * c)) in
  Array.blit t.snaps o t.compute 0 n;
  Array.blit t.snaps (o + n) t.bytes_in 0 n;
  Array.blit t.snaps (o + (2 * n)) t.bytes_out 0 n;
  Array.blit t.snaps (o + (3 * n)) t.memory 0 n;
  Array.fill t.row_dirty 0 n false;
  Array.blit t.snaps (o + (4 * n)) t.link_out 0 c;
  Array.blit t.snaps (o + (4 * n) + c) t.link_in 0 c;
  t.links_dirty <- false

let count_probe t = t.n_probes <- t.n_probes + 1

(* The exact probes leave their answer in [t.probe_period.(0)] and
   [t.probe_feasible] rather than return a pair: a probe that the
   caller rejects then boxes nothing. *)
let evaluate_probe t =
  validate_all t;
  t.probe_period.(0) <- rows_period t;
  t.probe_feasible <- feasible t

let exact_move t ~task ~pe ~old_pe =
  t.n_exact <- t.n_exact + 1;
  save_floats t;
  detach t task;
  attach t task pe;
  evaluate_probe t;
  detach t task;
  attach t task old_pe;
  restore_floats t

let exact_swap t k1 k2 =
  t.n_exact <- t.n_exact + 1;
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  save_floats t;
  detach t k1;
  detach t k2;
  attach t k1 p2;
  attach t k2 p1;
  evaluate_probe t;
  detach t k1;
  detach t k2;
  attach t k1 p1;
  attach t k2 p2;
  restore_floats t

let probe_move t ~task ~pe =
  let old_pe = check_move "Eval.probe_move" t ~task ~pe in
  count_probe t;
  exact_move t ~task ~pe ~old_pe;
  (t.probe_period.(0), t.probe_feasible)

let probe_swap t k1 k2 =
  check_swap "Eval.probe_swap" t k1 k2;
  count_probe t;
  exact_swap t k1 k2;
  (t.probe_period.(0), t.probe_feasible)

(* [probe_move_below]'s answer after an exact probe: only an accepted
   probe boxes its period. *)
let probe_answer t threshold =
  let p = t.probe_period.(0) in
  if t.probe_feasible && p < threshold then p else infinity

(* --- the probe screen -------------------------------------------------

   One pass over the moved task(s) and their incident edges gathers each
   row's signed delta; a row's new value is then bounded below without
   the O(tasks + edges) sweep. Only the rows the mutation changes are
   touched: a PE's float rows are marked when one of its terms changes,
   its DMA counters separately, so a neighbour whose to-PPE queue
   changes keeps its float rows at their cached bits.

   The scratch lives in [t.screen], and the helpers are top-level
   functions that box no float: a screened probe allocates nothing
   (checked in test_eval). *)

let float_row = 1
let dma_row = 2

let touch s pe bit =
  if s.mark.(pe) = 0 then begin
    s.touched.(s.n_touched) <- pe;
    s.n_touched <- s.n_touched + 1
  end;
  s.mark.(pe) <- s.mark.(pe) lor bit

let[@inline] bump d a i x =
  d.(i) <- d.(i) +. x;
  a.(i) <- a.(i) +. Float.abs x

(* Task [k]'s own terms on [pe], with sign [sign] (+1 add, -1 remove). *)
let screen_task t k pe sign =
  let s = t.screen and fl = t.fl in
  let f = float_of_int sign in
  bump s.d_compute s.a_compute pe (f *. work_on t k pe);
  bump s.d_bytes_in s.a_bytes_in pe (f *. fl.G.read_bytes.(k));
  bump s.d_bytes_out s.a_bytes_out pe (f *. fl.G.write_bytes.(k));
  touch s pe float_row

let remote sp dp = sp >= 0 && dp >= 0 && sp <> dp

(* Cell whose link row an edge between [sp] and [dp] loads on the
   [side] end, or -1. *)
let link_cell t sp dp side =
  if remote sp dp && cross_cell t sp dp then t.cell.(side) else -1

let screen_link d a s c sign data =
  if c >= 0 then begin
    bump d a c (float_of_int sign *. data);
    s.cell_touched.(c) <- true
  end

(* Edge [e] moves from endpoints ([sp], [dp]) to ([sp'], [dp']); each of
   its terms is retracted and re-added only where it changes, following
   [recompute_dirty_rows] (interface bytes, memory copies) and
   [detach]/[attach] (DMA counters, links). *)
let screen_edge t e sp dp sp' dp' =
  let s = t.screen in
  let data = t.fl.G.edge_data.(e) and buff = t.fl.G.buffer.(e) in
  let r = remote sp dp and r' = remote sp' dp' in
  (* Interface bytes and the DMA counters, both charged to remote edges. *)
  if r <> r' || (r && sp <> sp') then begin
    if r then begin
      bump s.d_bytes_out s.a_bytes_out sp (-.data);
      touch s sp float_row
    end;
    if r' then begin
      bump s.d_bytes_out s.a_bytes_out sp' data;
      touch s sp' float_row
    end
  end;
  if r <> r' || (r && dp <> dp') then begin
    if r then begin
      bump s.d_bytes_in s.a_bytes_in dp (-.data);
      s.d_dma_in.(dp) <- s.d_dma_in.(dp) - 1;
      touch s dp (float_row lor dma_row)
    end;
    if r' then begin
      bump s.d_bytes_in s.a_bytes_in dp' data;
      s.d_dma_in.(dp') <- s.d_dma_in.(dp') + 1;
      touch s dp' (float_row lor dma_row)
    end
  end;
  let to_ppe = r && t.is_spe.(sp) && not t.is_spe.(dp) in
  let to_ppe' = r' && t.is_spe.(sp') && not t.is_spe.(dp') in
  if to_ppe <> to_ppe' || (to_ppe && sp <> sp') then begin
    if to_ppe then begin
      s.d_dma_to_ppe.(sp) <- s.d_dma_to_ppe.(sp) - 1;
      touch s sp dma_row
    end;
    if to_ppe' then begin
      s.d_dma_to_ppe.(sp') <- s.d_dma_to_ppe.(sp') + 1;
      touch s sp' dma_row
    end
  end;
  (* Memory: the source's copy sits on its PE; the destination's copy
     on its own, unless shared with a colocated source. *)
  if sp <> sp' then begin
    if sp >= 0 then begin
      bump s.d_memory s.a_memory sp (-.buff);
      touch s sp float_row
    end;
    if sp' >= 0 then begin
      bump s.d_memory s.a_memory sp' buff;
      touch s sp' float_row
    end
  end;
  let share = t.opts.share_colocated_buffers in
  let dcopy = if dp >= 0 && not (share && sp = dp) then dp else -1 in
  let dcopy' = if dp' >= 0 && not (share && sp' = dp') then dp' else -1 in
  if dcopy <> dcopy' then begin
    if dcopy >= 0 then begin
      bump s.d_memory s.a_memory dcopy (-.buff);
      touch s dcopy float_row
    end;
    if dcopy' >= 0 then begin
      bump s.d_memory s.a_memory dcopy' buff;
      touch s dcopy' float_row
    end
  end;
  (* Inter-Cell links. *)
  let co = link_cell t sp dp sp and co' = link_cell t sp' dp' sp' in
  if co <> co' then begin
    screen_link s.d_link_out s.a_link_out s co (-1) data;
    screen_link s.d_link_out s.a_link_out s co' 1 data
  end;
  let ci = link_cell t sp dp dp and ci' = link_cell t sp' dp' dp' in
  if ci <> ci' then begin
    screen_link s.d_link_in s.a_link_in s ci (-1) data;
    screen_link s.d_link_in s.a_link_in s ci' 1 data
  end

(* PE of task [j] after moving [k1] to [b1] and [k2] to [b2] ([k2] = -1
   for a single move). *)
let moved_pe t k1 b1 k2 b2 j =
  if j = k1 then b1 else if j = k2 then b2 else t.assignment.(j)

(* Screen the edge ids [ids.(lo) .. ids.(hi - 1)], leaving out those
   incident to [skip], a task whose edges were already screened (-1:
   none). *)
let screen_edges t k1 b1 k2 b2 skip ids lo hi =
  let fl = t.fl in
  for i = lo to hi - 1 do
    let e = ids.(i) in
    let src = fl.G.edge_src.(e) and dst = fl.G.edge_dst.(e) in
    if src <> skip && dst <> skip then
      screen_edge t e t.assignment.(src) t.assignment.(dst)
        (moved_pe t k1 b1 k2 b2 src) (moved_pe t k1 b1 k2 b2 dst)
  done

let screen_incident t k k1 b1 k2 b2 skip =
  let fl = t.fl in
  screen_edges t k1 b1 k2 b2 skip fl.G.in_ids fl.G.in_start.(k)
    fl.G.in_start.(k + 1);
  screen_edges t k1 b1 k2 b2 skip fl.G.out_ids fl.G.out_start.(k)
    fl.G.out_start.(k + 1)

(* Lower bound on the value the exact sweep will compute for a row whose
   cached value is [r], given the screen's delta [d] and magnitude sum
   [a]: (r + d) - c*eps*(r + a).

   Why it is sound. With u = eps/2 the unit roundoff and N the bound
   [create_screen] puts on the number of terms in any row and in any
   delta, a recursive sum of at most N terms — indeed any summation order
   of them, a difference of two partial sums included — errs by at most
   g = N*u / (1 - N*u) times the sum of its terms' magnitudes. Three such
   sums meet here: the cached row (non-negative terms, true sum T <= r +
   g*T), the delta (true D, |d - D| <= g*a), and the exact sweep's new
   row (non-negative terms, computed value >= (T + D)(1 - g)). Hence the
   new row is at least r + d - 3g*(r + a) to first order, since
   T + D <= r + a; forming [r + d - margin] and the margin itself add a
   few more u*(r + a). c = 4N + 8 applied to eps = 2u covers all of it
   with a factor of more than two to spare. Untouched rows need no
   bound: the sweep re-adds exactly their old terms in the same order,
   or does not visit them at all. Division by a positive bandwidth is
   monotone under rounding, so a row bound divided by [bw] bounds the
   row's term of the period. *)
let[@inline] lower s r d a = r +. d -. (s.margin *. (r +. a))

(* --- the pre-screen -----------------------------------------------------

   Most probes fail on a row of a PE that gains a task, and two of those
   rows can be bounded in O(1) or O(degree) before the screen gathers
   anything:

   - compute: the gained and lost task terms give the same [d] and [a]
     floats the screen forms, so the bound is the screen's own;
   - SPE memory, without buffer sharing: every buffer copy sits with
     its task, so the row gains exactly the incident buffers of the task
     arriving and loses those of the task leaving. Buffer sizes are non-negative, so the magnitudes' sum adds
     them all. The sum runs in another order than the screen's, which
     [lower] covers: any summation order of at most N terms, and two
     tasks' incident edges number fewer.

   A PE keeping its task (same-PE move or swap) has delta 0, and no
   bound: [r + w - margin] there would not be one. The pre-screen
   rejects only what the screen would reject — compute — or what the
   exact sweep finds infeasible — memory — and allocates nothing. *)

type prescreen = Pass | Compute_row | Memory_row

(* Task [k_in] arrives on [pe], replacing [k_out] (-1: none); [pe] is
   not [k_in]'s PE. The loops are written out, not factored into a
   float-returning helper, which would box its result. *)
let prescreen_gain t k_in k_out pe threshold =
  let s = t.screen and fl = t.fl in
  let w_out = if k_out < 0 then 0. else work_on t k_out pe in
  let w_in = work_on t k_in pe in
  if
    lower s t.compute.(pe) (-.w_out +. w_in) (Float.abs w_out +. Float.abs w_in)
    >= threshold
  then Compute_row
  else if (not t.is_spe.(pe)) || t.opts.share_colocated_buffers then Pass
  else begin
    let d = ref 0. and a = ref 0. in
    for i = fl.G.in_start.(k_in) to fl.G.in_start.(k_in + 1) - 1 do
      let b = fl.G.buffer.(fl.G.in_ids.(i)) in
      d := !d +. b;
      a := !a +. b
    done;
    for i = fl.G.out_start.(k_in) to fl.G.out_start.(k_in + 1) - 1 do
      let b = fl.G.buffer.(fl.G.out_ids.(i)) in
      d := !d +. b;
      a := !a +. b
    done;
    if k_out >= 0 then begin
      for i = fl.G.in_start.(k_out) to fl.G.in_start.(k_out + 1) - 1 do
        let b = fl.G.buffer.(fl.G.in_ids.(i)) in
        d := !d -. b;
        a := !a +. b
      done;
      for i = fl.G.out_start.(k_out) to fl.G.out_start.(k_out + 1) - 1 do
        let b = fl.G.buffer.(fl.G.out_ids.(i)) in
        d := !d -. b;
        a := !a +. b
      done
    end;
    if lower s t.memory.(pe) !d !a > t.budget then Memory_row else Pass
  end

let prescreen_move t k pe old_pe threshold =
  if pe = old_pe then Pass else prescreen_gain t k (-1) pe threshold

let prescreen_swap t k1 k2 threshold =
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  if p1 = p2 then Pass
  else
    match prescreen_gain t k1 k2 p2 threshold with
    | Pass -> prescreen_gain t k2 k1 p1 threshold
    | verdict -> verdict

(* The branch-and-bound child pre-screen. Assigning an unassigned task
   adds exactly one term, its work [w], to [pe]'s compute row and
   removes none, so the screen's bound with delta [w] and magnitude sum
   [|w|] holds for the new row, and the period is at least that row. *)
let assign_exceeds t ~task ~pe ~at_least ~above =
  check_pe t pe;
  if t.assignment.(task) >= 0 then
    invalid_arg "Eval.assign_exceeds: task already assigned";
  validate_rows t;
  let w = work_on t task pe in
  let b = lower t.screen t.compute.(pe) w (Float.abs w) in
  b >= at_least || b > above

(* Decide the gathered probe, then clear the scratch. [true] means the
   exact sweep would find the mutation infeasible or its period
   >= [threshold]. *)
let screen_rejects t threshold =
  let s = t.screen and p = t.platform in
  let n = Array.length t.compute in
  let bw = p.P.bw and ibw = p.P.inter_cell_bw in
  let budget = t.budget in
  let lb = ref 0. in
  let infeasible = ref false in
  for pe = 0 to n - 1 do
    if s.mark.(pe) land float_row <> 0 then begin
      let c = lower s t.compute.(pe) s.d_compute.(pe) s.a_compute.(pe) in
      if c > !lb then lb := c;
      let i =
        lower s t.bytes_in.(pe) s.d_bytes_in.(pe) s.a_bytes_in.(pe) /. bw
      in
      if i > !lb then lb := i;
      let o =
        lower s t.bytes_out.(pe) s.d_bytes_out.(pe) s.a_bytes_out.(pe) /. bw
      in
      if o > !lb then lb := o;
      if
        t.is_spe.(pe)
        && lower s t.memory.(pe) s.d_memory.(pe) s.a_memory.(pe) > budget
      then infeasible := true
    end
    else begin
      let c = t.compute.(pe) in
      if c > !lb then lb := c;
      let i = t.bytes_in.(pe) /. bw in
      if i > !lb then lb := i;
      let o = t.bytes_out.(pe) /. bw in
      if o > !lb then lb := o
    end;
    if
      s.mark.(pe) <> 0 && t.is_spe.(pe)
      && (t.dma_in.(pe) + s.d_dma_in.(pe) > p.P.max_dma_in
         || t.dma_to_ppe.(pe) + s.d_dma_to_ppe.(pe) > p.P.max_dma_to_ppe)
    then infeasible := true
  done;
  for c = 0 to p.P.n_cells - 1 do
    let o =
      if s.cell_touched.(c) then
        lower s t.link_out.(c) s.d_link_out.(c) s.a_link_out.(c)
      else t.link_out.(c)
    in
    let i =
      if s.cell_touched.(c) then
        lower s t.link_in.(c) s.d_link_in.(c) s.a_link_in.(c)
      else t.link_in.(c)
    in
    if o /. ibw > !lb then lb := o /. ibw;
    if i /. ibw > !lb then lb := i /. ibw
  done;
  (* Clear only what was touched. *)
  for j = 0 to s.n_touched - 1 do
    let pe = s.touched.(j) in
    s.d_compute.(pe) <- 0.;
    s.d_bytes_in.(pe) <- 0.;
    s.d_bytes_out.(pe) <- 0.;
    s.d_memory.(pe) <- 0.;
    s.a_compute.(pe) <- 0.;
    s.a_bytes_in.(pe) <- 0.;
    s.a_bytes_out.(pe) <- 0.;
    s.a_memory.(pe) <- 0.;
    s.d_dma_in.(pe) <- 0;
    s.d_dma_to_ppe.(pe) <- 0;
    s.mark.(pe) <- 0
  done;
  s.n_touched <- 0;
  for c = 0 to p.P.n_cells - 1 do
    if s.cell_touched.(c) then begin
      s.d_link_out.(c) <- 0.;
      s.d_link_in.(c) <- 0.;
      s.a_link_out.(c) <- 0.;
      s.a_link_in.(c) <- 0.;
      s.cell_touched.(c) <- false
    end
  done;
  !infeasible || !lb >= threshold

let probe_move_below t ~task ~pe ~threshold =
  let old_pe = check_move "Eval.probe_move_below" t ~task ~pe in
  count_probe t;
  validate_all t;
  if prescreen_move t task pe old_pe threshold <> Pass then infinity
  else begin
    screen_task t task old_pe (-1);
    screen_task t task pe 1;
    screen_incident t task task pe (-1) (-1) (-1);
    if screen_rejects t threshold then infinity
    else begin
      exact_move t ~task ~pe ~old_pe;
      probe_answer t threshold
    end
  end

let probe_swap_below t k1 k2 ~threshold =
  check_swap "Eval.probe_swap_below" t k1 k2;
  count_probe t;
  validate_all t;
  if prescreen_swap t k1 k2 threshold <> Pass then infinity
  else begin
    let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
    screen_task t k1 p1 (-1);
    screen_task t k2 p2 (-1);
    screen_task t k1 p2 1;
    screen_task t k2 p1 1;
    screen_incident t k1 k1 p2 k2 p1 (-1);
    screen_incident t k2 k1 p2 k2 p1 k1;
    if screen_rejects t threshold then infinity
    else begin
      exact_swap t k1 k2;
      probe_answer t threshold
    end
  end

(* --- counters ----------------------------------------------------------- *)

let publish t =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_probes t.n_probes;
    Obs.Metrics.Counter.add m_exact_probes t.n_exact;
    Obs.Metrics.Counter.add m_moves t.n_moves;
    Obs.Metrics.Counter.add m_swaps t.n_swaps;
    Obs.Metrics.Counter.add m_row_recomputes t.n_dirty_rows;
    Obs.Metrics.Counter.add m_sweeps t.n_sweeps
  end;
  t.n_probes <- 0;
  t.n_exact <- 0;
  t.n_moves <- 0;
  t.n_swaps <- 0;
  t.n_dirty_rows <- 0;
  t.n_sweeps <- 0

(* --- scratch wrappers ------------------------------------------------ *)

let scratch_period ?options platform g m =
  let t = create ?options platform g m in
  let p = period t in
  publish t;
  p

let scratch_feasible ?options platform g m =
  let t = create ?options platform g m in
  let f = feasible t in
  publish t;
  f

module For_testing = struct
  type verdict = prescreen = Pass | Compute_row | Memory_row

  let prescreen_move t ~task ~pe ~threshold =
    let old_pe = check_move "Eval.For_testing.prescreen_move" t ~task ~pe in
    validate_all t;
    prescreen_move t task pe old_pe threshold

  let prescreen_swap t k1 k2 ~threshold =
    check_swap "Eval.For_testing.prescreen_swap" t k1 k2;
    validate_all t;
    prescreen_swap t k1 k2 threshold
end
