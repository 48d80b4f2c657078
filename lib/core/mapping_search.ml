module G = Streaming.Graph
module P = Cell.Platform

type options = {
  rel_gap : float;
  max_nodes : int;
  dive_nodes : int;
  time_limit : float;
  share_colocated_buffers : bool;
}

let default_options =
  {
    rel_gap = 0.05;
    max_nodes = 10_000_000;
    dive_nodes = 32_768;
    time_limit = 30.;
    share_colocated_buffers = false;
  }

type result = {
  mapping : Mapping.t;
  period : float;
  lower_bound : float;
  gap : float;
  nodes : int;
  optimal_within_gap : bool;
}

(* Branch nodes extend one incremental {!Eval} engine: [Eval.save_rows]
   at a node, [Eval.assign] on the way down, [Eval.retract] (a blit of
   the saved rows, no sweep) on backtrack, and the engine is the
   authority on the committed resource state (its period is the
   assigned-resources bound). [rows] is the engine's own row arrays,
   read directly: they are current at node entry, after a retract and
   after [Eval.period_exceeds], which is when the search reads them.
   The search keeps only its own relaxation machinery: the assignment
   order, effective costs, knapsack orders and suffix sums feeding the
   divisible bound. These are per-solve invariants ([inv]), built once
   and shared read-only by every subtree task; a task's own [state] is
   its engine and its candidate buffers. Node expansion allocates
   nothing: every query it makes of the engine answers a bool or an
   int, or is read from the rows, and the float helpers below are
   inlined so that no float is boxed. *)
type inv = {
  platform : P.t;
  g : G.t;
  fl : G.flat;
  share : bool;
  ppes : int array;  (* [P.ppes] and [P.spes], in their order *)
  spes : int array;
  budget : float;  (* SPE local-store bytes for buffers *)
  order : int array;  (* assignment order: hardest first, see [make_inv] *)
  w_ppe : float array;  (* effective PPE cost (speedup applied) *)
  w_spe : float array;
  by_ratio : int array;  (* tasks sorted by w_spe/w_ppe descending *)
  suffix_wspe : float array;  (* sum of w_spe over order.(pos..) *)
  mem_need : float array;  (* per-task SPE buffer footprint *)
  by_mem_ratio : int array;  (* tasks sorted by mem_need/w_ppe descending *)
  suffix_mem : float array;  (* sum of mem_need over order.(pos..), eligible *)
  spe_eligible : bool array;
      (* tasks whose buffers can fit an SPE at all; the others are
         PPE-forced, a dominance that tightens the node bound *)
  suffix_forced_wppe : float array;  (* PPE work of ineligible order.(pos..) *)
  bnd : Bounds.t;  (* closed-form §5 relaxations, shared with the MILP *)
  suffix_reads : float array;  (* interface bytes of order.(pos..) *)
  suffix_writes : float array;
  suffix_task_lb : float array;  (* max per-task bound over order.(pos..) *)
}

type state = {
  inv : inv;
  ev : Eval.t;
  rows : Steady_state.loads;  (* [Eval.rows ev] *)
  cands : int array;
      (* candidate PEs of depth [pos] in [cands.(pos * n_pes ..)], sorted
         by the keys in [keys] at the same indices *)
  keys : float array;
  leaf : int array;  (* a leaf's assignment, offered to the incumbent *)
  mutable used_spes : int;  (* SPEs in use are spes.(0 .. used_spes-1) *)
}

(* Tasks sorted by [num.(k) / den.(k)] descending ([infinity] when
   [den.(k) <= 0]), the ratios computed once. *)
let by_ratio_desc num den =
  let nk = Array.length num in
  let ratio = Array.create_float nk in
  for k = 0 to nk - 1 do
    ratio.(k) <- (if den.(k) <= 0. then infinity else num.(k) /. den.(k))
  done;
  let by = Array.init nk Fun.id in
  Array.sort (fun a b -> Float.compare ratio.(b) ratio.(a)) by;
  by

let make_inv ~share platform g =
  let nk = G.n_tasks g in
  let fl = G.flat g in
  let w_ppe = Array.create_float nk in
  for k = 0 to nk - 1 do
    w_ppe.(k) <- fl.G.w_ppe.(k) /. platform.P.ppe_speedup
  done;
  let w_spe = fl.G.w_spe in
  let by_ratio = by_ratio_desc w_spe w_ppe in
  let bnd = Bounds.create platform g in
  let footprint = fl.G.footprint in
  (* Per-task memory footprint used by the divisible relaxation. Under the
     sharing model a single buffer per edge suffices when both endpoints
     share an SPE, so half the incident mass is a valid lower bound. *)
  let factor = if share then 0.5 else 1.0 in
  let mem_need = Array.create_float nk in
  for k = 0 to nk - 1 do
    mem_need.(k) <- factor *. footprint.(k)
  done;
  let by_mem_ratio = by_ratio_desc mem_need w_ppe in
  (* A task needs at least one copy of each incident buffer on its SPE,
     sharing or not; beyond the budget it can only live on a PPE. *)
  let budget = float_of_int (P.spe_memory_budget platform) in
  let spe_eligible = Array.init nk (fun k -> footprint.(k) <= budget +. 1e-9) in
  (* Assignment order: hardest tasks first. Committing the tasks that
     dominate the binding resources (local-store footprint, then raw
     work) makes the divisible knapsacks infeasible near the root, where
     a prune cuts an exponential subtree; any fixed order is complete,
     and a deterministic one preserves the bitwise contract. *)
  let order = Array.init nk Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare mem_need.(b) mem_need.(a) in
      if c <> 0 then c
      else
        let c = Float.compare (Float.min w_ppe.(b) w_spe.(b))
                  (Float.min w_ppe.(a) w_spe.(a)) in
        if c <> 0 then c else compare a b)
    order;
  let suffix_mem = Array.make (nk + 1) 0. in
  let suffix_forced_wppe = Array.make (nk + 1) 0. in
  let suffix_wspe = Array.make (nk + 1) 0. in
  let suffix_reads = Array.make (nk + 1) 0. in
  let suffix_writes = Array.make (nk + 1) 0. in
  let suffix_task_lb = Array.make (nk + 1) 0. in
  for pos = nk - 1 downto 0 do
    let k = order.(pos) in
    suffix_mem.(pos) <-
      (suffix_mem.(pos + 1) +. if spe_eligible.(k) then mem_need.(k) else 0.);
    suffix_forced_wppe.(pos) <-
      (suffix_forced_wppe.(pos + 1)
      +. if spe_eligible.(k) then 0. else w_ppe.(k));
    suffix_wspe.(pos) <-
      (suffix_wspe.(pos + 1) +. if spe_eligible.(k) then w_spe.(k) else 0.);
    suffix_reads.(pos) <- suffix_reads.(pos + 1) +. fl.G.read_bytes.(k);
    suffix_writes.(pos) <- suffix_writes.(pos + 1) +. fl.G.write_bytes.(k);
    suffix_task_lb.(pos) <-
      Float.max suffix_task_lb.(pos + 1) (Bounds.task_lb bnd k)
  done;
  {
    platform;
    g;
    fl;
    share;
    ppes = Array.of_list (P.ppes platform);
    spes = Array.of_list (P.spes platform);
    budget;
    order;
    w_ppe;
    w_spe;
    by_ratio;
    suffix_wspe;
    mem_need;
    by_mem_ratio;
    suffix_mem;
    spe_eligible;
    suffix_forced_wppe;
    bnd;
    suffix_reads;
    suffix_writes;
    suffix_task_lb;
  }

let make_state inv =
  let nk = G.n_tasks inv.g and n_pes = P.n_pes inv.platform in
  let ev =
    Eval.create_empty
      ~options:
        { Eval.share_colocated_buffers = inv.share }
      inv.platform inv.g
  in
  {
    inv;
    ev;
    rows = Eval.rows ev;
    cands = Array.make (nk * n_pes) 0;
    keys = Array.create_float (nk * n_pes);
    leaf = Array.make nk 0;
    used_spes = 0;
  }

(* Every in-edge of task [k] from another assigned SPE leaves that SPE
   a to-PPE slot: each is checked on its own, +1 per edge. *)
let to_ppe_fits st k pe =
  let iv = st.inv in
  let fl = iv.fl in
  let ok = ref true and i = ref fl.G.in_start.(k) in
  while !ok && !i < fl.G.in_start.(k + 1) do
    let p = Eval.pe_of st.ev fl.G.edge_src.(fl.G.in_ids.(!i)) in
    if
      p >= 0 && p <> pe && P.is_spe iv.platform p
      && st.rows.Steady_state.dma_to_ppe.(p) + 1 > iv.platform.P.max_dma_to_ppe
    then ok := false;
    incr i
  done;
  !ok

let can_place st k pe =
  let platform = st.inv.platform in
  if P.is_spe platform pe then
    Eval.assign_memory_fits st.ev ~task:k ~pe ~slack:1e-9
    && st.rows.Steady_state.dma_in.(pe) + Eval.remote_in_edges st.ev ~task:k ~pe
       <= platform.P.max_dma_in
  else to_ppe_fits st k pe

(* Sum, in the order of [pes], of [max 0 (t - compute)] over [pes]. *)
let[@inline] spare_compute st pes t =
  let compute = st.rows.Steady_state.compute in
  let acc = ref 0. in
  for i = 0 to Array.length pes - 1 do
    acc := !acc +. Float.max 0. (t -. compute.(pes.(i)))
  done;
  !acc

(* Shared greedy: remaining tasks hold [amount] units of some SPE-side
   resource with pool capacity [pool]; the excess must be offloaded to the
   PPEs, cheapest (largest amount-per-PPE-second) first. Returns true when
   the offload fits in [cap_ppe]. *)
let[@inline] offload_fits st ~order_by ~(amount : float array) ~pool ~total
    ~cap_ppe =
  let deficit = total -. pool in
  if deficit <= 0. then true
  else begin
    let removed = ref 0. and ppe_used = ref 0. in
    let i = ref 0 in
    let nk = Array.length order_by in
    while !removed < deficit && !i < nk do
      let k = order_by.(!i) in
      if Eval.pe_of st.ev k < 0 && st.inv.spe_eligible.(k) && amount.(k) > 0.
      then begin
        let need = deficit -. !removed in
        if amount.(k) <= need then begin
          removed := !removed +. amount.(k);
          ppe_used := !ppe_used +. st.inv.w_ppe.(k)
        end
        else begin
          let fraction = need /. amount.(k) in
          removed := deficit;
          ppe_used := !ppe_used +. (fraction *. st.inv.w_ppe.(k))
        end
      end;
      incr i
    done;
    !removed >= deficit -. 1e-12 && !ppe_used <= cap_ppe +. 1e-12
  end

let[@inline] covers cap need = cap >= need -. (1e-9 *. Float.max 1. need)

(* Divisible relaxation check: can the tasks of order.(pos..) be
   fractionally completed within period [t]? Two necessary conditions are
   tested, each a fractional knapsack: the SPE *work* pool of capacity
   [sum_j (t - load_j)], and the SPE *local-store* pool of the remaining
   memory budgets (constraint (1i) aggregated over SPEs). *)
(* Pool-form interface bandwidth check (§5 (1c)/(1d) aggregated over
   interfaces): any completion routes each remaining task's own reads
   (writes) through its host PE's input (output) interface, so the spare
   interface capacity at period [t] — summed over every PE — must cover
   the remaining bytes. O(n_pes), monotone in [t]. *)
let[@inline] interface_feasible st ~pos t =
  let iv = st.inv in
  let tb = t *. iv.platform.P.bw and n = P.n_pes iv.platform in
  let { Steady_state.bytes_in; bytes_out; _ } = st.rows in
  let cap = ref 0. in
  for pe = 0 to n - 1 do
    cap := !cap +. Float.max 0. (tb -. bytes_in.(pe))
  done;
  covers !cap iv.suffix_reads.(pos)
  && begin
       cap := 0.;
       for pe = 0 to n - 1 do
         cap := !cap +. Float.max 0. (tb -. bytes_out.(pe))
       done;
       covers !cap iv.suffix_writes.(pos)
     end

let divisible_feasible st ~pos t =
  let iv = st.inv in
  (* O(1): some PE must grant every remaining task its per-task bound. *)
  t +. 1e-12 >= iv.suffix_task_lb.(pos)
  && interface_feasible st ~pos t
  &&
  (* Tasks whose buffers exceed the local store are PPE-bound: their work
     consumes PPE capacity before any offloading happens. *)
  let cap_ppe = spare_compute st iv.ppes t -. iv.suffix_forced_wppe.(pos) in
  cap_ppe >= -1e-12
  && offload_fits st ~order_by:iv.by_ratio ~amount:iv.w_spe
       ~pool:(spare_compute st iv.spes t) ~total:iv.suffix_wspe.(pos) ~cap_ppe
  && begin
       let mem_pool = ref 0. in
       for i = 0 to Array.length iv.spes - 1 do
         let free = iv.budget -. st.rows.Steady_state.memory.(iv.spes.(i)) in
         mem_pool := !mem_pool +. Float.max 0. free
       done;
       offload_fits st ~order_by:iv.by_mem_ratio ~amount:iv.mem_need
         ~pool:!mem_pool ~total:iv.suffix_mem.(pos) ~cap_ppe
     end

(* Tight node bound via bisection (used for reporting at the root). *)
let node_bound st ~pos ~hi =
  let lo = ref (Eval.period st.ev) in
  if divisible_feasible st ~pos !lo then !lo
  else begin
    let hi =
      ref (Float.max hi (2. *. (!lo +. st.inv.suffix_wspe.(pos) +. 1e-9)))
    in
    for _ = 1 to 50 do
      let mid = 0.5 *. (!lo +. !hi) in
      if divisible_feasible st ~pos mid then hi := mid else lo := mid
    done;
    !hi
  end

exception Limit_hit

(* Default-off observability hooks: per-solve totals, flushed once at
   the end so the node recursion pays only local ref bumps. Registered
   eagerly at module init — a [Lazy.force] from pool workers would be a
   racy lazy access. *)
let m_nodes =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound nodes explored"
    "search_bb_nodes_total"

let m_pruned =
  Obs.Metrics.counter
    ~help:"Mapping branch-and-bound children cut by the divisible bound"
    "search_bb_pruned_total"

let m_incumbents =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound incumbent improvements"
    "search_bb_incumbents_total"

let m_subtrees =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound frontier subtree tasks"
    "search_bb_subtrees_total"

(* --- deterministic subtree-parallel branch and bound --------------------

   The tree is explored as node-budgeted subtree tasks: each task owns
   one open prefix, searches it depth-first on a private state, and when
   its budget runs out hands every still-open branch back as a fresh
   prefix instead of abandoning it — completeness never depends on the
   budget. Tasks fan out dynamically as fibers, each mapping its spilled
   prefixes out with {!Par.Fiber.parallel_map} (work-stealing keeps the
   domains saturated however lopsided the tree is); the sequential path
   drains the same tasks off an explicit LIFO stack. Only the *global*
   limits — the atomic node counter against [max_nodes], the deadline
   and [should_stop] — abandon work, and they mark the result as
   limit-hit.

   Why the result is independent of execution order (and hence bitwise
   equal between sequential and parallel runs of any pool size):

   - the incumbent cell is folded under a strict total order, so its
     final content depends only on the *set* of leaves offered;
   - a *deterministic* gap prune compares against a threshold fixed
     before the search starts ([det_thr], from the initial incumbent),
     never against the evolving best, so it cuts the same subtrees in
     every execution;
   - the *shared* prune compares against the live best strictly
     ([period > shared], or divisible-infeasible at [shared], which
     implies every completion is strictly worse than [shared]), so it
     only ever removes leaves strictly worse than the final best —
     removing such leaves cannot change the minimum. Timing changes
     which of them are skipped — and therefore where budgets run out
     and which prefixes are handed back — affecting node/prune/subtree
     counters but never the returned mapping. *)

let subtree_budget = 4096

(* Offer the complete assignment at a leaf, if it is feasible:
   [can_place] checks each DMA queue against the placed neighbours only,
   one edge at a time, so a leaf can still overflow a queue. A leaf is
   offered only when its period is at most the incumbent's [shared];
   one equal to it is offered with [shared] itself (equal periods have
   equal bits: the rows are sums of non-negative terms, never -0), and
   {!Incumbent.offer} settles the tie on the assignment without
   allocating, so a losing leaf allocates nothing. *)
let offer_leaf inc st =
  let shared = Incumbent.period inc in
  if
    Eval.period_exceeds st.ev ~at_least:infinity ~above:shared
    || not (Eval.feasible st.ev)
  then false
  else begin
    for k = 0 to Array.length st.leaf - 1 do
      st.leaf.(k) <- Eval.pe_of st.ev k
    done;
    let period =
      if Eval.period_exceeds st.ev ~at_least:shared ~above:infinity then shared
      else Eval.period st.ev
    in
    Incumbent.offer inc ~period st.leaf
  end

(* Stable insertion sort of [cands.(lo .. lo + n - 1)] by the keys at
   the same indices, ascending under [Float.compare]: equal keys keep
   their order, so the permutation is that of any stable sort —
   [List.sort]'s included. *)
let sort_candidates cands keys lo n =
  for i = lo + 1 to lo + n - 1 do
    let c = cands.(i) and key = keys.(i) in
    let j = ref i in
    while !j > lo && Float.compare keys.(!j - 1) key > 0 do
      cands.(!j) <- cands.(!j - 1);
      keys.(!j) <- keys.(!j - 1);
      decr j
    done;
    cands.(!j) <- c;
    keys.(!j) <- key
  done

(* Candidate PEs for position [pos], task [k], written to depth [pos]'s
   slots of [st.cands]; returns how many. Symmetric SPEs are collapsed
   to the ones in use plus one fresh; most promising (smallest resulting
   compute load) first, ties keeping the PPE-before-SPE base order. *)
let candidates st pos k =
  let iv = st.inv in
  let lo = pos * P.n_pes iv.platform and np = Array.length iv.ppes in
  let compute = st.rows.Steady_state.compute in
  for i = 0 to np - 1 do
    let pe = iv.ppes.(i) in
    st.cands.(lo + i) <- pe;
    st.keys.(lo + i) <- compute.(pe) +. iv.w_ppe.(k)
  done;
  let ns = min (st.used_spes + 1) (Array.length iv.spes) in
  for s = 0 to ns - 1 do
    let pe = iv.spes.(s) in
    st.cands.(lo + np + s) <- pe;
    st.keys.(lo + np + s) <- compute.(pe) +. iv.w_spe.(k)
  done;
  sort_candidates st.cands st.keys lo (np + ns);
  np + ns

(* Prune test for the child just assigned (next open position [pos]).
   [p >= det_thr] and infeasibility at [det_thr] are the deterministic
   gap rules; [p > shared] and infeasibility at [shared] are the
   result-safe sharing rules. One divisible check at the min threshold
   covers both (infeasibility is monotone: harder at smaller t). The
   threshold is whichever of the two boxed floats is smaller, passed
   as is. *)
let child_pruned st ~pos ~det_thr ~inc =
  let shared = Incumbent.period inc in
  Eval.period_exceeds st.ev ~at_least:det_thr ~above:shared
  || not
       (divisible_feasible st ~pos
          (if Float.min det_thr shared = det_thr then det_thr else shared))

let bump_used_spes st pe =
  let spes = st.inv.spes in
  if
    P.is_spe st.inv.platform pe
    && st.used_spes < Array.length spes
    && pe = spes.(st.used_spes)
  then st.used_spes <- st.used_spes + 1

let replay st prefix =
  for i = 0 to Array.length prefix - 1 do
    bump_used_spes st prefix.(i);
    Eval.assign st.ev ~task:st.inv.order.(i) ~pe:prefix.(i)
  done

(* Idle task states of one solve, for the next task to take instead of
   building its own: an engine reset to every task unassigned is
   bitwise a fresh one, and every candidate buffer is written before it
   is read. A lock-free stack, so that pooled tasks share it too. *)
let rec take_state free inv =
  match Atomic.get free with
  | [] -> make_state inv
  | st :: rest as cur ->
      if Atomic.compare_and_set free cur rest then begin
        Eval.reset st.ev;
        st.used_spes <- 0;
        st
      end
      else take_state free inv

let rec give_state free st =
  let cur = Atomic.get free in
  if not (Atomic.compare_and_set free cur (st :: cur)) then give_state free st

(* Shared, mutation-only search context: the incumbent cell, the fixed
   deterministic threshold, the global limits, the atomic counters
   every subtree task folds into and the idle task states. *)
type ctx = {
  inc : Incumbent.t;
  det_thr : float;
  deadline : float;
  should_stop : unit -> bool;
  max_nodes : int;
  c_nodes : int Atomic.t;
  c_pruned : int Atomic.t;
  c_incumbents : int Atomic.t;
  c_subtrees : int Atomic.t;
  c_limit : bool Atomic.t;
  sctx : Obs.Span.ctx;  (* parent span of this phase's subtree spans *)
  free : state list Atomic.t;
}

(* One budgeted subtree task: fresh state, replay the prefix, depth-first
   until the local node budget runs out, then capture every still-open
   branch (the whole subtree under the current position) as a prefix to
   hand back. Local counters flush into the atomics every 1024 nodes,
   which is also when the global limits are polled. Returns the
   handed-back prefixes; [Limit_hit] abandons the remainder and flags
   [c_limit]. *)
let run_task ctx inv prefix =
  if Atomic.get ctx.c_limit then [||]
  else begin
    (* Flight-recorder span: one per subtree task, named by the prefix
       hash (unique within a phase — each open prefix is handed back at
       most once), annotated with this task's local counters. The task
       *set* of a parallel phase is timing-dependent, so these spans
       are excluded from the cross-pool determinism property. *)
    let t_start =
      if Obs.Span.active ctx.sctx then Obs.Span.now () else 0.
    in
    let st = take_state ctx.free inv in
    let nk = G.n_tasks inv.g and n_pes = P.n_pes inv.platform in
    replay st prefix;
    let nodes = ref 0 and flushed = ref 0 in
    let pruned = ref 0 and incumbents = ref 0 in
    let spill = ref [] in
    let flush_and_check () =
      ignore (Atomic.fetch_and_add ctx.c_nodes (!nodes - !flushed));
      flushed := !nodes;
      if
        Atomic.get ctx.c_nodes >= ctx.max_nodes
        || Unix.gettimeofday () > ctx.deadline
        || ctx.should_stop ()
      then begin
        Atomic.set ctx.c_limit true;
        raise Limit_hit
      end
    in
    let prefix_of pos =
      Array.init pos (fun i -> Eval.pe_of st.ev inv.order.(i))
    in
    let rec explore pos =
      if !nodes >= subtree_budget && pos < nk then
        (* Budget spent: hand the whole open subtree back as a task.
           The node is not counted here — it is counted when the new
           task re-enters it. *)
        spill := prefix_of pos :: !spill
      else begin
        incr nodes;
        if !nodes land 1023 = 0 then flush_and_check ();
        if pos = nk then begin
          if offer_leaf ctx.inc st then incr incumbents
        end
        else begin
          let k = inv.order.(pos) in
          Eval.save_rows st.ev;
          let n = candidates st pos k in
          for i = pos * n_pes to (pos * n_pes) + n - 1 do
            let pe = st.cands.(i) in
            if can_place st k pe then
              (* The child's own compute row settles most prunes in
                 O(1), before the assign and its sweep; a rejection
                 implies [child_pruned]'s, and is counted the same. *)
              if
                Eval.assign_exceeds st.ev ~task:k ~pe ~at_least:ctx.det_thr
                  ~above:(Incumbent.period ctx.inc)
              then incr pruned
              else begin
                let was_used = st.used_spes in
                bump_used_spes st pe;
                Eval.assign st.ev ~task:k ~pe;
                if
                  child_pruned st ~pos:(pos + 1) ~det_thr:ctx.det_thr
                    ~inc:ctx.inc
                then incr pruned
                else explore (pos + 1);
                Eval.retract st.ev ~task:k;
                st.used_spes <- was_used
              end
          done
        end
      end
    in
    (try
       (* Poll the global limits before the first node so an expired
          deadline or a cancellation cancels on the first check, however
          small the subtree. *)
       flush_and_check ();
       explore (Array.length prefix)
     with Limit_hit -> spill := []);
    ignore (Atomic.fetch_and_add ctx.c_nodes (!nodes - !flushed));
    ignore (Atomic.fetch_and_add ctx.c_pruned !pruned);
    ignore (Atomic.fetch_and_add ctx.c_incumbents !incumbents);
    ignore (Atomic.fetch_and_add ctx.c_subtrees 1);
    Eval.publish st.ev;
    give_state ctx.free st;
    if Obs.Span.active ctx.sctx then
      Obs.Span.record ctx.sctx ~t_start
        ~attrs:
          [
            ("nodes", Obs.Span.Int !nodes);
            ("pruned", Obs.Span.Int !pruned);
            ("incumbents", Obs.Span.Int !incumbents);
            ("spilled", Obs.Span.Int (List.length !spill));
          ]
        ("subtree:"
        ^ Support.Fnv.to_hex
            (Array.fold_left Support.Fnv.add_int Support.Fnv.empty prefix));
    Array.of_list !spill
  end

(* Sequential twin of the phase-B fiber fan-out: drain the task set off
   an explicit LIFO stack (depth-first overall, so memory stays bounded
   by the open prefixes of one root-to-leaf path per budget layer). *)
let sequential_grow f roots =
  let stack = Stack.create () in
  Array.iter (fun r -> Stack.push r stack) roots;
  while not (Stack.is_empty stack) do
    Array.iter (fun c -> Stack.push c stack) (f (Stack.pop stack))
  done

let solve ?(span = Obs.Span.null) ?(options = default_options)
    ?(should_stop = fun () -> false) ?incumbent ?pool
    platform g =
  let share = options.share_colocated_buffers in
  let inv = make_inv ~share platform g in
  let eval_options = { Eval.share_colocated_buffers = share } in
  let incumbent_mapping, init_period =
    match incumbent with
    | Some m ->
        let ev = Eval.create ~options:eval_options platform g m in
        let feasible = Eval.feasible ev in
        let period = Eval.period ev in
        Eval.publish ev;
        if not feasible then
          invalid_arg "Mapping_search.solve: incumbent is infeasible";
        (m, period)
    | None ->
        (* Portfolio seed: ppe-only, greedy-mem, greedy-cpu and six
           seeded random-feasible restarts (the portfolio's defaults),
           each polished by local search. Every point of
           period the seed recovers shrinks [det_thr] and with it the
           whole tree — on the paper's 50-task instances the difference
           is between closing at the root and millions of open nodes.
           The portfolio is bitwise deterministic at any pool size, so
           the determinism contract is unaffected. Its period is the
           canonical one of its best mapping under [eval_options]. *)
        let r =
          Portfolio.solve ~span ?pool ~should_stop
            ~share_colocated_buffers:share platform g
        in
        (r.Portfolio.best, r.Portfolio.period)
  in
  let inc =
    Incumbent.of_option (Some (init_period, Mapping.to_array incumbent_mapping))
  in
  (* Fixed before the search: the deterministic gap-prune threshold. *)
  let det_thr = init_period *. (1. -. options.rel_gap) in
  let deadline = Unix.gettimeofday () +. options.time_limit in
  let root = make_state inv in
  let root_bound =
    Float.max
      (node_bound root ~pos:0 ~hi:init_period)
      (Bounds.root_bound inv.bnd)
  in
  Eval.publish root.ev;
  let ctx =
    {
      inc;
      det_thr;
      deadline;
      should_stop;
      max_nodes = min options.dive_nodes options.max_nodes;
      c_nodes = Atomic.make 0;
      c_pruned = Atomic.make 0;
      c_incumbents = Atomic.make 0;
      c_subtrees = Atomic.make 0;
      c_limit = Atomic.make false;
      sctx = Obs.Span.null;
      free = Atomic.make [ root ];
    }
  in
  (* The combinatorial root bound can prove the (polished) incumbent
     within gap outright — then there is no tree to search. *)
  let limit_hit =
    if root_bound >= det_thr then false
    else begin
      (* Phase A — the dive: always sequential under a fixed node
         budget, so its incumbent is a pure function of the instance
         whatever the pool size. Hardest-first DFS typically lands
         within a fraction of a percent of the optimum here. *)
      Obs.Span.with_span_attrs span "dive" (fun dspan ->
          sequential_grow (run_task { ctx with sctx = dspan } inv) [| [||] |];
          ((), [ ("nodes", Obs.Span.Int (Atomic.get ctx.c_nodes)) ]));
      if not (Atomic.get ctx.c_limit) then false
      else if Unix.gettimeofday () > deadline || should_stop () then true
      else begin
        (* Phase B at the deterministically tightened threshold: the
           dive incumbent re-derives the gap rule, so when it is within
           [rel_gap] of the root bound the whole tree prunes at the
           root — gap closure expressed as exhaustion. Only a still-open
           tree is fanned out over the pool. *)
        let thr_b =
          Float.min det_thr
            (Incumbent.period inc *. (1. -. options.rel_gap))
        in
        if root_bound >= thr_b then false
        else if Atomic.get ctx.c_nodes >= options.max_nodes then true
        else begin
          Obs.Span.with_span_attrs span "fanout" (fun fspan ->
              let ctx =
                {
                  ctx with
                  det_thr = thr_b;
                  max_nodes = options.max_nodes;
                  c_limit = Atomic.make false;
                  sctx = fspan;
                }
              in
              let run prefix = run_task ctx inv prefix in
              (match pool with
              | Some p ->
                  (* Each spilled subtree is a fiber; a parent awaits its
                     children, so the root returns once the whole task
                     tree has drained, and an error re-raises
                     lowest-index first. *)
                  let rec grow prefix =
                    ignore (Par.Fiber.parallel_map ~pool:p grow (run prefix))
                  in
                  Par.Fiber.run p (fun () -> grow [||])
              | None -> sequential_grow run [| [||] |]);
              ( Atomic.get ctx.c_limit,
                [
                  ("nodes", Obs.Span.Int (Atomic.get ctx.c_nodes));
                  ("subtrees", Obs.Span.Int (Atomic.get ctx.c_subtrees));
                ] ))
        end
      end
    end
  in
  let nodes = Atomic.get ctx.c_nodes in
  let pruned = Atomic.get ctx.c_pruned in
  let incumbents = Atomic.get ctx.c_incumbents in
  let optimal_within_gap = not limit_hit in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_nodes nodes;
    Obs.Metrics.Counter.add m_pruned pruned;
    Obs.Metrics.Counter.add m_incumbents incumbents;
    Obs.Metrics.Counter.add m_subtrees (Atomic.get ctx.c_subtrees)
  end;
  let e = Option.get (Incumbent.best inc) in
  let mapping = Mapping.make platform g e.Incumbent.arr in
  let period = e.Incumbent.period in
  let lower_bound =
    if optimal_within_gap then
      Float.max root_bound (period *. (1. -. options.rel_gap))
    else root_bound
  in
  let lower_bound = Float.min lower_bound period in
  {
    mapping;
    period;
    lower_bound;
    gap = (if period <= 0. then 0. else (period -. lower_bound) /. period);
    nodes;
    optimal_within_gap;
  }

module For_testing = struct
  let sort_candidates = sort_candidates
end
