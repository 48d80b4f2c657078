module G = Streaming.Graph
module P = Cell.Platform

let ppe_only platform g = Mapping.all_on_ppe platform g

(* All placement strategies walk the tasks through one incremental
   {!Eval} engine: the engine is the authority on per-PE compute load,
   SPE memory footprint, and DMA counters while tasks are placed in
   topological order (so a task's predecessors are always placed before
   it). The walks read the graph's flat arrays and the engine's rows
   directly: a placement step allocates nothing. Each step first
   validates the rows it reads. *)

(* Whether [k] may go on [pe]: on an SPE, the local store must hold the
   task's buffers and the incoming DMA queue its remote in-edges; on a
   PPE, each SPE hosting predecessors of [k] must have a to-PPE DMA slot
   for every in-edge it feeds. *)
let can_place ev k pe =
  let platform = Eval.platform ev in
  if P.is_spe platform pe then
    Eval.assign_memory_fits ev ~task:k ~pe ~slack:0.
    && (Eval.rows ev).Steady_state.dma_in.(pe) + Eval.remote_in_edges ev ~task:k ~pe
       <= platform.P.max_dma_in
  else begin
    let fl = G.flat (Eval.graph ev) in
    let dma_to_ppe = (Eval.rows ev).Steady_state.dma_to_ppe in
    let lo = fl.G.in_start.(k) and hi = fl.G.in_start.(k + 1) in
    let ok = ref true and i = ref lo in
    while !ok && !i < hi do
      let spe = Eval.pe_of ev fl.G.edge_src.(fl.G.in_ids.(!i)) in
      if spe >= 0 && P.is_spe platform spe then begin
        (* The slots this SPE's in-edges would take, counted again at
           each of them: the verdict is the same. *)
        let count = ref 0 in
        for j = lo to hi - 1 do
          if Eval.pe_of ev fl.G.edge_src.(fl.G.in_ids.(j)) = spe then incr count
        done;
        if dma_to_ppe.(spe) + !count > platform.P.max_dma_to_ppe then ok := false
      end;
      incr i
    done;
    !ok
  end

(* The greedy fallback (no PE passes [can_place]) forces tasks onto the
   PPE, which can overflow a predecessor SPE's to-PPE DMA queue — the
   blind spot the old incremental bookkeeping documented and never fixed.
   Repair: while some SPE exceeds its to-PPE queue, move one of its
   PPE-feeding tasks (the least id) to the PPE. Each step strictly
   shrinks the SPE-hosted task population (to-PPE pressure on an SPE
   only comes from tasks it hosts), so the loop terminates with no
   [Dma_to_ppe] violation; SPE memory only decreases along the way. *)
let repair_to_ppe ev =
  let platform = Eval.platform ev in
  let fl = G.flat (Eval.graph ev) in
  let dma_to_ppe = (Eval.rows ev).Steady_state.dma_to_ppe in
  let n = P.n_pes platform and nk = G.n_tasks (Eval.graph ev) in
  let overflowing () =
    let spe = ref platform.P.n_ppe in
    while !spe < n && dma_to_ppe.(!spe) <= platform.P.max_dma_to_ppe do
      incr spe
    done;
    if !spe < n then !spe else -1
  in
  let feeds_a_ppe k =
    let found = ref false in
    for i = fl.G.out_start.(k) to fl.G.out_start.(k + 1) - 1 do
      let pe = Eval.pe_of ev fl.G.edge_dst.(fl.G.out_ids.(i)) in
      if pe >= 0 && P.is_ppe platform pe then found := true
    done;
    !found
  in
  let spe = ref (overflowing ()) in
  while !spe >= 0 do
    (* A culprit always exists: every to-PPE slot of [spe] belongs to a
       task hosted there with a PPE consumer. *)
    let victim = ref 0 in
    while
      !victim < nk && not (Eval.pe_of ev !victim = !spe && feeds_a_ppe !victim)
    do
      incr victim
    done;
    if !victim = nk then failwith "Heuristics.repair_to_ppe: no culprit";
    Eval.apply_move ev ~task:!victim ~pe:0;
    spe := overflowing ()
  done

(* An engine's complete mapping, its counts published: the end of every
   walk that owns its engine. *)
let finish ev =
  let m = Eval.mapping ev in
  Eval.publish ev;
  m

(* Walk the tasks in topological order, placing each on [choose ev k]'s
   PE (PPE0 when it answers -1), then repair. *)
let place_generic ~choose ev =
  let topo = (G.flat (Eval.graph ev)).G.topo in
  for i = 0 to Array.length topo - 1 do
    let k = topo.(i) in
    Eval.validate ev;
    let pe = choose ev k in
    Eval.assign ev ~task:k ~pe:(if pe < 0 then 0 else pe)
  done;
  repair_to_ppe ev

let place_ppe_only ev =
  for k = 0 to G.n_tasks (Eval.graph ev) - 1 do
    Eval.assign ev ~task:k ~pe:0
  done

(* Among the SPEs [can_place] admits, the first with the least memory. *)
let choose_mem ev k =
  let platform = Eval.platform ev in
  let memory = (Eval.rows ev).Steady_state.memory in
  let best = ref (-1) in
  for pe = platform.P.n_ppe to P.n_pes platform - 1 do
    if can_place ev k pe && (!best < 0 || memory.(pe) < memory.(!best)) then
      best := pe
  done;
  !best

let place_greedy_mem ev = place_generic ~choose:choose_mem ev

(* PE [pe]'s compute load with task [k] added. *)
let[@inline] load platform (fl : G.flat) compute k pe =
  if P.is_spe platform pe then compute.(pe) +. fl.G.w_spe.(k)
  else compute.(pe) +. (fl.G.w_ppe.(k) /. platform.P.ppe_speedup)

(* Among the PEs [can_place] admits, the first with the least compute
   load once [k] is added. *)
let choose_cpu ev k =
  let platform = Eval.platform ev in
  let fl = G.flat (Eval.graph ev) in
  let compute = (Eval.rows ev).Steady_state.compute in
  let best = ref (-1) in
  for pe = 0 to P.n_pes platform - 1 do
    if
      can_place ev k pe
      && (!best < 0
         || load platform fl compute k pe < load platform fl compute k !best)
    then best := pe
  done;
  !best

let place_greedy_cpu ev = place_generic ~choose:choose_cpu ev

(* Seeded random feasible start: uniform among the PEs [can_place]
   admits, listed in a per-walk buffer. Exactly one [rng] draw per task
   with at least one admissible PE, so the mapping is a pure function
   of the seed. *)
let place_random_feasible ~rng ev =
  let n = P.n_pes (Eval.platform ev) in
  let admissible = Array.make n 0 in
  place_generic ev ~choose:(fun ev k ->
      let count = ref 0 in
      for pe = 0 to n - 1 do
        if can_place ev k pe then begin
          admissible.(!count) <- pe;
          incr count
        end
      done;
      if !count = 0 then -1 else admissible.(Support.Rng.int rng !count))

let greedy_mem platform g =
  let ev = Eval.create_empty platform g in
  place_greedy_mem ev;
  finish ev

let greedy_cpu platform g =
  let ev = Eval.create_empty platform g in
  place_greedy_cpu ev;
  finish ev

(* Offload tasks to SPEs by decreasing value density w_ppe / memory
   footprint: the optimal structure when the SPE local stores are the
   binding resource (the usual regime on the Cell; cf. the paper's
   observation that SPE memory dominates the mapping problem). *)
let density_pack platform g =
  let ev = Eval.create_empty platform g in
  let fl = G.flat g in
  let nk = G.n_tasks g in
  let density = Array.create_float nk in
  for k = 0 to nk - 1 do
    let mem = fl.G.footprint.(k) in
    density.(k) <-
      (if mem <= 0. then infinity
       else fl.G.w_ppe.(k) /. platform.P.ppe_speedup /. mem)
  done;
  let by_density = Array.init nk Fun.id in
  Array.sort (fun a b -> Float.compare density.(b) density.(a)) by_density;
  let compute = (Eval.rows ev).Steady_state.compute in
  for i = 0 to nk - 1 do
    let k = by_density.(i) in
    (* Least-loaded (compute) SPE with room for the buffers. *)
    let best = ref (-1) in
    for pe = platform.P.n_ppe to P.n_pes platform - 1 do
      if
        Eval.assign_memory_fits ev ~task:k ~pe ~slack:0.
        && (!best < 0 || compute.(pe) < compute.(!best))
      then best := pe
    done;
    Eval.assign ev ~task:k ~pe:(if !best < 0 then 0 else !best)
  done;
  repair_to_ppe ev;
  finish ev

let random ~rng platform g =
  let n = P.n_pes platform in
  Mapping.make platform g
    (Array.init (G.n_tasks g) (fun _ -> Support.Rng.int rng n))

(* Default-off observability hooks: local-search acceptance counters,
   counted in locals and published once per search (probe counts live
   in the engine). Registered eagerly at module init so no
   lazy cell is forced from pool worker domains (racy under OCaml 5). *)
let m_ls_passes =
  Obs.Metrics.counter ~help:"Local-search improvement passes"
    "search_ls_passes_total"

let m_ls_moves =
  Obs.Metrics.counter ~help:"Local-search single-task moves accepted"
    "search_ls_moves_accepted_total"

let m_ls_swaps =
  Obs.Metrics.counter ~help:"Local-search pairwise swaps accepted"
    "search_ls_swaps_accepted_total"

let m_ls_skipped =
  Obs.Metrics.counter
    ~help:"Local-search moves and swaps left unprobed: they miss the bottleneck row"
    "search_ls_probes_skipped_total"

(* The bottleneck-directed neighbourhood: mark in [hot] the tasks on the
   bottleneck row's PE, or every task for an inter-Cell link row, and
   return that PE (-1 for a link row). Allocates nothing. *)
let refresh_hot ev hot =
  let code = Eval.bottleneck_row ev in
  if code mod 5 >= 3 then begin
    Array.fill hot 0 (Array.length hot) true;
    -1
  end
  else begin
    let beta = code / 5 in
    for k = 0 to Array.length hot - 1 do
      hot.(k) <- Eval.pe_of ev k = beta
    done;
    beta
  end

module For_testing = struct
  let refresh_hot = refresh_hot
end

(* Passes before [improve] stops short of a local optimum. *)
let max_passes = 50

let improve ev =
  let n = P.n_pes (Eval.platform ev) and nk = G.n_tasks (Eval.graph ev) in
  (* A move is taken when it is feasible and beats the best period by
     more than 1e-12: the screened probes answer exactly that, and reach
     the exact sweep only for the few candidates their O(degree) screen
     cannot rule out. Updating [threshold] through the [accept] closure
     keeps it a heap cell whose boxed float each probe passes as is;
     as a plain local ref the compiler would unbox it and box a fresh
     copy per probe. *)
  let threshold = ref (Eval.period ev -. 1e-12) in
  let accept t = threshold := t -. 1e-12 in
  (* Only mutations that can change a term of the bottleneck row are
     probed: a move of a task on the row's PE or onto it, a swap with
     such a task; any mutation for a link row. Every other one leaves
     the row, hence a period above [threshold], bitwise as it is (the
     argument is in heuristics.mli). The state, and so the row, changes
     only when a move or swap is applied. *)
  let hot = Array.make nk false in
  let beta = ref (refresh_hot ev hot) in
  let improved = ref true in
  let passes = ref 0 and moves = ref 0 and swaps = ref 0 and skipped = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    (* Single-task moves. *)
    for k = 0 to nk - 1 do
      let home = Eval.pe_of ev k in
      let best_move = ref (-1) in
      for pe = 0 to n - 1 do
        if pe <> home then
          if hot.(k) || pe = !beta then begin
            let t = Eval.probe_move_below ev ~task:k ~pe ~threshold:!threshold in
            if t < !threshold then begin
              accept t;
              best_move := pe
            end
          end
          else incr skipped
      done;
      if !best_move >= 0 then begin
        improved := true;
        incr moves;
        Eval.apply_move ev ~task:k ~pe:!best_move;
        beta := refresh_hot ev hot
      end
    done;
    (* Pairwise swaps: essential when the local stores are full, where no
       single move is feasible but exchanging tasks is. *)
    for k1 = 0 to nk - 1 do
      for k2 = k1 + 1 to nk - 1 do
        if Eval.pe_of ev k1 <> Eval.pe_of ev k2 then
          if hot.(k1) || hot.(k2) then begin
            let t = Eval.probe_swap_below ev k1 k2 ~threshold:!threshold in
            if t < !threshold then begin
              accept t;
              improved := true;
              incr swaps;
              Eval.apply_swap ev k1 k2;
              beta := refresh_hot ev hot
            end
          end
          else incr skipped
      done
    done
  done;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_ls_passes !passes;
    Obs.Metrics.Counter.add m_ls_moves !moves;
    Obs.Metrics.Counter.add m_ls_swaps !swaps;
    Obs.Metrics.Counter.add m_ls_skipped !skipped
  end

let local_search platform g mapping =
  let ev = Eval.create platform g mapping in
  improve ev;
  finish ev

(* Past this row count the rounding skips the LP and falls back to the
   density heuristic. The simplex keeps a dense m x m basis inverse (32 MB
   at 2000 rows; only bases up to 1024 rows reuse a per-domain buffer,
   larger ones allocate theirs per solve), and its BTRAN and basic-value
   refresh cost up to O(m^2) per pivot. Moving the limit changes the mappings
   of every graph whose relaxation it crosses. *)
let lp_rounding_row_limit = 2000

let lp_rounding ?improve:(improve_it = true) platform g =
  let formulation = Milp_formulation.build_compact platform g in
  let fallback () =
    let m = density_pack platform g in
    if Steady_state.feasible platform g m then m else greedy_mem platform g
  in
  if Lp.Problem.n_constrs formulation.Milp_formulation.problem > lp_rounding_row_limit
  then fallback ()
  else
  match Lp.Simplex.solve formulation.Milp_formulation.problem with
  | exception Failure _ -> fallback ()
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> fallback ()
  | Lp.Simplex.Optimal sol ->
      let alpha = formulation.Milp_formulation.alpha in
      let x = sol.Lp.Simplex.x in
      let ev = Eval.create_empty platform g in
      let order = G.topological_order g in
      let ranked = Array.make (P.n_pes platform) 0 in
      let rec first_placeable k r =
        if r = Array.length ranked then 0
        else if can_place ev k ranked.(r) then ranked.(r)
        else first_placeable k (r + 1)
      in
      let handle k =
        (* PEs by decreasing fractional alpha, ties in increasing PE
           order (the sort is stable), the first feasible one taken. *)
        for r = 0 to Array.length ranked - 1 do
          ranked.(r) <- r
        done;
        Array.stable_sort (fun a b -> compare x.(alpha.(k).(b)) x.(alpha.(k).(a))) ranked;
        Eval.assign ev ~task:k ~pe:(first_placeable k 0)
      in
      Array.iter handle order;
      repair_to_ppe ev;
      (* One engine from the rounding through the polish: [Eval.feasible]
         is [Steady_state.feasible] of its mapping. *)
      if improve_it && Eval.feasible ev then improve ev;
      finish ev

let best_feasible platform g candidates =
  (* One engine pass per candidate: feasibility and period in a single
     O(tasks + edges) evaluation instead of repeated scratch recomputes. *)
  let scored =
    List.filter_map
      (fun (name, m) ->
        let ev = Eval.create platform g m in
        let scored =
          if Eval.feasible ev then Some ((name, m), Eval.period ev) else None
        in
        Eval.publish ev;
        scored)
      candidates
  in
  match scored with
  | [] -> None
  | first :: rest ->
      Some
        (fst
           (List.fold_left
              (fun (best, bt) (c, t) -> if t < bt then (c, t) else (best, bt))
              first rest))

let standard_candidates ?(with_lp = true) platform g =
  let base =
    [
      ("ppe-only", ppe_only platform g);
      ("greedy-mem", greedy_mem platform g);
      ("greedy-cpu", greedy_cpu platform g);
      ("density-pack", density_pack platform g);
    ]
  in
  let base =
    match Chain_dp.solve platform g with
    | Some m -> base @ [ ("chain-dp", m) ]
    | None -> base
  in
  if with_lp then base @ [ ("lp-round", lp_rounding platform g) ] else base
