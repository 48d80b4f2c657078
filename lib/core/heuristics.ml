module G = Streaming.Graph
module P = Cell.Platform

let ppe_only platform g = Mapping.all_on_ppe platform g

(* All placement strategies walk the tasks through one incremental
   {!Eval} engine: the engine is the authority on per-PE compute load,
   SPE memory footprint, and DMA counters while tasks are placed in
   topological order (so a task's predecessors are always placed before
   it). *)

(* Number of in-edges of [k] whose (already placed) producer is remote. *)
let remote_in_edges ev k pe =
  List.length
    (List.filter
       (fun e ->
         let src = (G.edge (Eval.graph ev) e).G.src in
         Eval.pe_of ev src >= 0 && Eval.pe_of ev src <> pe)
       (G.in_edges (Eval.graph ev) k))

(* Per-SPE count of to-PPE transfers a PPE placement of [k] would add:
   one per in-edge from a task already placed on that SPE. *)
let spe_pred_counts ev k =
  List.fold_left
    (fun acc e ->
      let src = (G.edge (Eval.graph ev) e).G.src in
      let pe = Eval.pe_of ev src in
      if pe >= 0 && P.is_spe (Eval.platform ev) pe then
        let cur = try List.assoc pe acc with Not_found -> 0 in
        (pe, cur + 1) :: List.remove_assoc pe acc
      else acc)
    []
    (G.in_edges (Eval.graph ev) k)

let can_place ev k pe =
  let platform = Eval.platform ev in
  if P.is_spe platform pe then begin
    let budget = float_of_int (P.spe_memory_budget platform) in
    Eval.memory_on ev pe +. Eval.task_buffer_bytes ev k <= budget
    && Eval.dma_in_on ev pe + remote_in_edges ev k pe <= platform.P.max_dma_in
  end
  else
    (* A PPE placement consumes a to-PPE DMA slot per remote in-edge from
       an SPE predecessor. *)
    List.for_all
      (fun (spe, count) ->
        Eval.dma_to_ppe_on ev spe + count <= platform.P.max_dma_to_ppe)
      (spe_pred_counts ev k)

(* The greedy fallback (no PE passes [can_place]) forces tasks onto the
   PPE, which can overflow a predecessor SPE's to-PPE DMA queue — the
   blind spot the old incremental bookkeeping documented and never fixed.
   Repair: while some SPE exceeds its to-PPE queue, move one of its
   PPE-feeding tasks to the PPE. Each step strictly shrinks the SPE-hosted
   task population (to-PPE pressure on an SPE only comes from tasks it
   hosts), so the loop terminates with no [Dma_to_ppe] violation; SPE
   memory only decreases along the way. *)
let repair_to_ppe ev =
  let platform = Eval.platform ev and g = Eval.graph ev in
  let overflowing () =
    List.find_opt
      (fun spe -> Eval.dma_to_ppe_on ev spe > platform.P.max_dma_to_ppe)
      (P.spes platform)
  in
  let feeds_a_ppe k =
    List.exists
      (fun e ->
        let dst = (G.edge g e).G.dst in
        let pe = Eval.pe_of ev dst in
        pe >= 0 && P.is_ppe platform pe)
      (G.out_edges g k)
  in
  let rec fix () =
    match overflowing () with
    | None -> ()
    | Some spe ->
        (* A culprit always exists: every to-PPE slot of [spe] belongs to
           a task hosted there with a PPE consumer. *)
        let victim =
          List.find
            (fun k -> Eval.pe_of ev k = spe && feeds_a_ppe k)
            (List.init (G.n_tasks g) Fun.id)
        in
        Eval.apply_move ev ~task:victim ~pe:0;
        fix ()
  in
  fix ()

let greedy_generic ~choose platform g =
  let ev = Eval.create_empty platform g in
  let order = G.topological_order g in
  let handle k =
    match choose ev k with
    | Some pe -> Eval.assign ev ~task:k ~pe
    | None -> Eval.assign ev ~task:k ~pe:0
  in
  Array.iter handle order;
  repair_to_ppe ev;
  Eval.mapping ev

let greedy_mem platform g =
  let choose ev k =
    let candidates = List.filter (can_place ev k) (P.spes platform) in
    match candidates with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun best pe ->
               if Eval.memory_on ev pe < Eval.memory_on ev best then pe
               else best)
             first rest)
  in
  greedy_generic ~choose platform g

let greedy_cpu platform g =
  let choose ev k =
    let load pe =
      let cls = P.pe_class platform pe in
      let w = Streaming.Task.w (G.task g k) cls in
      let w = if cls = P.PPE then w /. platform.P.ppe_speedup else w in
      Eval.compute_on ev pe +. w
    in
    let candidates =
      List.filter (can_place ev k) (List.init (P.n_pes platform) Fun.id)
    in
    match candidates with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun best pe -> if load pe < load best then pe else best)
             first rest)
  in
  greedy_generic ~choose platform g

(* Offload tasks to SPEs by decreasing value density w_ppe / memory
   footprint: the optimal structure when the SPE local stores are the
   binding resource (the usual regime on the Cell; cf. the paper's
   observation that SPE memory dominates the mapping problem). *)
let density_pack platform g =
  let ev = Eval.create_empty platform g in
  let nk = G.n_tasks g in
  let w_ppe k = (G.task g k).Streaming.Task.w_ppe /. platform.P.ppe_speedup in
  let density k =
    let mem = Eval.task_buffer_bytes ev k in
    if mem <= 0. then infinity else w_ppe k /. mem
  in
  let by_density = Array.init nk Fun.id in
  Array.sort (fun a b -> compare (density b) (density a)) by_density;
  let budget = float_of_int (P.spe_memory_budget platform) in
  let spes = Array.of_list (P.spes platform) in
  let place_spe k =
    (* Least-loaded (compute) SPE with room for the buffers. *)
    let best = ref (-1) in
    Array.iter
      (fun pe ->
        if Eval.memory_on ev pe +. Eval.task_buffer_bytes ev k <= budget then
          match !best with
          | -1 -> best := pe
          | b -> if Eval.compute_on ev pe < Eval.compute_on ev b then best := pe)
      spes;
    !best
  in
  Array.iter
    (fun k ->
      match place_spe k with
      | -1 -> Eval.assign ev ~task:k ~pe:0
      | pe -> Eval.assign ev ~task:k ~pe)
    by_density;
  repair_to_ppe ev;
  Eval.mapping ev

let random ~rng platform g =
  let n = P.n_pes platform in
  Mapping.make platform g
    (Array.init (G.n_tasks g) (fun _ -> Support.Rng.int rng n))

(* Seeded random *feasible* start: topological placement walk choosing
   uniformly among the PEs [can_place] admits — the restart generator
   for portfolio local search. Consumes exactly one [rng] draw per task
   with at least one admissible PE, so the mapping is a pure function
   of the seed. *)
let random_feasible ~rng platform g =
  let ev = Eval.create_empty platform g in
  let n = P.n_pes platform in
  Array.iter
    (fun k ->
      let admissible =
        List.filter (can_place ev k) (List.init n Fun.id)
      in
      match admissible with
      | [] -> Eval.assign ev ~task:k ~pe:0
      | pes ->
          let pick = Support.Rng.int rng (List.length pes) in
          Eval.assign ev ~task:k ~pe:(List.nth pes pick))
    (G.topological_order g);
  repair_to_ppe ev;
  Eval.mapping ev

(* Default-off observability hooks: local-search acceptance counters
   (probe counts live in Eval). Registered eagerly at module init so no
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

let local_search ?(options = Eval.default_options) ?(max_passes = 50) platform g
    mapping =
  let ev = Eval.create ~options platform g mapping in
  let n = P.n_pes platform and nk = G.n_tasks g in
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
  let passes = ref 0 in
  let obs = Obs.Metrics.enabled () in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    if obs then Obs.Metrics.Counter.inc m_ls_passes;
    let skipped = ref 0 in
    (* Single-task moves. *)
    for k = 0 to nk - 1 do
      let home = Eval.pe_of ev k in
      let best_move = ref None in
      for pe = 0 to n - 1 do
        if pe <> home then
          if hot.(k) || pe = !beta then begin
            let t = Eval.probe_move_below ev ~task:k ~pe ~threshold:!threshold in
            if t < !threshold then begin
              accept t;
              best_move := Some pe
            end
          end
          else incr skipped
      done;
      match !best_move with
      | Some pe ->
          improved := true;
          if obs then Obs.Metrics.Counter.inc m_ls_moves;
          Eval.apply_move ev ~task:k ~pe;
          beta := refresh_hot ev hot
      | None -> ()
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
              if obs then Obs.Metrics.Counter.inc m_ls_swaps;
              Eval.apply_swap ev k1 k2;
              beta := refresh_hot ev hot
            end
          end
          else incr skipped
      done
    done;
    if obs then Obs.Metrics.Counter.add m_ls_skipped !skipped
  done;
  Eval.mapping ev

(* Past this row count the rounding skips the LP and falls back to the
   density heuristic. The simplex keeps a dense m x m basis inverse (32 MB
   at 2000 rows; only bases up to 1024 rows reuse a per-domain buffer,
   larger ones allocate theirs per solve), and its BTRAN and basic-value
   refresh cost up to O(m^2) per pivot. Moving the limit changes the mappings
   of every graph whose relaxation it crosses. *)
let lp_rounding_row_limit = 2000

let lp_rounding ?(improve = true) platform g =
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
      let ev = Eval.create_empty platform g in
      let order = G.topological_order g in
      let handle k =
        (* PEs by decreasing fractional alpha, filtered by feasibility. *)
        let ranked =
          List.sort
            (fun a b -> compare sol.Lp.Simplex.x.(alpha.(k).(b)) sol.Lp.Simplex.x.(alpha.(k).(a)))
            (List.init (P.n_pes platform) Fun.id)
        in
        match List.find_opt (can_place ev k) ranked with
        | Some pe -> Eval.assign ev ~task:k ~pe
        | None -> Eval.assign ev ~task:k ~pe:0
      in
      Array.iter handle order;
      repair_to_ppe ev;
      let mapping = Eval.mapping ev in
      if improve && Steady_state.feasible platform g mapping then
        local_search platform g mapping
      else mapping

let best_feasible platform g candidates =
  (* One engine pass per candidate: feasibility and period in a single
     O(tasks + edges) evaluation instead of repeated scratch recomputes. *)
  let scored =
    List.filter_map
      (fun (name, m) ->
        let ev = Eval.create platform g m in
        if Eval.feasible ev then Some ((name, m), Eval.period ev) else None)
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
