(* Tests for the incremental evaluation engine: bitwise agreement with
   the from-scratch Steady_state analysis after arbitrary move/swap
   replays and their inverses, probe purity, and the heuristics' repaired to-PPE DMA
   blind spot. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state
module E = Cellsched.Eval

let c_probes = Obs.Metrics.counter "search_eval_probes_total"
let c_exact = Obs.Metrics.counter "search_eval_exact_probes_total"

(* --- exact (bitwise) float comparison ----------------------------------- *)

let bits_eq_arrays name a b =
  if Array.length a <> Array.length b then
    QCheck.Test.fail_reportf "%s: length %d vs %d" name (Array.length a)
      (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        QCheck.Test.fail_reportf "%s.(%d): %.17g vs %.17g" name i x b.(i))
    a

let check_loads_equal (el : SS.loads) (sl : SS.loads) =
  bits_eq_arrays "compute" el.SS.compute sl.SS.compute;
  bits_eq_arrays "bytes_in" el.SS.bytes_in sl.SS.bytes_in;
  bits_eq_arrays "bytes_out" el.SS.bytes_out sl.SS.bytes_out;
  bits_eq_arrays "memory" el.SS.memory sl.SS.memory;
  bits_eq_arrays "link_out" el.SS.link_out sl.SS.link_out;
  bits_eq_arrays "link_in" el.SS.link_in sl.SS.link_in;
  if el.SS.dma_in <> sl.SS.dma_in then
    QCheck.Test.fail_reportf "dma_in differs";
  if el.SS.dma_to_ppe <> sl.SS.dma_to_ppe then
    QCheck.Test.fail_reportf "dma_to_ppe differs"

(* --- random instances ---------------------------------------------------- *)

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* A quarter of the cases run on a dual-Cell platform so the inter-Cell
   link rows (recomputed wholesale on colocation changes) are exercised;
   its PPEs run at 1.5x, so the speedup's division is exercised too. *)
let random_platform rng =
  if Support.Rng.int rng 4 = 0 then
    P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~ppe_speedup:1.5 ()
  else P.make ~n_ppe:1 ~n_spe:4 ()

let random_mapping rng platform g =
  let n = P.n_pes platform in
  Cellsched.Mapping.make platform g
    (Array.init (G.n_tasks g) (fun _ -> Support.Rng.int rng n))

(* The portfolio's seeded restart walk, on an engine of its own. *)
let random_feasible ~rng platform g =
  let ev = E.create_empty platform g in
  Cellsched.Heuristics.place_random_feasible ~rng ev;
  E.mapping ev

(* A move of a task to a PE, or a swap of two tasks: probed, applied,
   or applied to reverse another. *)
type probe = Move of int * int | Swap of int * int

(* [E.apply_move], returning the move that reverses it. *)
let move ev ~task ~pe =
  let old = E.pe_of ev task in
  E.apply_move ev ~task ~pe;
  Move (task, old)

let apply ev = function
  | Move (task, pe) -> E.apply_move ev ~task ~pe
  | Swap (k1, k2) -> E.apply_swap ev k1 k2

(* Random move/swap replay; returns the inverse of each mutation, most
   recent first. *)
let replay rng ev nops =
  let g = E.graph ev in
  let nk = G.n_tasks g in
  let npes = P.n_pes (E.platform ev) in
  let inverses = ref [] in
  for _ = 1 to nops do
    if Support.Rng.int rng 3 = 0 && nk >= 2 then begin
      let k1 = Support.Rng.int rng nk and k2 = Support.Rng.int rng nk in
      if k1 <> k2 then begin
        E.apply_swap ev k1 k2;
        inverses := Swap (k1, k2) :: !inverses
      end
    end
    else
      inverses :=
        move ev
          ~task:(Support.Rng.int rng nk)
          ~pe:(Support.Rng.int rng npes)
        :: !inverses
  done;
  !inverses

(* --- the replay property -------------------------------------------------

   With and without buffer sharing: after a random sequence of moves
   and swaps, the engine's loads / period / violations are bitwise equal
   to a from-scratch Steady_state evaluation of the final mapping;
   applying the inverses last-in first-out restores the initial state
   bitwise. 2 options x 60 cases = 120 random graphs. *)

let replay_case ~share (seed, n) =
  (* The qcheck shrinker can wander below the generator's range. *)
  let n = max 5 n and seed = abs seed in
  let salt = if share then 1_000_000 else 0 in
  let rng = Support.Rng.create (seed + salt) in
  let platform = random_platform rng in
  let g = random_graph rng n in
  let m0 = random_mapping rng platform g in
  let options = { E.share_colocated_buffers = share } in
  let scratch m = SS.loads ~share_colocated_buffers:share platform g m in
  let ev = E.create ~options platform g m0 in
  let inverses = replay rng ev (5 + Support.Rng.int rng 30) in
  let m = E.mapping ev in
  let sl = scratch m in
  check_loads_equal (E.loads ev) sl;
  if Int64.bits_of_float (E.period ev)
     <> Int64.bits_of_float (SS.period platform sl)
  then QCheck.Test.fail_reportf "period differs";
  if
    E.violations ev
    <> SS.violations ~share_colocated_buffers:share platform g m
  then QCheck.Test.fail_reportf "violations differ";
  if E.feasible ev <> (SS.violations_of_loads platform sl = []) then
    QCheck.Test.fail_reportf "feasible differs";
  (* Reverse every mutation: bitwise back to the initial state. *)
  List.iter (apply ev) inverses;
  check_loads_equal (E.loads ev) (scratch m0);
  true

let replay_matches_scratch ~share =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "replay = scratch (share=%b)" share)
    QCheck.(pair (int_bound 100_000) (int_range 5 20))
    (replay_case ~share)

(* --- the buffer model ------------------------------------------------------

   The oracle takes the first periods from their recursive definition
   over the edge lists: one period for the producer, one for the
   communication unless [mapping] puts both ends of the edge on one PE
   (the §4.2 tight pipeline), [peek] for the look-ahead. Each buffer is
   the data times the first-period gap. *)

let oracle_first_periods ?mapping g =
  let same_pe src k =
    match mapping with
    | Some m -> Cellsched.Mapping.pe m src = Cellsched.Mapping.pe m k
    | None -> false
  in
  let memo = Array.make (G.n_tasks g) (-1) in
  let rec fp k =
    if memo.(k) < 0 then
      memo.(k) <-
        List.fold_left
          (fun acc e ->
            let src = (G.edge g e).G.src in
            let comm = if same_pe src k then 0 else 1 in
            max acc (fp src + 1 + comm + (G.task g k).Streaming.Task.peek))
          0 (G.in_edges g k);
    memo.(k)
  in
  Array.init (G.n_tasks g) fp

let oracle_buffers g fp =
  Array.init (G.n_edges g) (fun e ->
      let { G.src; dst; data_bytes } = G.edge g e in
      data_bytes *. float_of_int (fp.(dst) - fp.(src)))

(* A random mapping; a quarter of them put every task on one PE, so
   that every edge skips its communication period. *)
let tight_mapping rng platform g =
  if Support.Rng.int rng 4 = 0 then
    let pe = Support.Rng.int rng (P.n_pes platform) in
    Cellsched.Mapping.make platform g (Array.make (G.n_tasks g) pe)
  else random_mapping rng platform g

let colocated_under m g e =
  let pe = Cellsched.Mapping.pe m in
  pe (G.edge g e).G.src = pe (G.edge g e).G.dst

(* The graph's buffer model is the oracle's, bitwise: first periods,
   buffers and footprints (the list fold of the out-edges' buffers plus
   that of the in-edges'); so is the mapping-aware variant under a
   random mapping. *)
let check_buffer_model rng what g =
  let fl = G.flat g in
  let fp = oracle_first_periods g in
  if fl.G.first_period <> fp then Alcotest.failf "%s: first periods differ" what;
  let buff = oracle_buffers g fp in
  bits_eq_arrays (what ^ " buffers") fl.G.buffer buff;
  let fold = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
  bits_eq_arrays (what ^ " footprints") fl.G.footprint
    (Array.init (G.n_tasks g) (fun k -> fold (G.out_edges g k) +. fold (G.in_edges g k)));
  let m = tight_mapping rng (random_platform rng) g in
  let tight = oracle_first_periods ~mapping:m g in
  let got = G.first_periods ~colocated:(colocated_under m g) g in
  if got <> tight then Alcotest.failf "%s: mapping-aware first periods differ" what;
  bits_eq_arrays (what ^ " mapping-aware buffers")
    (G.buffer_sizes g ~first_period:got) (oracle_buffers g tight)

(* DagGen's default costs draw peeks of 0, 1 and 2. *)
let buffer_model_random =
  QCheck.Test.make ~count:200 ~name:"buffer model = list oracle (random DAGs)"
    QCheck.(pair (int_bound 100_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Support.Rng.create (seed + 24_000_000) in
      check_buffer_model rng "random DAG" (random_graph rng n);
      true)

(* --- the tight pipeline ----------------------------------------------------

   [Steady_state.loads ~tight_pipeline:true] is the one home of the
   mapping-aware buffer model (paper §4.2, the A1 ablation): an edge
   whose ends share a PE skips its communication period. Its memory
   rows must be the sums, edge by edge, of the oracle's buffers. Every
   other row is the paper model's; the tight first periods are at most
   the paper's, and equal them when no edge stays on one PE. *)

let tight_case ~share (seed, n) =
  let n = max 5 n and seed = abs seed in
  let salt = if share then 1_000_000 else 0 in
  let rng = Support.Rng.create (seed + salt + 23_000_000) in
  let platform = random_platform rng in
  let g = random_graph rng n in
  let m = tight_mapping rng platform g in
  let pe = Cellsched.Mapping.pe m in
  let fp = oracle_first_periods ~mapping:m g and paper = (G.flat g).G.first_period in
  if G.first_periods ~colocated:(colocated_under m g) g <> fp then
    QCheck.Test.fail_reportf "mapping-aware first periods differ";
  Array.iteri
    (fun k p ->
      if p > paper.(k) then
        QCheck.Test.fail_reportf "task %d: tight first period %d > paper %d" k
          p paper.(k))
    fp;
  let colocated =
    List.exists (colocated_under m g) (List.init (G.n_edges g) Fun.id)
  in
  if (not colocated) && fp <> paper then
    QCheck.Test.fail_reportf "no colocated edge, first periods differ";
  let buff = oracle_buffers g fp in
  let memory = Array.make (P.n_pes platform) 0. in
  for e = 0 to G.n_edges g - 1 do
    let { G.src; dst; _ } = G.edge g e in
    let b = buff.(e) in
    memory.(pe src) <- memory.(pe src) +. b;
    if not (share && pe src = pe dst) then
      memory.(pe dst) <- memory.(pe dst) +. b
  done;
  let tight =
    SS.loads ~share_colocated_buffers:share ~tight_pipeline:true platform g m
  in
  bits_eq_arrays "tight memory" tight.SS.memory memory;
  let paper = SS.loads ~share_colocated_buffers:share platform g m in
  check_loads_equal { tight with SS.memory = paper.SS.memory } paper;
  true

let tight_matches_oracle ~share =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "tight pipeline = list oracle (share=%b)" share)
    QCheck.(pair (int_bound 100_000) (int_range 5 20))
    (tight_case ~share)

(* --- probe purity -------------------------------------------------------- *)

let options_of ~share = { E.share_colocated_buffers = share }

(* Scratch period and feasibility of [ev]'s mapping with [k] on [pe]
   (and [k2] on [pe2] when given). *)
let scratch_after ~share ev ?(k2 = -1) ?(pe2 = -1) k pe =
  let platform = E.platform ev and g = E.graph ev in
  let arr = Cellsched.Mapping.to_array (E.mapping ev) in
  arr.(k) <- pe;
  if k2 >= 0 then arr.(k2) <- pe2;
  let m = Cellsched.Mapping.make platform g arr in
  let sl = SS.loads ~share_colocated_buffers:share platform g m in
  (SS.period platform sl, SS.violations_of_loads platform sl = [])

let check_probe name (t, feas) (t', feas') =
  if Int64.bits_of_float t <> Int64.bits_of_float t' then
    QCheck.Test.fail_reportf "%s period differs: %h vs %h" name t t';
  if feas <> feas' then QCheck.Test.fail_reportf "%s feasibility differs" name

let probe_is_pure ~share =
  QCheck.Test.make ~count:40
    ~name:
      (if share then "probes pure (share=true)"
       else "probe_move/probe_swap leave no trace")
    QCheck.(pair (int_bound 100_000) (int_range 5 15))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let salt = if share then 1_000_000 else 0 in
      let rng = Support.Rng.create (seed + salt + 7_000_000) in
      let platform = random_platform rng in
      let g = random_graph rng n in
      let m0 = random_mapping rng platform g in
      let ev = E.create ~options:(options_of ~share) platform g m0 in
      let before = E.loads ev in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      for _ = 1 to 20 do
        let k = Support.Rng.int rng nk in
        let pe = Support.Rng.int rng npes in
        check_probe "probe_move" (E.probe_move ev ~task:k ~pe)
          (scratch_after ~share ev k pe);
        let k2 = Support.Rng.int rng nk in
        if k2 <> k then
          check_probe "probe_swap" (E.probe_swap ev k k2)
            (scratch_after ~share ev ~k2 ~pe2:(E.pe_of ev k) k
               (E.pe_of ev k2))
      done;
      check_loads_equal (E.loads ev) before;
      true)

(* --- the probe screen ------------------------------------------------------

   [probe_*_below] must answer exactly [if f && p < thr then p else
   infinity] for the exact probe's [(p, f)] — bitwise, whatever the
   screen decided — on platforms where each of its tests binds: link
   rows (dual Cell), memory (local stores a few edges' buffers wide), the
   DMA queues, and slow interfaces. Thresholds straddle the exact period at every scale
   the rounding margin could matter at, plus the local search's own
   (current period - 1e-12). Between rounds the state moves, so the
   cached rows the screen starts from vary too. *)

type platform_kind = Single | Dual | Memory_tight | Dma_limited

(* Half the platforms get interfaces (and inter-Cell links) slow enough
   that their rows, not compute, set the period. [n_spe] sizes the
   single-Cell kinds; [Dual] always has 2 PPEs and 6 SPEs. *)
let screen_platform ?(n_spe = 4) rng kind g =
  let slow = Support.Rng.int rng 2 = 0 in
  let bw = if slow then 2e6 +. Support.Rng.float rng 2e7 else 25e9 in
  let inter_cell_bw = if slow then 1e6 +. Support.Rng.float rng 1e7 else 20e9 in
  match kind with
  | Single -> P.make ~n_ppe:1 ~n_spe ~bw ()
  | Dual -> P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~bw ~inter_cell_bw ()
  | Memory_tight ->
      (* Room for a sixth to a half of the graph's buffers per SPE. *)
      let buff = Array.fold_left ( +. ) 0. (G.flat g).G.buffer in
      let share = (1. /. 6.) +. Support.Rng.float rng (1. /. 3.) in
      P.make ~n_ppe:1 ~n_spe ~bw ~code_size:0
        ~local_store:(max 1 (int_of_float (buff *. share)))
        ()
  | Dma_limited -> P.make ~n_ppe:1 ~n_spe ~bw ~max_dma_in:1 ~max_dma_to_ppe:1 ()

let platform_kind_index = function
  | Single -> 0
  | Dual -> 1
  | Memory_tight -> 2
  | Dma_limited -> 3

let platform_kind_name = function
  | Single -> "single Cell"
  | Dual -> "dual Cell"
  | Memory_tight -> "memory-tight"
  | Dma_limited -> "DMA-limited"

let check_below name thr (p, f) got =
  let want = if f && p < thr then p else infinity in
  if Int64.bits_of_float got <> Int64.bits_of_float want then
    QCheck.Test.fail_reportf "%s at threshold %h: %h, exact (%h, %b)" name thr
      got p f

let thresholds rng ~current p =
  [
    p;
    Float.pred p;
    Float.succ p;
    p -. 1e-12;
    p +. 1e-12;
    current -. 1e-12;
    p *. (0.5 +. Support.Rng.float rng 1.);
    Support.Rng.float rng (2. *. current);
    infinity;
  ]

let screen_is_exact ~share =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "below = exact (share=%b)" share)
    QCheck.(pair (int_bound 100_000) (int_range 5 25))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let salt = if share then 1_000_000 else 0 in
      let rng = Support.Rng.create (seed + salt + 9_000_000) in
      let g = random_graph rng n in
      let kind =
        [| Single; Dual; Memory_tight; Dma_limited |].(seed mod 4)
      in
      let platform = screen_platform rng kind g in
      let ev =
        E.create ~options:(options_of ~share) platform g
          (if Support.Rng.int rng 4 = 0 then random_mapping rng platform g
           else random_feasible ~rng platform g)
      in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      for _ = 1 to 4 do
        let before = E.loads ev in
        let current = E.period ev in
        for _ = 1 to 8 do
          let k = Support.Rng.int rng nk and pe = Support.Rng.int rng npes in
          let ((p, _) as exact) = E.probe_move ev ~task:k ~pe in
          List.iter
            (fun thr ->
              check_below "probe_move_below" thr exact
                (E.probe_move_below ev ~task:k ~pe ~threshold:thr))
            (thresholds rng ~current p);
          let k2 = Support.Rng.int rng nk in
          if k2 <> k then begin
            let ((p, _) as exact) = E.probe_swap ev k k2 in
            List.iter
              (fun thr ->
                check_below "probe_swap_below" thr exact
                  (E.probe_swap_below ev k k2 ~threshold:thr))
              (thresholds rng ~current p)
          end
        done;
        check_loads_equal (E.loads ev) before;
        (* Move on to a different state, mostly a feasible one: that is
           where a wrongly rejected probe would show. *)
        let back =
          move ev ~task:(Support.Rng.int rng nk) ~pe:(Support.Rng.int rng npes)
        in
        if (not (E.feasible ev)) && Support.Rng.int rng 4 > 0 then apply ev back
      done;
      true)

(* --- the pre-screen ---------------------------------------------------------

   Before the screen, [probe_*_below] bound the compute row and, without
   sharing, the SPE memory row of each PE gaining a task. Property: a pre-screen rejection implies that the exact probe is
   infeasible or at or above the threshold — a memory rejection that it
   is infeasible — and the probe still answers the exact value. Same-PE
   moves and swaps are drawn on purpose: the pre-screen must pass them,
   as their rows do not change. *)

module V = E.For_testing

(* Verdicts seen by [prescreen_is_sound], per kind: the tally test below
   wants both row checks to have fired. *)
let verdict_tally = Array.make 3 0

let verdict_index = function
  | V.Pass -> 0
  | V.Compute_row -> 1
  | V.Memory_row -> 2

let check_verdict name thr (p, f) verdict got =
  let i = verdict_index verdict in
  verdict_tally.(i) <- verdict_tally.(i) + 1;
  (match verdict with
  | V.Pass -> ()
  | V.Compute_row ->
      if f && p < thr then
        QCheck.Test.fail_reportf "%s: compute rejection at %h, exact %h" name
          thr p
  | V.Memory_row ->
      if f then
        QCheck.Test.fail_reportf "%s: memory rejection, exact feasible (%h)"
          name p);
  check_below name thr (p, f) got

let prescreen_is_sound ~share =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "pre-screen rejects only rejected probes (share=%b)"
         share)
    QCheck.(pair (int_bound 100_000) (int_range 5 25))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let salt = if share then 1_000_000 else 0 in
      let rng = Support.Rng.create (seed + salt + 13_000_000) in
      let g = random_graph rng n in
      let kind = [| Single; Dual; Memory_tight; Dma_limited |].(seed mod 4) in
      let platform = screen_platform rng kind g in
      let ev =
        E.create ~options:(options_of ~share) platform g
          (if Support.Rng.int rng 4 = 0 then random_mapping rng platform g
           else random_feasible ~rng platform g)
      in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      let thresholds current p =
        [ p; p -. 1e-12; p +. 1e-12; Float.succ p; current -. 1e-12 ]
      in
      for _ = 1 to 4 do
        let current = E.period ev in
        for _ = 1 to 8 do
          let k = Support.Rng.int rng nk in
          (* One move in four stays on its PE. *)
          let pe =
            if Support.Rng.int rng 4 = 0 then E.pe_of ev k
            else Support.Rng.int rng npes
          in
          let ((p, _) as exact) = E.probe_move ev ~task:k ~pe in
          List.iter
            (fun thr ->
              check_verdict "move" thr exact
                (V.prescreen_move ev ~task:k ~pe ~threshold:thr)
                (E.probe_move_below ev ~task:k ~pe ~threshold:thr))
            (thresholds current p);
          (* Half the time, a partner on the same PE if there is one. *)
          let same =
            List.filter
              (fun j -> j <> k && E.pe_of ev j = E.pe_of ev k)
              (List.init nk Fun.id)
          in
          let k2 =
            match same with
            | j :: _ when Support.Rng.int rng 2 = 0 -> j
            | _ -> Support.Rng.int rng nk
          in
          if k2 <> k then begin
            let ((p, _) as exact) = E.probe_swap ev k k2 in
            List.iter
              (fun thr ->
                check_verdict "swap" thr exact
                  (V.prescreen_swap ev k k2 ~threshold:thr)
                  (E.probe_swap_below ev k k2 ~threshold:thr))
              (thresholds current p)
          end
        done;
        let back =
          move ev ~task:(Support.Rng.int rng nk) ~pe:(Support.Rng.int rng npes)
        in
        if (not (E.feasible ev)) && Support.Rng.int rng 4 > 0 then apply ev back
      done;
      true)

let test_both_checks_fire () =
  let pass = verdict_tally.(0)
  and compute = verdict_tally.(1)
  and memory = verdict_tally.(2) in
  if compute < 100 || memory < 100 || pass < 100 then
    Alcotest.failf
      "pre-screen verdicts: %d pass, %d compute, %d memory (want >= 100 each)"
      pass compute memory

(* A probe settled without the exact sweep — by the pre-screen or by the
   screen — allocates nothing: the screen's scratch lives in the engine
   and no float is boxed on the way. The probes are the moves and swaps
   of a local optimum, where nearly everything is rejected; the few that
   reach the sweep are left out of the measured loops. Each group is
   measured on its own: screen rejections, and pre-screen rejections on
   the compute row and on the memory row. *)
let test_screen_allocates_nothing () =
  let platform = P.qs22 ~n_spe:8 () in
  let g = random_graph (Support.Rng.create 78) 24 in
  let m =
    Cellsched.Heuristics.local_search platform g
      (Cellsched.Heuristics.greedy_mem platform g)
  in
  let ev = E.create platform g m in
  let threshold = E.period ev -. 1e-12 in
  let nk = G.n_tasks g and npes = P.n_pes platform in
  let probe = function
    | Move (k, pe) -> E.probe_move_below ev ~task:k ~pe ~threshold
    | Swap (k1, k2) -> E.probe_swap_below ev k1 k2 ~threshold
  in
  let all =
    List.concat
      [
        List.concat_map
          (fun k -> List.init npes (fun pe -> Move (k, pe)))
          (List.init nk Fun.id);
        List.concat_map
          (fun k1 ->
            List.filter_map
              (fun k2 -> if k1 < k2 then Some (Swap (k1, k2)) else None)
              (List.init nk Fun.id))
          (List.init nk Fun.id);
      ]
  in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let groups = Array.make 3 [] in
  List.iter
    (fun pr ->
      let x0 = Obs.Metrics.Counter.value c_exact in
      ignore (probe pr);
      (* The engine counts in its own fields until published. *)
      E.publish ev;
      if Obs.Metrics.Counter.value c_exact = x0 then begin
        let v =
          match pr with
          | Move (k, pe) -> V.prescreen_move ev ~task:k ~pe ~threshold
          | Swap (k1, k2) -> V.prescreen_swap ev k1 k2 ~threshold
        in
        let i = verdict_index v in
        groups.(i) <- pr :: groups.(i)
      end)
    all;
  Obs.Metrics.set_enabled was;
  let total = List.length all in
  let settled = Array.fold_left (fun acc l -> acc + List.length l) 0 groups in
  if settled < total / 2 then
    Alcotest.failf "only %d of %d probes settled without the sweep" settled total;
  List.iteri
    (fun i name ->
      let probes = Array.of_list groups.(i) in
      let n = Array.length probes in
      if n < 10 then Alcotest.failf "only %d %s" n name;
      let rejected = ref 0 in
      let run () =
        for _ = 1 to 20 do
          for j = 0 to n - 1 do
            if probe probes.(j) = infinity then incr rejected
          done
        done
      in
      run ();
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      run ();
      let w2 = Gc.minor_words () in
      Alcotest.(check int) ("every probe rejected: " ^ name) (40 * n) !rejected;
      Alcotest.(check (float 0.)) ("minor words allocated by " ^ name)
        (w1 -. w0) (w2 -. w1))
    [
      "screen rejections";
      "pre-screen compute rejections";
      "pre-screen memory rejections";
    ]

(* Swapping a task with itself used to detach it twice: the engine lost
   the task before raising. Every swap entry point now refuses first. *)
let test_same_task_swap () =
  let platform = P.qs22 ~n_spe:4 () in
  let g = random_graph (Support.Rng.create 77) 10 in
  let m = Cellsched.Heuristics.greedy_mem platform g in
  let ev = E.create platform g m in
  let before = E.loads ev in
  let refuses name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted a same-task swap" name
  in
  refuses "apply_swap" (fun () -> E.apply_swap ev 3 3);
  refuses "probe_swap" (fun () -> ignore (E.probe_swap ev 3 3));
  refuses "probe_swap_below" (fun () ->
      ignore (E.probe_swap_below ev 3 3 ~threshold:infinity));
  Alcotest.(check int) "all tasks assigned" (G.n_tasks g) (E.n_assigned ev);
  Alcotest.(check int) "task 3 kept its PE" (Cellsched.Mapping.pe m 3)
    (E.pe_of ev 3);
  check_loads_equal (E.loads ev) before;
  Alcotest.(check bool) "same mapping" true
    (Cellsched.Mapping.to_array (E.mapping ev) = Cellsched.Mapping.to_array m)

(* --- the heuristics' to-PPE DMA blind spot -------------------------------

   One SPE, a tight to-PPE DMA queue (2 slots), and a fan-out source S
   whose consumers carry buffers too large for the local store. The
   consumers are forced onto the PPE; if S stays on the SPE it needs one
   to-PPE slot per consumer (4 > 2). The old incremental bookkeeping
   documented this overflow as a known blind spot; the engine-backed
   heuristics must repair it (move S to the PPE) before returning. *)

let blind_spot_graph () =
  let mk ?(read = 0.) ?(write = 0.) name =
    Streaming.Task.make ~name ~w_ppe:1e-3 ~w_spe:1e-3 ~read_bytes:read
      ~write_bytes:write ()
  in
  let tasks =
    Array.init 9 (fun i ->
        if i = 0 then mk "S"
        else if i <= 4 then mk (Printf.sprintf "C%d" i)
        else mk (Printf.sprintf "Z%d" (i - 4)))
  in
  let small = 1024. and huge = 100_000. in
  let edges =
    List.init 4 (fun i -> (0, i + 1, small))
    @ List.init 4 (fun i -> (i + 1, i + 5, huge))
  in
  G.of_tasks tasks edges

let test_no_dma_to_ppe_violation () =
  let platform =
    P.make ~n_ppe:1 ~n_spe:1 ~max_dma_to_ppe:2 ~local_store:100_000
      ~code_size:0 ()
  in
  let g = blind_spot_graph () in
  let has_dma_to_ppe m =
    List.exists
      (function SS.Dma_to_ppe _ -> true | _ -> false)
      (SS.violations platform g m)
  in
  let strategies =
    [
      ("greedy-mem", Cellsched.Heuristics.greedy_mem);
      ("greedy-cpu", Cellsched.Heuristics.greedy_cpu);
      ("density-pack", Cellsched.Heuristics.density_pack);
      ("lp-round", Cellsched.Heuristics.lp_rounding ~improve:false);
    ]
  in
  List.iter
    (fun (name, strategy) ->
      let m = strategy platform g in
      Alcotest.(check bool)
        (name ^ " returns no to-PPE DMA violation")
        false (has_dma_to_ppe m))
    strategies

(* The repair is not vacuous: on this instance the unrepaired greedy
   choice (S on the SPE, consumers forced to the PPE) does overflow. *)
let test_blind_spot_is_real () =
  let platform =
    P.make ~n_ppe:1 ~n_spe:1 ~max_dma_to_ppe:2 ~local_store:100_000
      ~code_size:0 ()
  in
  let g = blind_spot_graph () in
  let unrepaired =
    Cellsched.Mapping.make platform g [| 1; 0; 0; 0; 0; 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "naive placement overflows" true
    (List.exists
       (function SS.Dma_to_ppe _ -> true | _ -> false)
       (SS.violations platform g unrepaired))

(* --- partial assignments match the branch-and-bound expectations -------- *)

let test_partial_assignment_consistency () =
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  let rng = Support.Rng.create 12345 in
  let g = random_graph rng 8 in
  let ev = E.create_empty platform g in
  Alcotest.(check int) "nothing assigned" 0 (E.n_assigned ev);
  Alcotest.(check (float 0.)) "empty period" 0. (E.period ev);
  (* Assign everything in topological order; the complete state coincides
     with scratch. *)
  let order = G.topological_order g in
  Array.iter
    (fun k ->
      E.save_rows ev;
      E.assign ev ~task:k ~pe:(k mod P.n_pes platform))
    order;
  let m = E.mapping ev in
  check_loads_equal (E.loads ev) (SS.loads platform g m);
  (* Retract the last half, last first, and reassign elsewhere: still
     consistent. *)
  let nk = G.n_tasks g in
  for i = nk - 1 downto nk / 2 do
    E.retract ev ~task:order.(i)
  done;
  Alcotest.(check int) "half assigned" (nk / 2) (E.n_assigned ev);
  for i = nk / 2 to nk - 1 do
    let k = order.(i) in
    E.assign ev ~task:k ~pe:((k + 1) mod P.n_pes platform)
  done;
  let m' = E.mapping ev in
  check_loads_equal (E.loads ev) (SS.loads platform g m');
  (* A move discards the saved rows: once the first task
     has moved, the rows saved on top of its old PE describe no prefix
     of the state, even after a later save deeper down. *)
  let ev = E.create_empty platform g in
  let a = order.(0) and b = order.(1) in
  E.save_rows ev;
  E.assign ev ~task:a ~pe:0;
  E.save_rows ev;
  E.assign ev ~task:b ~pe:0;
  E.apply_move ev ~task:a ~pe:1;
  E.save_rows ev;
  Alcotest.check_raises "retract after a move"
    (Invalid_argument "Eval.retract: no rows saved before this assignment")
    (fun () -> E.retract ev ~task:b)

(* --- backtracking ----------------------------------------------------------

   The branch-and-bound walk: [save_rows] at a node, [assign] a child,
   [retract] it last-in first-out, several children per saved node.
   Property (i): after every step the rows — read through [E.rows]
   before anything re-validates them — and the period are bitwise those
   of a fresh engine given the same partial assignment. Property (ii):
   whenever [assign_exceeds] rejects a child, the exact rule prunes it
   ([E.period] after the assign [>= at_least] or [> above]); and when
   the child's new compute row clearly passes [at_least], it rejects, so
   the check is not vacuous. Random DAGs on QS22 with 1-8 SPEs; a
   quarter of the cases on both Cells of a QS22, so that the link rows
   are saved and restored too. *)

let backtrack_setup ~share (seed, n) =
  let n = max 5 n and seed = abs seed in
  let salt = if share then 1_000_000 else 0 in
  let rng = Support.Rng.create (seed + salt + 17_000_000) in
  let g = random_graph rng n in
  let n_spe = 1 + Support.Rng.int rng 8 in
  let platform =
    if Support.Rng.int rng 4 = 0 then P.qs22_dual ~n_spe:(2 * n_spe) ()
    else P.qs22 ~n_spe ()
  in
  let options = options_of ~share in
  (rng, g, platform, options, E.create_empty ~options platform g)

(* A fresh engine on [ev]'s partial assignment. *)
let fresh options ev =
  let g = E.graph ev in
  let f = E.create_empty ~options (E.platform ev) g in
  for k = 0 to G.n_tasks g - 1 do
    if E.pe_of ev k >= 0 then E.assign f ~task:k ~pe:(E.pe_of ev k)
  done;
  f

(* One step of a random walk: descend (saving the node's rows unless a
   sibling already did) or backtrack the last assignment; [true] when it
   backtracked. *)
let walk_step rng ev stack saved =
  let g = E.graph ev in
  let nk = G.n_tasks g and npes = P.n_pes (E.platform ev) in
  let d = E.n_assigned ev in
  if d < nk && (Stack.is_empty stack || Support.Rng.int rng 5 < 3) then begin
    if not saved.(d) then begin
      E.save_rows ev;
      saved.(d) <- true
    end;
    let free = List.filter (fun k -> E.pe_of ev k < 0) (List.init nk Fun.id) in
    let k = List.nth free (Support.Rng.int rng (List.length free)) in
    E.assign ev ~task:k ~pe:(Support.Rng.int rng npes);
    saved.(d + 1) <- false;
    Stack.push k stack;
    false
  end
  else begin
    E.retract ev ~task:(Stack.pop stack);
    true
  end

let backtrack_is_exact ~share =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "save/assign/retract match a fresh engine (share=%b)"
         share)
    QCheck.(pair (int_bound 100_000) (int_range 5 25))
    (fun case ->
      let rng, g, _, options, ev = backtrack_setup ~share case in
      let stack = Stack.create () in
      let saved = Array.make (G.n_tasks g + 1) false in
      for _ = 1 to 4 * G.n_tasks g do
        let retracted = walk_step rng ev stack saved in
        let f = fresh options ev in
        let want = E.loads f in
        (* Right after a retract the rows are current without a sweep. *)
        if retracted then check_loads_equal (E.rows ev) want;
        check_loads_equal (E.loads ev) want;
        if Int64.bits_of_float (E.period ev) <> Int64.bits_of_float (E.period f)
        then QCheck.Test.fail_reportf "period differs"
      done;
      true)

let assign_exceeds_is_sound ~share =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "assign_exceeds rejects only pruned children (share=%b)" share)
    QCheck.(pair (int_bound 100_000) (int_range 5 25))
    (fun case ->
      let rng, g, platform, _, ev = backtrack_setup ~share case in
      let stack = Stack.create () in
      let saved = Array.make (G.n_tasks g + 1) false in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      for _ = 1 to 2 * nk do
        ignore (walk_step rng ev stack saved);
        let d = E.n_assigned ev in
        if d < nk then begin
          E.save_rows ev;
          saved.(d) <- true;
          for k = 0 to nk - 1 do
            if E.pe_of ev k < 0 then
              for pe = 0 to npes - 1 do
                E.assign ev ~task:k ~pe;
                let p = E.period ev and c = (E.rows ev).SS.compute.(pe) in
                E.retract ev ~task:k;
                List.iter
                  (fun (at_least, above) ->
                    let rejects =
                      E.assign_exceeds ev ~task:k ~pe ~at_least ~above
                    in
                    if rejects && not (p >= at_least || p > above) then
                      QCheck.Test.fail_reportf
                        "task %d on PE %d rejected at (%h, %h), period %h" k pe
                        at_least above p;
                    if (not rejects) && c > at_least *. (1. +. 1e-9) then
                      QCheck.Test.fail_reportf
                        "task %d on PE %d passed at %h, compute row %h" k pe
                        at_least c)
                  [
                    (p, infinity);
                    (Float.pred p, infinity);
                    (Float.succ p, infinity);
                    (c, infinity);
                    (Float.pred c, infinity);
                    (0.99 *. c, infinity);
                    (infinity, p);
                    (infinity, Float.pred p);
                    (infinity, Float.pred c);
                    (infinity, 0.99 *. c);
                  ]
              done
          done
        end
      done;
      true)

(* --- the bottleneck-directed neighbourhood ---------------------------------

   [Heuristics.local_search] probes only the moves and swaps that can
   change a term of the bottleneck row (the rule and why it is exact are
   in heuristics.mli). The oracle is the loop that probed every
   candidate, kept verbatim here (metrics counters left out) with one
   hook: [check] sees every probe, its answer and the state it was made
   on. Two properties, on six platform kinds:
   - soundness: at every state the search visits, each candidate the
     hot-set rule would skip answers [infinity];
   - equivalence: the filtered search returns the oracle's mapping, and
     its probes plus its skipped candidates are the oracle's probes.
   A tally of the starting bottleneck kinds makes sure every branch of
   the rule (compute, interface in, interface out, link) is exercised. *)

let c_skipped = Obs.Metrics.counter "search_ls_probes_skipped_total"

let reference_local_search ?(check = fun _ _ _ _ -> ()) platform g mapping =
  let mutations = ref 0 in
  let max_passes = 50 in
  let ev = E.create platform g mapping in
  let n = P.n_pes platform in
  let threshold = ref (E.period ev -. 1e-12) in
  let accept t = threshold := t -. 1e-12 in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for k = 0 to G.n_tasks g - 1 do
      let home = E.pe_of ev k in
      let best_move = ref None in
      for pe = 0 to n - 1 do
        if pe <> home then begin
          let t = E.probe_move_below ev ~task:k ~pe ~threshold:!threshold in
          check ev !mutations (Move (k, pe)) t;
          if t < !threshold then begin
            accept t;
            best_move := Some pe
          end
        end
      done;
      match !best_move with
      | Some pe ->
          improved := true;
          incr mutations;
          E.apply_move ev ~task:k ~pe
      | None -> ()
    done;
    for k1 = 0 to G.n_tasks g - 1 do
      for k2 = k1 + 1 to G.n_tasks g - 1 do
        if E.pe_of ev k1 <> E.pe_of ev k2 then begin
          let t = E.probe_swap_below ev k1 k2 ~threshold:!threshold in
          check ev !mutations (Swap (k1, k2)) t;
          if t < !threshold then begin
            accept t;
            improved := true;
            incr mutations;
            E.apply_swap ev k1 k2
          end
        end
      done
    done
  done;
  E.publish ev;
  E.mapping ev

type ls_kind =
  | Qs22
  | Slow_interfaces
  | Slow_interfaces_few_spes
  | Dual_slow_link
  | Dual_slow_all
  | Memory_tight_ls

let ls_kind_name = function
  | Qs22 -> "QS22 8 SPEs"
  | Slow_interfaces -> "slow interfaces"
  | Slow_interfaces_few_spes -> "slow interfaces, 3 SPEs"
  | Dual_slow_link -> "dual Cell, slow link"
  | Dual_slow_all -> "dual Cell, slow interfaces and link"
  | Memory_tight_ls -> "memory-tight"

let ls_platform rng kind g =
  let slow () = 2e6 +. Support.Rng.float rng 1.5e7 in
  match kind with
  | Qs22 -> P.qs22 ~n_spe:8 ()
  | Slow_interfaces -> P.make ~n_ppe:1 ~n_spe:6 ~bw:(slow ()) ()
  | Slow_interfaces_few_spes -> P.make ~n_ppe:1 ~n_spe:3 ~bw:(slow ()) ()
  | Dual_slow_link ->
      P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2
        ~inter_cell_bw:(5e5 +. Support.Rng.float rng 5e6)
        ()
  | Dual_slow_all ->
      P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~bw:(slow ())
        ~inter_cell_bw:(1e6 +. Support.Rng.float rng 1e7)
        ()
  | Memory_tight_ls ->
      let buff = Array.fold_left ( +. ) 0. (G.flat g).G.buffer in
      let share = (1. /. 6.) +. Support.Rng.float rng (1. /. 3.) in
      P.make ~n_ppe:1 ~n_spe:4 ~code_size:0
        ~local_store:(max 1 (int_of_float (buff *. share)))
        ()

(* Runs per starting bottleneck kind: compute, interface in, interface
   out, link. *)
let ls_tally = Array.make 4 0
let ls_runs = ref 0

let resource_of_row code =
  let i = code / 5 in
  match code mod 5 with
  | 0 -> SS.Compute i
  | 1 -> SS.Interface_in i
  | 2 -> SS.Interface_out i
  | 3 -> SS.Link_out i
  | _ -> SS.Link_in i

let hot_set_case kind (seed, n) =
  let n = max 5 n and seed = abs seed in
  let rng = Support.Rng.create (seed + 11_000_000) in
  let g = random_graph rng n in
  let platform = ls_platform rng kind g in
  let start =
    match Support.Rng.int rng 3 with
    | 0 -> Cellsched.Heuristics.greedy_mem platform g
    | 1 -> Cellsched.Heuristics.greedy_cpu platform g
    | _ -> random_feasible ~rng platform g
  in
  let nk = G.n_tasks g in
  let hot = Array.make nk false in
  let beta = ref (-1) and seen = ref (-1) in
  (* The hot set of the state [ev] is in, refreshed when the mutation
     count shows a new state. *)
  let refresh ev mutations =
    if mutations <> !seen then begin
      seen := mutations;
      beta := Cellsched.Heuristics.For_testing.refresh_hot ev hot;
      let code = E.bottleneck_row ev in
      if resource_of_row code <> fst (E.bottleneck ev) then
        QCheck.Test.fail_reportf "bottleneck_row %d is not bottleneck" code
    end
  in
  let check ev mutations probe t =
    refresh ev mutations;
    let skipped =
      match probe with
      | Move (k, pe) -> (not hot.(k)) && pe <> !beta
      | Swap (k1, k2) -> (not hot.(k1)) && not hot.(k2)
    in
    if skipped && t <> infinity then
      match probe with
      | Move (k, pe) ->
          QCheck.Test.fail_reportf "skipped move %d -> %d answers %h" k pe t
      | Swap (k1, k2) ->
          QCheck.Test.fail_reportf "skipped swap %d <-> %d answers %h" k1 k2 t
  in
  let code = E.bottleneck_row (E.create platform g start) in
  let kind_index = min 3 (code mod 5) in
  ls_tally.(kind_index) <- ls_tally.(kind_index) + 1;
  incr ls_runs;
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let p0 = Obs.Metrics.Counter.value c_probes in
  let want = reference_local_search ~check platform g start in
  let p1 = Obs.Metrics.Counter.value c_probes
  and s1 = Obs.Metrics.Counter.value c_skipped in
  let got = Cellsched.Heuristics.local_search platform g start in
  let p2 = Obs.Metrics.Counter.value c_probes
  and s2 = Obs.Metrics.Counter.value c_skipped in
  Obs.Metrics.set_enabled was;
  if Cellsched.Mapping.to_array got <> Cellsched.Mapping.to_array want then
    QCheck.Test.fail_reportf "filtered local search took another path";
  if p2 - p1 + (s2 - s1) <> p1 - p0 then
    QCheck.Test.fail_reportf "%d probes + %d skipped <> %d probes unfiltered"
      (p2 - p1) (s2 - s1) (p1 - p0);
  true

let hot_set_is_exact kind =
  QCheck.Test.make ~count:350
    ~name:("skipped probes answer infinity, same mapping: " ^ ls_kind_name kind)
    QCheck.(pair (int_bound 100_000) (int_range 5 18))
    (hot_set_case kind)

let test_every_bottleneck_kind () =
  Alcotest.(check bool) "at least 2000 local searches" true (!ls_runs >= 2000);
  List.iteri
    (fun i name ->
      if ls_tally.(i) < 20 then
        Alcotest.failf "%d of %d runs start at a %s bottleneck (want >= 20)"
          ls_tally.(i) !ls_runs name)
    [ "compute"; "interface-in"; "interface-out"; "link" ]

(* Words allocated by [f ()], minus the measuring overhead. *)
let allocated f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  (w2 -. w1) -. (w1 -. w0)

(* Refreshing the hot set allocates nothing, on each kind of bottleneck
   row. *)
let test_refresh_hot_allocates_nothing () =
  let g = random_graph (Support.Rng.create 79) 20 in
  let platforms =
    [
      ("compute", P.qs22 ~n_spe:8 (), 0);
      ("interface", P.make ~n_ppe:1 ~n_spe:4 ~bw:1e5 (), 1);
      ("link", P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~inter_cell_bw:1e4 (), 3);
    ]
  in
  List.iter
    (fun (name, platform, want_kind) ->
      let m =
        Cellsched.Mapping.make platform g
          (Array.init (G.n_tasks g) (fun k -> k mod P.n_pes platform))
      in
      let ev = E.create platform g m in
      let kind = min 3 (E.bottleneck_row ev mod 5) in
      if kind <> want_kind && not (want_kind = 1 && kind = 2) then
        Alcotest.failf "%s platform: bottleneck kind %d" name kind;
      let hot = Array.make (G.n_tasks g) false in
      let refresh () =
        for _ = 1 to 100 do
          ignore (Cellsched.Heuristics.For_testing.refresh_hot ev hot)
        done
      in
      refresh ();
      (* Dirty rows too: the refresh revalidates them. *)
      E.apply_move ev ~task:0 ~pe:1;
      Alcotest.(check (float 0.))
        ("minor words of 100 refreshes, " ^ name ^ " row")
        0. (allocated refresh))
    platforms

(* Engines share their graph's flat arrays, buffers and footprints
   included: what [create_empty] allocates beyond the per-task
   assignment does not grow with the graph. On QS22 with 8 SPEs the
   residual is bounded by 306 words (the engine before the flat view,
   OCaml 5.1, measured with this function), plus 21 for the engine's row
   view (a 9-word record), counts and exact-probe answer (fields and a
   2-word float array), plus O(PEs) for the per-PE SPE flags and Cell
   indices. *)
let test_create_empty_words () =
  let platform = P.qs22 ~n_spe:8 () in
  let residual n =
    let g = random_graph (Support.Rng.create (80 + n)) n in
    let engine = allocated (fun () -> ignore (E.create_empty platform g)) in
    engine -. float_of_int (G.n_tasks g + 1)
  in
  let small = residual 8 and large = residual 60 in
  Alcotest.(check (float 0.)) "residual independent of the graph" small large;
  let parent = 306. +. 21. and pes = float_of_int (P.n_pes platform + 1) in
  if small > parent +. (5. *. pes) then
    Alcotest.failf "create_empty residual %.0f words, over %.0f + 5 per PE"
      small parent

(* --- list-based placement walks, kept as the oracle ----------------------

   The constructive heuristics as they were written over the graph's
   edge lists, one [List.filter] of candidate PEs per task: the walks
   now read the flat arrays and the engine's rows, and must place every
   task on the same PE with the same [rng] draws. *)
module Walk_oracle = struct
  let footprint ev k = (G.flat (E.graph ev)).G.footprint.(k)

  let memory_on ev pe =
    E.validate ev;
    (E.rows ev).SS.memory.(pe)

  let compute_on ev pe =
    E.validate ev;
    (E.rows ev).SS.compute.(pe)

  let remote_in_edges ev k pe =
    List.length
      (List.filter
         (fun e ->
           let src = (G.edge (E.graph ev) e).G.src in
           E.pe_of ev src >= 0 && E.pe_of ev src <> pe)
         (G.in_edges (E.graph ev) k))

  let spe_pred_counts ev k =
    List.fold_left
      (fun acc e ->
        let src = (G.edge (E.graph ev) e).G.src in
        let pe = E.pe_of ev src in
        if pe >= 0 && P.is_spe (E.platform ev) pe then
          let cur = try List.assoc pe acc with Not_found -> 0 in
          (pe, cur + 1) :: List.remove_assoc pe acc
        else acc)
      []
      (G.in_edges (E.graph ev) k)

  let can_place ev k pe =
    let platform = E.platform ev in
    if P.is_spe platform pe then begin
      let budget = float_of_int (P.spe_memory_budget platform) in
      memory_on ev pe +. footprint ev k <= budget
      && (E.rows ev).SS.dma_in.(pe) + remote_in_edges ev k pe
         <= platform.P.max_dma_in
    end
    else
      List.for_all
        (fun (spe, count) ->
          (E.rows ev).SS.dma_to_ppe.(spe) + count <= platform.P.max_dma_to_ppe)
        (spe_pred_counts ev k)

  let repair_to_ppe ev =
    let platform = E.platform ev and g = E.graph ev in
    let overflowing () =
      List.find_opt
        (fun spe -> (E.rows ev).SS.dma_to_ppe.(spe) > platform.P.max_dma_to_ppe)
        (P.spes platform)
    in
    let feeds_a_ppe k =
      List.exists
        (fun e ->
          let pe = E.pe_of ev (G.edge g e).G.dst in
          pe >= 0 && P.is_ppe platform pe)
        (G.out_edges g k)
    in
    let rec fix () =
      match overflowing () with
      | None -> ()
      | Some spe ->
          let victim =
            List.find
              (fun k -> E.pe_of ev k = spe && feeds_a_ppe k)
              (List.init (G.n_tasks g) Fun.id)
          in
          E.apply_move ev ~task:victim ~pe:0;
          fix ()
    in
    fix ()

  let greedy_generic ~choose platform g =
    let ev = E.create_empty platform g in
    Array.iter
      (fun k ->
        match choose ev k with
        | Some pe -> E.assign ev ~task:k ~pe
        | None -> E.assign ev ~task:k ~pe:0)
      (G.topological_order g);
    repair_to_ppe ev;
    E.mapping ev

  let greedy_mem platform g =
    let choose ev k =
      match List.filter (can_place ev k) (P.spes platform) with
      | [] -> None
      | first :: rest ->
          Some
            (List.fold_left
               (fun best pe ->
                 if memory_on ev pe < memory_on ev best then pe else best)
               first rest)
    in
    greedy_generic ~choose platform g

  let greedy_cpu platform g =
    let choose ev k =
      let load pe =
        let cls = P.pe_class platform pe in
        let w = Streaming.Task.w (G.task g k) cls in
        let w = if cls = P.PPE then w /. platform.P.ppe_speedup else w in
        compute_on ev pe +. w
      in
      match
        List.filter (can_place ev k) (List.init (P.n_pes platform) Fun.id)
      with
      | [] -> None
      | first :: rest ->
          Some
            (List.fold_left
               (fun best pe -> if load pe < load best then pe else best)
               first rest)
    in
    greedy_generic ~choose platform g

  let density_pack platform g =
    let ev = E.create_empty platform g in
    let nk = G.n_tasks g in
    let w_ppe k = (G.task g k).Streaming.Task.w_ppe /. platform.P.ppe_speedup in
    let density k =
      let mem = footprint ev k in
      if mem <= 0. then infinity else w_ppe k /. mem
    in
    let by_density = Array.init nk Fun.id in
    Array.sort (fun a b -> compare (density b) (density a)) by_density;
    let budget = float_of_int (P.spe_memory_budget platform) in
    let place_spe k =
      let best = ref (-1) in
      List.iter
        (fun pe ->
          if memory_on ev pe +. footprint ev k <= budget then
            match !best with
            | -1 -> best := pe
            | b -> if compute_on ev pe < compute_on ev b then best := pe)
        (P.spes platform);
      !best
    in
    Array.iter
      (fun k ->
        match place_spe k with
        | -1 -> E.assign ev ~task:k ~pe:0
        | pe -> E.assign ev ~task:k ~pe)
      by_density;
    repair_to_ppe ev;
    E.mapping ev

  let random_feasible ~rng platform g =
    let ev = E.create_empty platform g in
    let n = P.n_pes platform in
    Array.iter
      (fun k ->
        match List.filter (can_place ev k) (List.init n Fun.id) with
        | [] -> E.assign ev ~task:k ~pe:0
        | pes ->
            let pick = Support.Rng.int rng (List.length pes) in
            E.assign ev ~task:k ~pe:(List.nth pes pick))
      (G.topological_order g);
    repair_to_ppe ev;
    E.mapping ev
end

(* Random DAGs on six platform kinds: one and two Cells, QS22, a local
   store holding a sixth to a half of the graph's buffers, and two with
   one- and two-slot DMA queues, where the to-PPE repair runs. *)
let walk_platform rng g kind =
  match kind with
  | 0 -> P.make ~n_ppe:1 ~n_spe:4 ()
  | 1 -> P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~ppe_speedup:1.5 ()
  | 2 -> P.qs22 ~n_spe:8 ()
  | 3 ->
      let buff = Array.fold_left ( +. ) 0. (G.flat g).G.buffer in
      let share = (1. /. 6.) +. Support.Rng.float rng (1. /. 3.) in
      P.make ~n_ppe:1 ~n_spe:4 ~code_size:0
        ~local_store:(max 1 (int_of_float (buff *. share)))
        ()
  | 4 -> P.make ~n_ppe:1 ~n_spe:6 ~max_dma_in:2 ~max_dma_to_ppe:1 ()
  | _ -> P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ~max_dma_in:1 ~max_dma_to_ppe:1 ()

let walks_match_oracle =
  QCheck.Test.make ~count:300
    ~name:"placement walks equal the list-based oracle"
    QCheck.(pair (int_bound 100_000) (int_range 5 40))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let rng = Support.Rng.create (seed + 12_000_000) in
      let g = random_graph rng n in
      let platform = walk_platform rng g (seed mod 6) in
      let same name got want =
        if Cellsched.Mapping.to_array got <> Cellsched.Mapping.to_array want
        then QCheck.Test.fail_reportf "%s: mappings differ" name
      in
      let module H = Cellsched.Heuristics in
      same "greedy_mem" (H.greedy_mem platform g)
        (Walk_oracle.greedy_mem platform g);
      same "greedy_cpu" (H.greedy_cpu platform g)
        (Walk_oracle.greedy_cpu platform g);
      same "density_pack" (H.density_pack platform g)
        (Walk_oracle.density_pack platform g);
      let r1 = Support.Rng.create seed and r2 = Support.Rng.create seed in
      same "random_feasible" (random_feasible ~rng:r1 platform g)
        (Walk_oracle.random_feasible ~rng:r2 platform g);
      (* The same number of draws: the streams stay in step. *)
      Support.Rng.int64 r1 = Support.Rng.int64 r2)

(* --- allocation bounds ------------------------------------------------------ *)

(* Branch-and-bound nodes allocate nothing: a whole solve, set-up and
   subtree hand-backs included, stays under one word per node on a tree
   of 20,000 nodes. *)
let test_bb_words_per_node () =
  let g = random_graph (Support.Rng.create 1026) 26 in
  let platform = P.qs22 ~n_spe:4 () in
  let incumbent = Cellsched.Heuristics.greedy_mem platform g in
  let options =
    {
      Cellsched.Mapping_search.default_options with
      max_nodes = 20_000;
      time_limit = 3600.;
    }
  in
  let nodes = ref 0 in
  let words =
    allocated (fun () ->
        let r = Cellsched.Mapping_search.solve ~options ~incumbent platform g in
        nodes := r.Cellsched.Mapping_search.nodes)
  in
  if !nodes < 500 then Alcotest.failf "only %d nodes" !nodes;
  if words >= float_of_int !nodes then
    Alcotest.failf "%.0f words for %d nodes (%.2f per node)" words !nodes
      (words /. float_of_int !nodes)

(* A constructive heuristic allocates its engine, its result and a few
   words per task (the seeded walk's draws), never a list per task or a
   float per candidate: at most c * (tasks + PEs) words, c = 40, on
   graphs of 10 to 160 tasks and platforms of 5 to 18 PEs. Measured on
   OCaml 5.1, the walks take 5 to 30 words per task or PE here, the
   list walks of [Walk_oracle] 48 to 252. *)
let test_walk_words_bound () =
  List.iter
    (fun n ->
      let g = random_graph (Support.Rng.create (90 + n)) n in
      List.iter
        (fun platform ->
          let bound =
            40. *. float_of_int (G.n_tasks g + P.n_pes platform)
          in
          let check name f =
            let words = allocated (fun () -> ignore (f ())) in
            if words > bound then
              Alcotest.failf "%s: %.0f words on %d tasks x %d PEs (bound %.0f)"
                name words (G.n_tasks g) (P.n_pes platform) bound
          in
          let module H = Cellsched.Heuristics in
          check "greedy_mem" (fun () -> H.greedy_mem platform g);
          check "greedy_cpu" (fun () -> H.greedy_cpu platform g);
          check "density_pack" (fun () -> H.density_pack platform g);
          check "random_feasible" (fun () ->
              random_feasible ~rng:(Support.Rng.create n) platform g))
        [ P.make ~n_ppe:1 ~n_spe:4 (); P.qs22 ~n_spe:8 (); P.qs22_dual () ])
    [ 10; 40; 160 ]

(* --- portfolio golden digest ----------------------------------------------

   The cold-solve shape: DagGen graphs of 12-30 tasks x QS22 at 4 and 8
   SPEs x three seeds, each through [Portfolio.solve]. Every candidate's
   mapping and [%h] period is hashed; a single changed local-search
   decision anywhere changes the digest. The pinned value was recorded
   before local search screened its probes or skipped the candidates
   that miss the bottleneck row, so it checks that both are invisible
   end to end. *)
let portfolio_golden_digest = "19626b793f2b7921a4ea25b82d13a8d5"

let portfolio_corpus () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun k ->
          let n = 12 + (2 * k) in
          let g =
            random_graph (Support.Rng.create ((1_000 * seed) + k)) n
          in
          List.map (fun spes -> (g, P.qs22 ~n_spe:spes ())) [ 4; 8 ])
        (List.init 10 Fun.id))
    [ 1; 2; 3 ]

let portfolio_rendering () =
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i (g, platform) ->
      let r = Cellsched.Portfolio.solve platform g in
      List.iter
        (fun (c : Cellsched.Portfolio.candidate) ->
          Printf.bprintf buf "%d %s %h %b" i c.name c.period c.feasible;
          Array.iter (Printf.bprintf buf " %d")
            (Cellsched.Mapping.to_array c.mapping);
          Buffer.add_char buf '\n')
        r.Cellsched.Portfolio.candidates)
    (portfolio_corpus ());
  Buffer.contents buf

(* One pass over the corpus, counting probes and exact sweeps. *)
let portfolio_run =
  lazy
    (let was = Obs.Metrics.enabled () in
     Obs.Metrics.set_enabled true;
     let p0 = Obs.Metrics.Counter.value c_probes
     and x0 = Obs.Metrics.Counter.value c_exact in
     let rendering = portfolio_rendering () in
     let probes = Obs.Metrics.Counter.value c_probes - p0
     and exact = Obs.Metrics.Counter.value c_exact - x0 in
     Obs.Metrics.set_enabled was;
     (rendering, probes, exact))

let test_portfolio_digest () =
  let rendering, _, _ = Lazy.force portfolio_run in
  Alcotest.(check string)
    "digest of every portfolio candidate" portfolio_golden_digest
    (Digest.to_hex (Digest.string rendering))

(* The screen is what makes local search cheap: on the corpus nearly
   every probe is settled without the exact sweep. *)
let test_exact_sweep_share () =
  let _, probes, exact = Lazy.force portfolio_run in
  if probes = 0 || float_of_int exact > 0.05 *. float_of_int probes then
    Alcotest.failf "%d exact sweeps for %d probes (over 5%%)" exact probes

(* --- branch-and-bound golden digest ------------------------------------------

   [Mapping_search.solve] on DagGen graphs of 12-30 tasks x QS22 at 4 and
   8 SPEs x buffer sharing off and on, at a 5% gap and 2,000 nodes, plus
   one dual-Cell run at gap 0: the [%h] period and lower bound, the node count,
   the within-gap flag and the mapping of each. The node count makes the
   digest sensitive to the tree itself (every child's placement check,
   candidate order and prune), not only to the answer. Recorded before
   node expansion dropped its per-node lists and closures. *)
let bb_golden_digest = "49d678c23e57348d1b6f017c55bd2db2"

let bb_rendering () =
  let buf = Buffer.create 16384 in
  let run ?(rel_gap = 0.05) i ~share platform g =
    let options =
      {
        Cellsched.Mapping_search.default_options with
        rel_gap;
        max_nodes = 2_000;
        share_colocated_buffers = share;
      }
    in
    let r = Cellsched.Mapping_search.solve ~options platform g in
    Printf.bprintf buf "%d %b %h %h %d %b" i share r.period r.lower_bound
      r.nodes r.optimal_within_gap;
    Array.iter (Printf.bprintf buf " %d") (Cellsched.Mapping.to_array r.mapping);
    Buffer.add_char buf '\n'
  in
  List.iteri
    (fun i (g, platform) ->
      run i ~share:false platform g;
      run i ~share:true platform g)
    (List.filteri (fun i _ -> i < 20) (portfolio_corpus ()));
  run 20 ~rel_gap:0. ~share:false (P.qs22_dual ())
    (random_graph (Support.Rng.create 4_242) 24);
  Buffer.contents buf

(* Node expansion sorts its candidate PEs by key with an insertion sort
   over per-depth buffers; it must give [List.sort]'s permutation (a
   stable merge sort), ties included. Keys come from a pool of five
   values, so most lists hold ties; NaN and both zeros are in it. *)
let candidate_order_is_list_sort =
  QCheck.Test.make ~count:500 ~name:"candidate order equals List.sort's"
    QCheck.(triple (int_bound 100_000) (int_range 0 12) (int_range 0 5))
    (fun (seed, n, lo) ->
      let n = max 0 n and lo = max 0 lo in
      let rng = Support.Rng.create seed in
      let pool = [| 0.; -0.; 1.5; Float.nan; 0x1.8p-3 |] in
      let key = Array.init n (fun _ -> pool.(Support.Rng.int rng 5)) in
      let cands = Array.make (lo + n + 2) (-1)
      and keys = Array.make (lo + n + 2) 0. in
      for i = 0 to n - 1 do
        cands.(lo + i) <- i;
        keys.(lo + i) <- key.(i)
      done;
      Cellsched.Mapping_search.For_testing.sort_candidates cands keys lo n;
      let want =
        List.sort (fun a b -> compare key.(a) key.(b)) (List.init n Fun.id)
      in
      Array.to_list (Array.sub cands lo n) = want
      && Array.for_all2
           (fun c k -> Int64.bits_of_float k = Int64.bits_of_float key.(c))
           (Array.sub cands lo n) (Array.sub keys lo n))

let test_bb_digest () =
  Alcotest.(check string)
    "digest of every branch-and-bound result" bb_golden_digest
    (Digest.to_hex (Digest.string (bb_rendering ())))

(* --- pinned counter totals --------------------------------------------------

   Engines and local search count in their own fields and publish once
   per solve. Over the portfolio corpus, then the first 20 instances'
   branch and bound at 2,000 nodes with buffer sharing off and on, every
   probe, move, swap, local-search, node, prune, incumbent, subtree and
   candidate count equals what the shared per-event counters recorded
   before (pinned below from that build). The row-sweep counts are left
   out: one engine per portfolio entrant sweeps less. *)
let pinned_counts =
  [
    ("search_eval_probes_total", 400_691);
    ("search_eval_exact_probes_total", 11_082);
    ("search_eval_moves_total", 4_427);
    ("search_eval_swaps_total", 6_303);
    ("search_ls_passes_total", 2_998);
    ("search_ls_moves_accepted_total", 4_427);
    ("search_ls_swaps_accepted_total", 6_303);
    ("search_ls_probes_skipped_total", 529_539);
    ("search_bb_nodes_total", 18_204);
    ("search_bb_pruned_total", 52_137);
    ("search_bb_incumbents_total", 47);
    ("search_bb_subtrees_total", 19);
    ("portfolio_candidates_total", 900);
  ]

let test_counter_totals () =
  let counters =
    List.map (fun (name, _) -> Obs.Metrics.counter name) pinned_counts
  in
  let values () = List.map Obs.Metrics.Counter.value counters in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = values () in
  let corpus = portfolio_corpus () in
  List.iter
    (fun (g, platform) -> ignore (Cellsched.Portfolio.solve platform g))
    corpus;
  List.iteri
    (fun i (g, platform) ->
      if i < 20 then
        List.iter
          (fun share ->
            let options =
              {
                Cellsched.Mapping_search.default_options with
                max_nodes = 2_000;
                share_colocated_buffers = share;
              }
            in
            ignore (Cellsched.Mapping_search.solve ~options platform g))
          [ false; true ])
    corpus;
  let after = values () in
  Obs.Metrics.set_enabled was;
  List.iteri
    (fun i (name, want) ->
      Alcotest.(check int) name want (List.nth after i - List.nth before i))
    pinned_counts

(* --- switching options ------------------------------------------------------

   [set_options] marks every row stale and drops the saved row blocks:
   whatever the engine went through before a switch — a partial walk of
   saves, assigns and retracts, exact and screened probes, moves — every
   accessor then answers bitwise like a fresh engine built with the new
   options on the same assignment. Switches alternate buffer sharing off
   and on; one property per kind of the screen's platforms. *)

let check_like_fresh name ev options =
  let f =
    if E.n_assigned ev = G.n_tasks (E.graph ev) then
      E.create ~options (E.platform ev) (E.graph ev) (E.mapping ev)
    else fresh options ev
  in
  check_loads_equal (E.loads ev) (E.loads f);
  if Int64.bits_of_float (E.period ev) <> Int64.bits_of_float (E.period f) then
    QCheck.Test.fail_reportf "%s: period %h, fresh %h" name (E.period ev)
      (E.period f);
  let r, t = E.bottleneck ev and r', t' = E.bottleneck f in
  if r <> r' || Int64.bits_of_float t <> Int64.bits_of_float t' then
    QCheck.Test.fail_reportf "%s: bottleneck differs" name;
  if E.feasible ev <> E.feasible f then
    QCheck.Test.fail_reportf "%s: feasible differs" name;
  if E.violations ev <> E.violations f then
    QCheck.Test.fail_reportf "%s: violations differ" name

let set_options_is_fresh kind =
  QCheck.Test.make ~count:60
    ~name:
      ("set_options = fresh engine, after probes and retracts: "
     ^ platform_kind_name kind)
    QCheck.(pair (int_bound 100_000) (int_range 5 20))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let salt = 1_000_000 * platform_kind_index kind in
      let rng = Support.Rng.create (seed + salt + 19_000_000) in
      let g = random_graph rng n in
      let platform = screen_platform rng kind g in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      let share = ref (Support.Rng.int rng 2 = 0) in
      let options () = { E.share_colocated_buffers = !share } in
      let ev = E.create_empty ~options:(options ()) platform g in
      let stack = Stack.create () and saved = Array.make (nk + 1) false in
      let switch name =
        share := not !share;
        E.set_options ev (options ());
        check_like_fresh name ev (options ());
        (* The switch discarded every saved block. *)
        (match Stack.top_opt stack with
        | Some k -> (
            match E.retract ev ~task:k with
            | exception Invalid_argument _ -> ()
            | () -> QCheck.Test.fail_reportf "retract past a switch")
        | None -> ());
        Stack.clear stack;
        Array.fill saved 0 (nk + 1) false
      in
      (* A partial walk, switching now and then. *)
      for _ = 1 to 3 * nk do
        if E.n_assigned ev < nk || not (Stack.is_empty stack) then
          ignore (walk_step rng ev stack saved);
        if Support.Rng.int rng 4 = 0 then switch "walk"
      done;
      (* Complete the assignment, then probe, move and switch. *)
      for k = 0 to nk - 1 do
        if E.pe_of ev k < 0 then E.assign ev ~task:k ~pe:(Support.Rng.int rng npes)
      done;
      switch "complete";
      for _ = 1 to 6 do
        for _ = 1 to 4 do
          let k = Support.Rng.int rng nk and pe = Support.Rng.int rng npes in
          let k2 = Support.Rng.int rng nk in
          let p, _ = E.probe_move ev ~task:k ~pe in
          ignore (E.probe_move_below ev ~task:k ~pe ~threshold:p : float);
          ignore (E.probe_move_below ev ~task:k ~pe ~threshold:infinity : float);
          if k2 <> k then begin
            let p, _ = E.probe_swap ev k k2 in
            ignore (E.probe_swap_below ev k k2 ~threshold:(Float.succ p) : float)
          end
        done;
        if Support.Rng.int rng 2 = 0 then
          E.apply_move ev ~task:(Support.Rng.int rng nk)
            ~pe:(Support.Rng.int rng npes);
        switch "probes"
      done;
      true)

(* --- bound soundness --------------------------------------------------------

   On DAGs small enough to enumerate every mapping (1 PPE and at most 3
   SPEs, on the screen's platforms: memory-tight local stores, one-slot
   DMA queues, slow interfaces), the optimum period over feasible
   mappings, by brute force over [Steady_state], bounds everything the
   solvers claim: [Bounds.root_bound] and every [task_lb] lie at or below
   it; [Mapping_search] at gap 0 returns a mapping no better than it
   and a lower bound no higher, and closes; [Portfolio]'s lower bound
   lies at or below its period; and every returned mapping is
   feasible. One property per kind of platform, so each kind gets its
   full count of cases. *)

let brute_force_optimum platform g =
  let nk = G.n_tasks g and npes = P.n_pes platform in
  let arr = Array.make nk 0 and best = ref infinity in
  let rec go k =
    if k = nk then begin
      let m = Cellsched.Mapping.make platform g arr in
      let l = SS.loads platform g m in
      if SS.violations_of_loads platform l = [] then
        best := Float.min !best (SS.period platform l)
    end
    else
      for pe = 0 to npes - 1 do
        arr.(k) <- pe;
        go (k + 1)
      done
  in
  go 0;
  !best

let bounds_are_sound kind =
  QCheck.Test.make ~count:100
    ~name:
      ("bounds <= brute-force optimum <= solver periods: "
     ^ platform_kind_name kind)
    QCheck.(pair (int_bound 100_000) (int_range 3 6))
    (fun (seed, n) ->
      let n = max 3 n and seed = abs seed in
      let salt = 1_000_000 * platform_kind_index kind in
      let rng = Support.Rng.create (seed + salt + 21_000_000) in
      let g = random_graph rng n in
      let n_spe = 1 + Support.Rng.int rng 3 in
      let platform = screen_platform ~n_spe rng kind g in
      let opt = brute_force_optimum platform g in
      let b = Cellsched.Bounds.create platform g in
      if Cellsched.Bounds.root_bound b > opt then
        QCheck.Test.fail_reportf "root bound %h over the optimum %h"
          (Cellsched.Bounds.root_bound b) opt;
      for k = 0 to G.n_tasks g - 1 do
        if Cellsched.Bounds.task_lb b k > opt then
          QCheck.Test.fail_reportf "task %d bound %h over the optimum %h" k
            (Cellsched.Bounds.task_lb b k) opt
      done;
      let feasible name m =
        if not (SS.feasible platform g m) then
          QCheck.Test.fail_reportf "%s returned an infeasible mapping" name
      in
      let r =
        Cellsched.Mapping_search.solve
          ~options:{ Cellsched.Mapping_search.default_options with rel_gap = 0. }
          platform g
      in
      feasible "Mapping_search" r.Cellsched.Mapping_search.mapping;
      if r.Cellsched.Mapping_search.period < opt then
        QCheck.Test.fail_reportf "search period %h under the optimum %h"
          r.Cellsched.Mapping_search.period opt;
      if r.Cellsched.Mapping_search.lower_bound > opt then
        QCheck.Test.fail_reportf "search bound %h over the optimum %h"
          r.Cellsched.Mapping_search.lower_bound opt;
      (* Closed at gap 0, the search reports its period as its bound, so
         the check above also says that it found the optimum. *)
      if not r.Cellsched.Mapping_search.optimal_within_gap then
        QCheck.Test.fail_reportf "search did not close";
      let p = Cellsched.Portfolio.solve platform g in
      feasible "Portfolio" p.Cellsched.Portfolio.best;
      if p.Cellsched.Portfolio.lower_bound > p.Cellsched.Portfolio.period then
        QCheck.Test.fail_reportf "portfolio bound %h over its period %h"
          p.Cellsched.Portfolio.lower_bound p.Cellsched.Portfolio.period;
      true)

(* The buffer model on the paper's graphs and the audio encoder (see
   [check_buffer_model]), and its readers: every footprint reader reads
   the graph's [footprint], summed in one place, and must act on exactly
   that number. On an empty engine the memory row is 0., so
   [assign_memory_fits] at slack 0 is the test [footprint <= budget],
   and [Bounds] forces onto the PPE exactly the tasks whose footprint is
   over it; at the QS22 local store and at one that holds the median
   footprint. *)
let test_footprint_one_sum () =
  let rng = Support.Rng.create 25_000_000 in
  List.iter
    (fun (name, g) ->
      check_buffer_model rng name g;
      let footprint = (G.flat g).G.footprint in
      let median =
        let a = Array.copy footprint in
        Array.sort compare a;
        a.(Array.length a / 2)
      in
      List.iter
        (fun platform ->
          let b = Cellsched.Bounds.create platform g in
          let ev = E.create_empty platform g in
          let budget = float_of_int (P.spe_memory_budget platform) in
          let spe = List.hd (P.spes platform) in
          for k = 0 to G.n_tasks g - 1 do
            let want = footprint.(k) in
            if E.assign_memory_fits ev ~task:k ~pe:spe ~slack:0. <> (want <= budget)
            then Alcotest.failf "%s task %d: Eval memory test differs" name k;
            let forced =
              if want <= budget +. 1e-9 then 0.
              else (G.task g k).Streaming.Task.w_ppe /. platform.P.ppe_speedup
            in
            if
              Int64.bits_of_float b.Cellsched.Bounds.forced_wppe.(k)
              <> Int64.bits_of_float forced
            then Alcotest.failf "%s task %d: Bounds eligibility differs" name k
          done)
        [
          P.qs22 ~n_spe:8 ();
          P.make ~n_ppe:1 ~n_spe:4 ~code_size:0
            ~local_store:(max 1 (int_of_float median))
            ();
        ])
    (Daggen.Presets.all_random ()
    @ [
        ("two-filter", Daggen.Presets.two_filter_chain ());
        ("figure-2b", Daggen.Presets.figure_2b ());
        ("audio-encoder", Daggen.Presets.audio_encoder ());
      ])

(* Both MILPs' memory rows (1i) carry the same numbers: SPE [i]'s row
   [mem_i] has each task's footprint, the list fold of the paper's
   buffers, on [alpha.(k).(i)], bitwise; with buffer sharing its only
   other terms are the colocation variables of the edges ([b_e_i_i] in
   the full program, [z_e_i] in the compact one) at minus the edge's
   buffer, and without sharing it has none. *)
let test_milp_memory_rows () =
  let platform = P.qs22 ~n_spe:3 () in
  let module F = Cellsched.Milp_formulation in
  List.iter
    (fun (name, g) ->
      let buff = (G.flat g).G.buffer in
      let fold = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
      let footprint k = fold (G.out_edges g k) +. fold (G.in_edges g k) in
      List.iter
        (fun (form, build, colocation_var) ->
          List.iter
            (fun share ->
              let f = build ~share_colocated_buffers:share platform g in
              let p = f.F.problem in
              let rows = Lp.Problem.constraints p in
              List.iter
                (fun i ->
                  let what = Printf.sprintf "%s, %s, share=%b, SPE %d" name form share i in
                  let row_name = Printf.sprintf "mem_%d" i in
                  let row =
                    match
                      List.find_opt
                        (fun c -> c.Lp.Problem.cname = row_name)
                        (Array.to_list rows)
                    with
                    | Some c -> c
                    | None -> Alcotest.failf "%s: no row %s" what row_name
                  in
                  let terms = Lp.Expr.to_list row.Lp.Problem.expr in
                  let coef v = Option.value ~default:0. (List.assoc_opt v terms) in
                  for k = 0 to G.n_tasks g - 1 do
                    let got = coef f.F.alpha.(k).(i) and want = footprint k in
                    if Int64.bits_of_float got <> Int64.bits_of_float want then
                      Alcotest.failf "%s, task %d: %h, list fold %h" what k got
                        want
                  done;
                  let alphas = Array.map (fun a -> a.(i)) f.F.alpha in
                  let others =
                    List.filter (fun (v, _) -> not (Array.mem v alphas)) terms
                  in
                  let want =
                    if share then
                      List.filter_map
                        (fun e ->
                          if buff.(e) = 0. then None
                          else Some (colocation_var e i, -.buff.(e)))
                        (List.init (G.n_edges g) Fun.id)
                    else []
                  in
                  let got =
                    List.map (fun (v, c) -> (Lp.Problem.var_name p v, c)) others
                  in
                  let sort = List.sort compare in
                  if sort got <> sort want then
                    Alcotest.failf "%s: colocation terms differ (%d, want %d)" what
                      (List.length got) (List.length want))
                (P.spes platform))
            [ false; true ])
        [
          ( "full",
            (fun ~share_colocated_buffers -> F.build_full ~share_colocated_buffers),
            fun e i -> Printf.sprintf "b_%d_%d_%d" e i i );
          ( "compact",
            (fun ~share_colocated_buffers ->
              F.build_compact ~share_colocated_buffers),
            fun e i -> Printf.sprintf "z_%d_%d" e i );
        ])
    (Daggen.Presets.all_random ()
    @ [
        ("two-filter", Daggen.Presets.two_filter_chain ());
        ("figure-2b", Daggen.Presets.figure_2b ());
        ("audio-encoder", Daggen.Presets.audio_encoder ());
      ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eval"
    [
      ( "replay",
        [
          qt (replay_matches_scratch ~share:false);
          qt (replay_matches_scratch ~share:true);
          qt (tight_matches_oracle ~share:false);
          qt (tight_matches_oracle ~share:true);
        ] );
      ( "probe",
        [
          qt (probe_is_pure ~share:false);
          qt (probe_is_pure ~share:true);
          Alcotest.test_case "same-task swap is refused untouched" `Quick
            test_same_task_swap;
        ] );
      ( "screen",
        [
          qt (screen_is_exact ~share:false);
          qt (screen_is_exact ~share:true);
          qt (prescreen_is_sound ~share:false);
          qt (prescreen_is_sound ~share:true);
          Alcotest.test_case "pre-screen: compute and memory checks fire"
            `Quick test_both_checks_fire;
          Alcotest.test_case "screened probes allocate nothing" `Quick
            test_screen_allocates_nothing;
        ] );
      ( "hot-set",
        [
          qt (hot_set_is_exact Qs22);
          qt (hot_set_is_exact Slow_interfaces);
          qt (hot_set_is_exact Slow_interfaces_few_spes);
          qt (hot_set_is_exact Dual_slow_link);
          qt (hot_set_is_exact Dual_slow_all);
          qt (hot_set_is_exact Memory_tight_ls);
          Alcotest.test_case "every bottleneck kind starts 20 runs" `Quick
            test_every_bottleneck_kind;
          Alcotest.test_case "refreshing the hot set allocates nothing"
            `Quick test_refresh_hot_allocates_nothing;
          Alcotest.test_case "create_empty shares the graph's arrays" `Quick
            test_create_empty_words;
        ] );
      ( "walks",
        [
          qt walks_match_oracle;
          Alcotest.test_case "branch-and-bound: under a word per node" `Quick
            test_bb_words_per_node;
          Alcotest.test_case "heuristic words bounded by tasks + PEs" `Quick
            test_walk_words_bound;
        ] );
      ( "blind-spot",
        [
          Alcotest.test_case "heuristics repair to-PPE overflow" `Quick
            test_no_dma_to_ppe_violation;
          Alcotest.test_case "unrepaired placement overflows" `Quick
            test_blind_spot_is_real;
        ] );
      ( "partial",
        [
          Alcotest.test_case "assign/unassign consistency" `Quick
            test_partial_assignment_consistency;
          qt (backtrack_is_exact ~share:false);
          qt (backtrack_is_exact ~share:true);
          qt (assign_exceeds_is_sound ~share:false);
          qt (assign_exceeds_is_sound ~share:true);
        ] );
      ( "options",
        List.map
          (fun kind -> qt (set_options_is_fresh kind))
          [ Single; Dual; Memory_tight; Dma_limited ] );
      ( "bounds",
        [
          Alcotest.test_case "footprints summed in one place" `Quick
            test_footprint_one_sum;
          qt buffer_model_random;
          Alcotest.test_case "MILP memory rows read the footprints" `Quick
            test_milp_memory_rows;
          qt (bounds_are_sound Single);
          qt (bounds_are_sound Memory_tight);
          qt (bounds_are_sound Dma_limited);
        ] );
      ( "golden",
        [
          Alcotest.test_case "portfolio digest" `Quick test_portfolio_digest;
          Alcotest.test_case "branch-and-bound digest" `Quick test_bb_digest;
          qt candidate_order_is_list_sort;
          Alcotest.test_case "exact sweeps at most 5% of probes" `Quick
            test_exact_sweep_share;
          Alcotest.test_case "counter totals as pinned" `Quick
            test_counter_totals;
        ] );
    ]
