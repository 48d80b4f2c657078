module G = Streaming.Graph
module P = Cell.Platform

type engine = Exact | Search | Auto

type options = {
  rel_gap : float;
  time_limit : float;
  max_nodes : int;
  engine : engine;
  share_colocated_buffers : bool;
}

let default_options =
  {
    rel_gap = 0.05;
    time_limit = 60.;
    max_nodes = 10_000_000;
    engine = Auto;
    share_colocated_buffers = false;
  }

type result = {
  mapping : Mapping.t;
  period : float;
  throughput : float;
  lower_bound : float;
  gap : float;
  proven_within_gap : bool;
  nodes : int;
  solve_time : float;
}

let finish ~share ~start ~platform ~g ~mapping ~lower_bound ~proven ~nodes =
  let period =
    Eval.scratch_period ~options:{ Eval.share_colocated_buffers = share }
      platform g mapping
  in
  let lower_bound = Float.min lower_bound period in
  {
    mapping;
    period;
    throughput = (if period > 0. then 1. /. period else infinity);
    lower_bound;
    gap = (if period > 0. then (period -. lower_bound) /. period else 0.);
    proven_within_gap = proven;
    nodes;
    solve_time = Unix.gettimeofday () -. start;
  }

(* Decide between the generic MILP branch & bound and the specialized
   search: the former re-solves a large LP per node, so reserve it for
   small instances. *)
let pick_engine options platform g =
  match options.engine with
  | (Exact | Search) as e -> e
  | Auto ->
      if G.n_tasks g * P.n_pes platform <= 40 then Exact else Search

let solve_exact ~span ~options ~should_stop ~start platform g incumbent =
  let share = options.share_colocated_buffers in
  (* Combinatorial pre-check: when the closed-form §5 bound already
     proves the (polished) incumbent within [rel_gap], no LP is ever
     built or solved. *)
  let comb = Bounds.root_bound (Bounds.create platform g) in
  let inc_period =
    Eval.scratch_period ~options:{ Eval.share_colocated_buffers = share }
      platform g incumbent
  in
  if inc_period > 0. && (inc_period -. comb) /. inc_period <= options.rel_gap
  then
    finish ~share ~start ~platform ~g ~mapping:incumbent ~lower_bound:comb
      ~proven:true ~nodes:0
  else begin
  let formulation =
    Milp_formulation.build_compact
      ~share_colocated_buffers:options.share_colocated_buffers platform g
  in
  let warm = Milp_formulation.warm_start formulation platform g incumbent in
  let bb_options =
    {
      Lp.Branch_bound.rel_gap = options.rel_gap;
      max_nodes = options.max_nodes;
      time_limit = options.time_limit;
      int_tol = 1e-6;
    }
  in
  let outcome =
    Lp.Branch_bound.solve ~span ~options:bb_options ~should_stop
      ~warm_start:warm formulation.Milp_formulation.problem
  in
  let mapping, proven =
    match outcome.Lp.Branch_bound.best with
    | Some sol ->
        let m =
          Milp_formulation.mapping_of_solution formulation platform g
            sol.Lp.Simplex.x
        in
        (* The MILP constraints imply feasibility, but double-check (and
           fall back to the incumbent) to stay safe against numerics. *)
        if Eval.scratch_feasible platform g m then
          (m, outcome.Lp.Branch_bound.status = Lp.Branch_bound.Optimal)
        else (incumbent, false)
    | None -> (incumbent, false)
  in
  let lower_bound = Float.max comb outcome.Lp.Branch_bound.bound in
  finish ~share:options.share_colocated_buffers ~start ~platform ~g ~mapping
    ~lower_bound ~proven ~nodes:outcome.Lp.Branch_bound.nodes
  end

let solve_search ~span ~options ~should_stop ~start ?pool platform g incumbent =
  let search_options =
    {
      Mapping_search.rel_gap = options.rel_gap;
      max_nodes = options.max_nodes;
      dive_nodes = Mapping_search.default_options.Mapping_search.dive_nodes;
      time_limit = options.time_limit;
      share_colocated_buffers = options.share_colocated_buffers;
    }
  in
  let r =
    Mapping_search.solve ~span ~options:search_options ~should_stop ~incumbent
      ?pool platform g
  in
  (* Polish the incumbent; this can only improve it, and the bound remains
     valid. (The plain local search is conservative under buffer sharing:
     it only accepts plain-feasible mappings, which are a subset.) *)
  let mapping = Heuristics.local_search platform g r.Mapping_search.mapping in
  let mapping =
    let model_period m =
      Eval.scratch_period
        ~options:
          { Eval.share_colocated_buffers = options.share_colocated_buffers }
        platform g m
    in
    if model_period mapping < model_period r.Mapping_search.mapping then mapping
    else r.Mapping_search.mapping
  in
  finish ~share:options.share_colocated_buffers ~start ~platform ~g ~mapping
    ~lower_bound:r.Mapping_search.lower_bound
    ~proven:r.Mapping_search.optimal_within_gap ~nodes:r.Mapping_search.nodes

let solve ?(span = Obs.Span.null) ?(options = default_options)
    ?(should_stop = fun () -> false) ?pool platform g =
  let start = Unix.gettimeofday () in
  let incumbent =
    match
      Heuristics.best_feasible platform g
        (Heuristics.standard_candidates ~with_lp:false platform g)
    with
    | Some (_, m) -> Heuristics.local_search platform g m
    | None -> Heuristics.ppe_only platform g
  in
  match pick_engine options platform g with
  | Exact -> solve_exact ~span ~options ~should_stop ~start platform g incumbent
  | Search ->
      solve_search ~span ~options ~should_stop ~start ?pool platform g incumbent
  | Auto -> assert false
