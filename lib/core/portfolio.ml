module G = Streaming.Graph
module P = Cell.Platform

type candidate = {
  name : string;
  mapping : Mapping.t;
  period : float;
  feasible : bool;
}

type result = {
  best : Mapping.t;
  period : float;
  lower_bound : float;
  candidates : candidate list;
}

let default_restarts = 6
let default_seed = 0x5EED

let m_candidates =
  Obs.Metrics.counter ~help:"Portfolio strategies and restarts evaluated"
    "portfolio_candidates_total"

(* One entrant: produce a mapping, score it canonically, and offer it
   to the shared incumbent. Every entrant builds its own Eval states
   (inside the heuristics and the local search), so entrants share
   nothing but the incumbent cell; the score comes from one fresh
   engine on the final mapping, a canonical recomputation bitwise
   independent of which worker ran the entrant. *)
let run_entrant ~eval_options ~max_passes ~inc platform g (name, make_start) =
  let start = make_start () in
  let mapping =
    if Steady_state.feasible platform g start then
      Heuristics.local_search ~options:eval_options ~max_passes platform g
        start
    else start
  in
  let ev = Eval.create ~options:eval_options platform g mapping in
  let feasible = Eval.feasible ev in
  let period = if feasible then Eval.period ev else infinity in
  if feasible then
    ignore (Incumbent.offer inc ~period (Mapping.to_array mapping));
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_candidates;
  { name; mapping; period; feasible }

let solve ?(span = Obs.Span.null) ?pool ?(should_stop = fun () -> false)
    ?(restarts = default_restarts) ?(seed = default_seed) ?(max_passes = 50)
    ?(share_colocated_buffers = false) platform g =
  Obs.Span.with_span span "portfolio" @@ fun span ->
  let eval_options =
    { Eval.share_colocated_buffers; tight_pipeline = false }
  in
  let entrants =
    Array.of_list
      ([
         (* The safety net: always feasible, never worth local search. *)
         ("ppe-only", fun () -> Heuristics.ppe_only platform g);
         ("greedy-mem", fun () -> Heuristics.greedy_mem platform g);
         ("greedy-cpu", fun () -> Heuristics.greedy_cpu platform g);
       ]
      @ List.init restarts (fun i ->
            ( Printf.sprintf "restart-%d" i,
              fun () ->
                (* Independent stream per restart: the draw sequence of
                   entrant i never depends on how many others ran. *)
                let rng = Support.Rng.create (seed + (1000003 * i)) in
                Heuristics.random_feasible ~rng platform g )))
  in
  let inc = Incumbent.create () in
  let run_one = run_entrant ~eval_options ~max_passes ~inc platform g in
  (* Cancellation skips entrants wholesale — except the ppe-only safety
     net, which is cheap and guarantees a feasible result even when the
     deadline has already passed at dispatch. Skipped entrants are
     dropped from the candidate report. *)
  (* Entrant spans carry content-derived ids (the entrant name is the
     path component), so the merged stream is identical whichever
     worker ran each entrant. *)
  let run ((name, _) as entrant) =
    if name <> "ppe-only" && should_stop () then None
    else
      Some
        (Obs.Span.with_span_attrs span ("entrant:" ^ name) (fun _ ->
             let c = run_one entrant in
             ( c,
               [
                 ("period", Obs.Span.Float c.period);
                 ("feasible", Obs.Span.Bool c.feasible);
               ] )))
  in
  let candidates =
    match pool with
    | Some p when Array.length entrants > 1 ->
        Par.Fiber.parallel_map ~pool:p run entrants
    | _ -> Array.map run entrants
  in
  let e =
    match Incumbent.best inc with
    | Some e -> e
    | None -> (* ppe-only is always offered *) assert false
  in
  {
    best = Mapping.make platform g e.Incumbent.arr;
    period = e.Incumbent.period;
    lower_bound = Bounds.root_bound (Bounds.create platform g);
    candidates = List.filter_map Fun.id (Array.to_list candidates);
  }
