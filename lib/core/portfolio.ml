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

(* One entrant, on one engine of its own from start to score: its walk
   places the start in the paper's model, where a feasible start is
   polished by local search under [eval_options]; the same engine then
   scores the result and offers it to the shared incumbent. Entrants
   share nothing but the incumbent cell. The engine's rows are a pure
   function of the assignment and the options, so the score is the
   canonical one, bitwise what a fresh engine on the final mapping
   reads, whichever worker ran the entrant. *)
let run_entrant ~eval_options ~inc platform g (name, place) =
  let ev = Eval.create_empty platform g in
  place ev;
  let start_feasible = Eval.feasible ev in
  Eval.set_options ev eval_options;
  if start_feasible then Heuristics.improve ev;
  let feasible = Eval.feasible ev in
  let period = if feasible then Eval.period ev else infinity in
  let mapping = Eval.mapping ev in
  Eval.publish ev;
  if feasible then
    ignore (Incumbent.offer inc ~period (Mapping.to_array mapping));
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_candidates;
  { name; mapping; period; feasible }

let solve ?(span = Obs.Span.null) ?pool ?(should_stop = fun () -> false)
    ?(restarts = default_restarts) ?(seed = default_seed)
    ?(share_colocated_buffers = false) platform g =
  Obs.Span.with_span span "portfolio" @@ fun span ->
  let eval_options = { Eval.share_colocated_buffers } in
  let entrants =
    Array.of_list
      ([
         (* The safety net: always feasible (local search then polishes
            it like any other start). *)
         ("ppe-only", Heuristics.place_ppe_only);
         ("greedy-mem", Heuristics.place_greedy_mem);
         ("greedy-cpu", Heuristics.place_greedy_cpu);
       ]
      @ List.init restarts (fun i ->
            ( Printf.sprintf "restart-%d" i,
              fun ev ->
                (* Independent stream per restart: the draw sequence of
                   entrant i never depends on how many others ran. *)
                let rng = Support.Rng.create (seed + (1000003 * i)) in
                Heuristics.place_random_feasible ~rng ev )))
  in
  let inc = Incumbent.create () in
  let run_one = run_entrant ~eval_options ~inc platform g in
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
