module G = Streaming.Graph
module P = Cell.Platform

type activity = { task : int; instance : int }
type transfer = { edge : int; src_pe : int; dst_pe : int; instance : int }

type t = {
  platform : P.t;
  g : G.t;
  mapping : Mapping.t;
  period_seconds : float;
}

let build platform g mapping =
  let period_seconds =
    Steady_state.period platform (Steady_state.loads platform g mapping)
  in
  { platform; g; mapping; period_seconds }

(* firstPeriod of every task: the graph's own array. *)
let fp t = (G.flat t.g).G.first_period

let throughput t = if t.period_seconds > 0. then 1. /. t.period_seconds else infinity
let first_period t k = (fp t).(k)
let warmup_periods t = Array.fold_left max 0 (fp t)

let activities t p =
  if p < 0 then invalid_arg "Schedule.activities: negative period";
  let fp = fp t in
  List.filter_map
    (fun k ->
      if fp.(k) <= p then Some { task = k; instance = p - fp.(k) } else None)
    (List.init (G.n_tasks t.g) Fun.id)

let transfers t p =
  if p < 0 then invalid_arg "Schedule.transfers: negative period";
  let fp = fp t in
  List.filter_map
    (fun e ->
      let { G.src; dst; _ } = G.edge t.g e in
      let src_pe = Mapping.pe t.mapping src in
      let dst_pe = Mapping.pe t.mapping dst in
      (* The result of the instance computed by the source in period p-1 is
         in flight during period p, provided the source was active then. *)
      let instance = p - 1 - fp.(src) in
      if src_pe <> dst_pe && instance >= 0 then
        Some { edge = e; src_pe; dst_pe; instance }
      else None)
    (List.init (G.n_edges t.g) Fun.id)

let instance_latency t =
  let fp = fp t in
  List.fold_left (fun acc k -> max acc (fp.(k) + 1)) 0 (G.sinks t.g)

let pp_period t g platform p ppf () =
  Format.fprintf ppf "@[<v>period %d (T = %.6fs):@," p t.period_seconds;
  let by_pe = Hashtbl.create 8 in
  List.iter
    (fun { task; instance } ->
      let pe = Mapping.pe t.mapping task in
      let cur = try Hashtbl.find by_pe pe with Not_found -> [] in
      Hashtbl.replace by_pe pe ((task, instance) :: cur))
    (activities t p);
  for pe = 0 to P.n_pes platform - 1 do
    match Hashtbl.find_opt by_pe pe with
    | None -> ()
    | Some items ->
        let render (task, instance) =
          Printf.sprintf "%s[%d]" (G.task g task).Streaming.Task.name instance
        in
        Format.fprintf ppf "  %s: %s@,"
          (P.pe_name platform pe)
          (String.concat " " (List.rev_map render items))
  done;
  let render_transfer { edge; src_pe; dst_pe; instance } =
    let { G.src; dst; _ } = G.edge g edge in
    Format.fprintf ppf "  %s -> %s: D(%s,%s)[%d]@,"
      (P.pe_name platform src_pe)
      (P.pe_name platform dst_pe)
      (G.task g src).Streaming.Task.name
      (G.task g dst).Streaming.Task.name instance
  in
  List.iter render_transfer (transfers t p);
  Format.fprintf ppf "@]"
