module Rng = Support.Rng

type spec = {
  seed : int;
  requests : int;
  skew : float;
  graphs : (string * Streaming.Graph.t) list;
  spes : int list;
  strategies : Request.strategy list;
}

(* The population is the cartesian product graphs × spes × strategies,
   in declaration order. Popularity rank is a seeded shuffle of that
   order, so "which problem is hot" is decided by the seed, not by the
   accident of which graph the caller listed first. *)
let population spec =
  if spec.graphs = [] then invalid_arg "Workload: empty graph population";
  if spec.spes = [] then invalid_arg "Workload: empty spes list";
  if spec.strategies = [] then invalid_arg "Workload: empty strategy list";
  List.iter
    (fun s ->
      if s < 0 || s > 8 then
        invalid_arg (Printf.sprintf "Workload: spes=%d out of range (0-8)" s))
    spec.spes;
  let items =
    List.concat_map
      (fun (label, graph) ->
        List.concat_map
          (fun spes ->
            List.map
              (fun strategy ->
                {
                  Request.label;
                  platform = Cell.Platform.qs22 ~n_spe:spes ();
                  graph;
                  strategy;
                  deadline_ms = None;
                  prio = 0;
                })
              spec.strategies)
          spec.spes)
      spec.graphs
    |> Array.of_list
  in
  let rng = Rng.create (Stdlib.abs spec.seed + 0x5ca1e) in
  Rng.shuffle rng items;
  items

(* Zipf over ranks: rank k (0-based) has weight 1/(k+1)^s. Sampling is
   one uniform float against the cumulative weights, resolved by binary
   search — O(log n) per request, exact (no rejection), and a pure
   function of the Rng stream. *)
let zipf_cumulative ~skew n =
  let cum = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) skew);
    cum.(k) <- !total
  done;
  cum

let sample_rank rng cum =
  let n = Array.length cum in
  let r = Rng.float rng cum.(n - 1) in
  (* Smallest k with cum.(k) > r. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > r then hi := mid else lo := mid + 1
  done;
  !lo

let generate spec =
  if spec.requests < 0 then invalid_arg "Workload: negative request count";
  if not (Float.is_finite spec.skew) || spec.skew < 0. then
    invalid_arg "Workload: skew must be a finite non-negative float";
  let pop = population spec in
  let cum = zipf_cumulative ~skew:spec.skew (Array.length pop) in
  let rng = Rng.create spec.seed in
  Array.init spec.requests (fun _ -> pop.(sample_rank rng cum))

let split ~domains requests =
  if domains <= 0 then invalid_arg "Workload.split: non-positive domains";
  let n = Array.length requests in
  Array.init domains (fun d ->
      (* Round-robin: client d replays requests d, d+domains, ... in
         stream order, so per-client streams preserve arrival order. *)
      Array.init ((n - d + domains - 1) / domains) (fun i ->
          requests.((i * domains) + d)))

(* --- wire rendering ------------------------------------------------------- *)

(* The request-file grammar splits on whitespace and treats '#' as a
   comment; a label containing either (or '=' — it would parse as an
   attribute) cannot round-trip. *)
let token_safe label =
  label <> ""
  && String.for_all
       (fun c -> c > ' ' && c <> '#' && c <> '=' && c <> '\x7f')
       label

let line (r : Request.t) =
  if not (token_safe r.Request.label) then
    invalid_arg
      (Printf.sprintf "Workload.line: label %S is not request-line safe"
         r.Request.label);
  let buf = Buffer.create 96 in
  Buffer.add_string buf r.Request.label;
  Printf.bprintf buf " spes=%d" r.platform.Cell.Platform.n_spe;
  (match r.strategy with
  | Request.Portfolio { seed; restarts } ->
      Printf.bprintf buf " strategy=portfolio seed=%d restarts=%d" seed
        restarts
  | Request.Bb { rel_gap; max_nodes } ->
      Printf.bprintf buf " strategy=bb gap=%.17g max-nodes=%d" rel_gap
        max_nodes);
  (match r.deadline_ms with
  | Some ms -> Printf.bprintf buf " deadline=%.17g" ms
  | None -> ());
  if r.prio <> 0 then Printf.bprintf buf " prio=%d" r.prio;
  Buffer.contents buf

let lines ?(ids = false) requests =
  Array.to_list requests
  |> List.mapi (fun i r ->
         if ids then Printf.sprintf "id=r%d %s" i (line r) else line r)
