module G = Streaming.Graph
module P = Cell.Platform

type t = { reps : int array array (* task -> replica PEs, round-robin *) }

let make platform g spec =
  if Array.length spec <> G.n_tasks g then
    invalid_arg "Replication.make: arity mismatch with the graph";
  let n = P.n_pes platform in
  let check k pes =
    if pes = [] then invalid_arg "Replication.make: empty replica list";
    List.iter
      (fun pe ->
        if pe < 0 || pe >= n then
          invalid_arg "Replication.make: PE index out of range")
      pes;
    if List.length (List.sort_uniq compare pes) <> List.length pes then
      invalid_arg "Replication.make: duplicate replicas";
    if List.length pes > 1 && (G.task g k).Streaming.Task.stateful then
      invalid_arg "Replication.make: stateful tasks cannot be replicated"
  in
  Array.iteri check spec;
  { reps = Array.map Array.of_list spec }

let of_mapping platform g mapping =
  make platform g
    (Array.init (G.n_tasks g) (fun k -> [ Mapping.pe mapping k ]))

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

(* Remote traffic of edge e per instance, averaged over one hyper-period:
   data instance j is produced by replica [j mod r_k] of the source and
   needed by the consumer replicas handling instances j-peek .. j. Each
   distinct remote target receives one copy. Returns per-(src_pe, dst_pe)
   average copies per instance. *)
let edge_flows g t e =
  let { G.src; dst; _ } = G.edge g e in
  let peek = (G.task g dst).Streaming.Task.peek in
  let rs = t.reps.(src) and rd = t.reps.(dst) in
  let cycle = lcm (Array.length rs) (Array.length rd) in
  let counts = Hashtbl.create 8 in
  for j = 0 to cycle - 1 do
    let producer = rs.(j mod Array.length rs) in
    (* Consumer instances i with j in [i, i+peek], i.e. i in [j-peek, j]. *)
    let targets = Hashtbl.create 4 in
    let rd_len = Array.length rd in
    for i = j - peek to j do
      (* Steady state: no stream-start truncation; proper modulo for the
         negative indices of the first peek window. *)
      let idx = ((i mod rd_len) + rd_len) mod rd_len in
      Hashtbl.replace targets rd.(idx) ()
    done;
    Hashtbl.iter
      (fun target () ->
        if target <> producer then begin
          let key = (producer, target) in
          let cur = try Hashtbl.find counts key with Not_found -> 0 in
          Hashtbl.replace counts key (cur + 1)
        end)
      targets
  done;
  Hashtbl.fold
    (fun key count acc -> (key, float_of_int count /. float_of_int cycle) :: acc)
    counts []

let duplication_factor g t e =
  List.fold_left (fun acc (_, copies) -> acc +. copies) 0. (edge_flows g t e)

let loads platform g t =
  let n = P.n_pes platform in
  let compute = Array.make n 0. in
  let bytes_in = Array.make n 0. in
  let bytes_out = Array.make n 0. in
  let memory = Array.make n 0. in
  let dma_in = Array.make n 0 in
  let dma_to_ppe = Array.make n 0 in
  let link_out = Array.make platform.P.n_cells 0. in
  let link_in = Array.make platform.P.n_cells 0. in
  let buff = (G.flat g).G.buffer in
  for k = 0 to G.n_tasks g - 1 do
    let task = G.task g k in
    let r = float_of_int (Array.length t.reps.(k)) in
    Array.iter
      (fun pe ->
        let cls = P.pe_class platform pe in
        let w = Streaming.Task.w task cls in
        let w = if cls = P.PPE then w /. platform.P.ppe_speedup else w in
        compute.(pe) <- compute.(pe) +. (w /. r);
        bytes_in.(pe) <- bytes_in.(pe) +. (task.Streaming.Task.read_bytes /. r);
        bytes_out.(pe) <- bytes_out.(pe) +. (task.Streaming.Task.write_bytes /. r);
        (* Every replica allocates the task's full buffers (tracked on all
           PEs like Steady_state.loads; only SPEs are budget-checked). *)
        let sum = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
        memory.(pe) <-
          memory.(pe) +. sum (G.out_edges g k) +. sum (G.in_edges g k))
      t.reps.(k)
  done;
  for e = 0 to G.n_edges g - 1 do
    let data = (G.edge g e).G.data_bytes in
    List.iter
      (fun ((src_pe, dst_pe), copies) ->
        bytes_out.(src_pe) <- bytes_out.(src_pe) +. (data *. copies);
        bytes_in.(dst_pe) <- bytes_in.(dst_pe) +. (data *. copies);
        let sc = P.cell_of platform src_pe and dc = P.cell_of platform dst_pe in
        if sc <> dc then begin
          link_out.(sc) <- link_out.(sc) +. (data *. copies);
          link_in.(dc) <- link_in.(dc) +. (data *. copies)
        end;
        (* One DMA slot per active producer-consumer replica pair. *)
        if P.is_spe platform dst_pe then dma_in.(dst_pe) <- dma_in.(dst_pe) + 1;
        if P.is_spe platform src_pe && P.is_ppe platform dst_pe then
          dma_to_ppe.(src_pe) <- dma_to_ppe.(src_pe) + 1)
      (edge_flows g t e)
  done;
  {
    Steady_state.compute;
    bytes_in;
    bytes_out;
    memory;
    dma_in;
    dma_to_ppe;
    link_out;
    link_in;
  }

let period platform g t = Steady_state.period platform (loads platform g t)

let throughput platform g t =
  let p = period platform g t in
  if p <= 0. then infinity else 1. /. p

(* The constraint checks are the single shared code path in
   Steady_state — only the load model (replica flows) differs here. *)
let violations platform g t =
  Steady_state.violations_of_loads platform (loads platform g t)
