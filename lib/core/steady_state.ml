module G = Streaming.Graph
module P = Cell.Platform

type loads = {
  compute : float array;
  bytes_in : float array;
  bytes_out : float array;
  memory : float array;
  dma_in : int array;
  dma_to_ppe : int array;
  link_out : float array;
  link_in : float array;
}

let loads ?(share_colocated_buffers = false) ?(tight_pipeline = false) platform
    g mapping =
  let n = P.n_pes platform in
  let compute = Array.make n 0. in
  let bytes_in = Array.make n 0. in
  let bytes_out = Array.make n 0. in
  let memory = Array.make n 0. in
  let dma_in = Array.make n 0 in
  let dma_to_ppe = Array.make n 0 in
  let link_out = Array.make platform.P.n_cells 0. in
  let link_in = Array.make platform.P.n_cells 0. in
  for k = 0 to G.n_tasks g - 1 do
    let pe = Mapping.pe mapping k in
    let task = G.task g k in
    let w = Streaming.Task.w task (P.pe_class platform pe) in
    let w = if P.is_ppe platform pe then w /. platform.P.ppe_speedup else w in
    compute.(pe) <- compute.(pe) +. w;
    bytes_in.(pe) <- bytes_in.(pe) +. task.Streaming.Task.read_bytes;
    bytes_out.(pe) <- bytes_out.(pe) +. task.Streaming.Task.write_bytes
  done;
  let buff =
    if not tight_pipeline then (G.flat g).G.buffer
    else begin
      (* An edge whose ends share a PE skips its communication period. *)
      let fl = G.flat g in
      let colocated e =
        Mapping.pe mapping fl.G.edge_src.(e) = Mapping.pe mapping fl.G.edge_dst.(e)
      in
      G.buffer_sizes g ~first_period:(G.first_periods ~colocated g)
    end
  in
  for e = 0 to G.n_edges g - 1 do
    let edge = G.edge g e in
    let src_pe = Mapping.pe mapping edge.G.src in
    let dst_pe = Mapping.pe mapping edge.G.dst in
    let remote = src_pe <> dst_pe in
    if remote then begin
      bytes_out.(src_pe) <- bytes_out.(src_pe) +. edge.G.data_bytes;
      bytes_in.(dst_pe) <- bytes_in.(dst_pe) +. edge.G.data_bytes;
      dma_in.(dst_pe) <- dma_in.(dst_pe) + 1;
      if P.is_spe platform src_pe && P.is_ppe platform dst_pe then
        dma_to_ppe.(src_pe) <- dma_to_ppe.(src_pe) + 1;
      let src_cell = P.cell_of platform src_pe in
      let dst_cell = P.cell_of platform dst_pe in
      if src_cell <> dst_cell then begin
        link_out.(src_cell) <- link_out.(src_cell) +. edge.G.data_bytes;
        link_in.(dst_cell) <- link_in.(dst_cell) +. edge.G.data_bytes
      end
    end;
    (* Memory: the producer holds an outgoing buffer, the consumer an
       incoming one (both even when colocated, unless the sharing
       optimization is enabled). *)
    if (not remote) && share_colocated_buffers then
      memory.(src_pe) <- memory.(src_pe) +. buff.(e)
    else begin
      memory.(src_pe) <- memory.(src_pe) +. buff.(e);
      memory.(dst_pe) <- memory.(dst_pe) +. buff.(e)
    end
  done;
  { compute; bytes_in; bytes_out; memory; dma_in; dma_to_ppe; link_out; link_in }

let period platform l =
  let n = P.n_pes platform in
  let t = ref 0. in
  for pe = 0 to n - 1 do
    t := Float.max !t l.compute.(pe);
    t := Float.max !t (l.bytes_in.(pe) /. platform.P.bw);
    t := Float.max !t (l.bytes_out.(pe) /. platform.P.bw)
  done;
  for cell = 0 to platform.P.n_cells - 1 do
    t := Float.max !t (l.link_out.(cell) /. platform.P.inter_cell_bw);
    t := Float.max !t (l.link_in.(cell) /. platform.P.inter_cell_bw)
  done;
  !t

type resource =
  | Compute of int
  | Interface_in of int
  | Interface_out of int
  | Link_out of int
  | Link_in of int

let bottleneck platform l =
  let best = ref (Compute 0, 0.) in
  let consider resource time = if time > snd !best then best := (resource, time) in
  for pe = 0 to P.n_pes platform - 1 do
    consider (Compute pe) l.compute.(pe);
    consider (Interface_in pe) (l.bytes_in.(pe) /. platform.P.bw);
    consider (Interface_out pe) (l.bytes_out.(pe) /. platform.P.bw)
  done;
  for cell = 0 to platform.P.n_cells - 1 do
    consider (Link_out cell) (l.link_out.(cell) /. platform.P.inter_cell_bw);
    consider (Link_in cell) (l.link_in.(cell) /. platform.P.inter_cell_bw)
  done;
  !best

let pp_resource platform ppf = function
  | Compute pe -> Format.fprintf ppf "compute on %s" (P.pe_name platform pe)
  | Interface_in pe ->
      Format.fprintf ppf "incoming interface of %s" (P.pe_name platform pe)
  | Interface_out pe ->
      Format.fprintf ppf "outgoing interface of %s" (P.pe_name platform pe)
  | Link_out cell -> Format.fprintf ppf "inter-Cell link out of cell %d" cell
  | Link_in cell -> Format.fprintf ppf "inter-Cell link into cell %d" cell

let throughput ?share_colocated_buffers ?tight_pipeline platform g mapping =
  let l = loads ?share_colocated_buffers ?tight_pipeline platform g mapping in
  let t = period platform l in
  if t <= 0. then infinity else 1. /. t

type violation =
  | Memory of { pe : int; used : float; budget : float }
  | Dma_in of { pe : int; used : int; limit : int }
  | Dma_to_ppe of { pe : int; used : int; limit : int }

let violations_of_loads platform l =
  let budget = float_of_int (P.spe_memory_budget platform) in
  let check pe acc =
    if not (P.is_spe platform pe) then acc
    else begin
      let acc =
        if l.memory.(pe) > budget then
          Memory { pe; used = l.memory.(pe); budget } :: acc
        else acc
      in
      let acc =
        if l.dma_in.(pe) > platform.P.max_dma_in then
          Dma_in { pe; used = l.dma_in.(pe); limit = platform.P.max_dma_in }
          :: acc
        else acc
      in
      if l.dma_to_ppe.(pe) > platform.P.max_dma_to_ppe then
        Dma_to_ppe
          { pe; used = l.dma_to_ppe.(pe); limit = platform.P.max_dma_to_ppe }
        :: acc
      else acc
    end
  in
  List.fold_right check (List.init (P.n_pes platform) Fun.id) []

let violations ?share_colocated_buffers ?tight_pipeline platform g mapping =
  violations_of_loads platform
    (loads ?share_colocated_buffers ?tight_pipeline platform g mapping)

let feasible ?share_colocated_buffers ?tight_pipeline platform g mapping =
  violations ?share_colocated_buffers ?tight_pipeline platform g mapping = []

let achieves platform g mapping bound =
  feasible platform g mapping
  && throughput platform g mapping >= bound -. 1e-12

let pp_violation platform ppf = function
  | Memory { pe; used; budget } ->
      Format.fprintf ppf "%s: buffers need %.0f B, budget %.0f B"
        (P.pe_name platform pe) used budget
  | Dma_in { pe; used; limit } ->
      Format.fprintf ppf "%s: %d concurrent incoming data, limit %d"
        (P.pe_name platform pe) used limit
  | Dma_to_ppe { pe; used; limit } ->
      Format.fprintf ppf "%s: %d concurrent transfers to PPEs, limit %d"
        (P.pe_name platform pe) used limit
