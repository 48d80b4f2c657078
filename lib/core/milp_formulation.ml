module G = Streaming.Graph
module P = Cell.Platform
module Pb = Lp.Problem

type t = {
  problem : Pb.t;
  t_var : Pb.var;
  alpha : Pb.var array array;
  encode : Mapping.t -> float array;
}

(* A row under construction: terms are pushed in order and handed to
   [Pb.add_row], which copies and normalises them, so one buffer serves
   every row of a formulation. *)
type row = { vars : int array; coefs : float array; mutable len : int }

let row_buffer cap = { vars = Array.make cap 0; coefs = Array.make cap 0.; len = 0 }

let[@inline] push row v c =
  row.vars.(row.len) <- v;
  row.coefs.(row.len) <- c;
  row.len <- row.len + 1

(* Add the pushed terms as row [prefix_i_j] (see [Pb.add_row]) and empty
   the buffer. *)
let emit problem row prefix i j rel rhs =
  Pb.add_row problem prefix i j row.vars row.coefs row.len rel rhs;
  row.len <- 0

(* Shared scaffolding: alpha, (1b), (1e)/(1f) and the root cut. Buffer
   sizes and task footprints are read from the {!Bounds.t} each build
   makes for its root cut. *)

let add_alpha problem platform g =
  let n = P.n_pes platform in
  Array.init (G.n_tasks g) (fun k ->
      Array.init n (fun i -> Pb.add_var_ij problem ~kind:Pb.Integer ~lb:0. ~ub:1. "a" k i))

let add_assignment_constraints problem row g alpha n =
  for k = 0 to G.n_tasks g - 1 do
    for i = 0 to n - 1 do
      push row alpha.(k).(i) 1.
    done;
    emit problem row "assign" k (-1) Pb.Eq 1.
  done

let add_compute_constraints problem row platform g alpha t_var =
  let n = P.n_pes platform in
  for i = 0 to n - 1 do
    let cls = P.pe_class platform i in
    for k = 0 to G.n_tasks g - 1 do
      let w = Streaming.Task.w (G.task g k) cls in
      push row alpha.(k).(i) (if cls = P.PPE then w /. platform.P.ppe_speedup else w)
    done;
    push row t_var (-1.);
    emit problem row "compute" i (-1) Pb.Le 0.
  done

(* Combinatorial root cut: [T >= Bounds.root] is implied by the integer
   program but not by its LP relaxation, so adding it as an explicit row
   starts every relaxation — the root LP and each branch-and-bound
   node — at the closed-form §5 bound instead of below it. *)
let add_combinatorial_cut problem row bnd t_var =
  let lb = Bounds.root_bound bnd in
  if lb > 0. then begin
    push row t_var 1.;
    emit problem row "comb_root_lb" (-1) (-1) Pb.Ge lb
  end

(* ------------------------------------------------------------------ *)
(* Full formulation: paper constraints (1a)-(1k).                      *)
(* ------------------------------------------------------------------ *)

let build_full ?(share_colocated_buffers = false) platform g =
  let problem = Pb.create ~name:"cell-mapping-full" () in
  let n = P.n_pes platform in
  let ne = G.n_edges g in
  let bnd = Bounds.create platform g in
  let t_var = Pb.add_var problem "T" in
  let alpha = add_alpha problem platform g in
  (* (1a) beta variables, continuous in [0,1]: integral whenever alpha
     is. *)
  let beta =
    Array.init ne (fun e ->
        Array.init n (fun i ->
            Array.init n (fun j ->
                Pb.add_var problem ~ub:1. (Printf.sprintf "b_%d_%d_%d" e i j))))
  in
  let nt = G.n_tasks g in
  let row = row_buffer (nt + (ne * n * n) + 2) in
  (* (1b) *)
  add_assignment_constraints problem row g alpha n;
  (* (1c) the PE computing T_l holds the data: sum_i beta_{i,j} >= alpha_l_j *)
  for e = 0 to ne - 1 do
    let { G.dst = l; _ } = G.edge g e in
    for j = 0 to n - 1 do
      for i = 0 to n - 1 do
        push row beta.(e).(i).(j) 1.
      done;
      push row alpha.(l).(j) (-1.);
      emit problem row "recv" e j Pb.Ge 0.
    done
  done;
  (* (1d) only the producer sends: sum_j beta_{i,j} <= alpha_k_i *)
  for e = 0 to ne - 1 do
    let { G.src = k; _ } = G.edge g e in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        push row beta.(e).(i).(j) 1.
      done;
      push row alpha.(k).(i) (-1.);
      emit problem row "send" e i Pb.Le 0.
    done
  done;
  (* (1e)/(1f) *)
  add_compute_constraints problem row platform g alpha t_var;
  (* (1g)/(1h): interface loads within T * bw. *)
  let bw = platform.P.bw in
  for i = 0 to n - 1 do
    for k = 0 to nt - 1 do
      push row alpha.(k).(i) (G.task g k).Streaming.Task.read_bytes
    done;
    for e = 0 to ne - 1 do
      for j = 0 to n - 1 do
        if j <> i then push row beta.(e).(j).(i) (G.edge g e).G.data_bytes
      done
    done;
    push row t_var (-.bw);
    emit problem row "bw_in" i (-1) Pb.Le 0.;
    for k = 0 to nt - 1 do
      push row alpha.(k).(i) (G.task g k).Streaming.Task.write_bytes
    done;
    for e = 0 to ne - 1 do
      for j = 0 to n - 1 do
        if j <> i then push row beta.(e).(i).(j) (G.edge g e).G.data_bytes
      done
    done;
    push row t_var (-.bw);
    emit problem row "bw_out" i (-1) Pb.Le 0.
  done;
  (* (1i) SPE local stores. With buffer sharing, a colocated edge
     (beta_{i,i} = 1) saves one copy. *)
  let { G.buffer = buff; footprint = task_bytes; _ } = G.flat g in
  let budget = float_of_int (P.spe_memory_budget platform) in
  List.iter
    (fun i ->
      for k = 0 to nt - 1 do
        push row alpha.(k).(i) task_bytes.(k)
      done;
      if share_colocated_buffers then
        for e = 0 to ne - 1 do
          push row beta.(e).(i).(i) (-.buff.(e))
        done;
      emit problem row "mem" i (-1) Pb.Le budget)
    (P.spes platform);
  (* (1j) incoming DMA slots per SPE. *)
  let dma_in = float_of_int platform.P.max_dma_in in
  List.iter
    (fun j ->
      for e = 0 to ne - 1 do
        for i = 0 to n - 1 do
          if i <> j then push row beta.(e).(i).(j) 1.
        done
      done;
      emit problem row "dma_in" j (-1) Pb.Le dma_in)
    (P.spes platform);
  (* (1k) SPE-to-PPE DMA slots. *)
  let dma_ppe = float_of_int platform.P.max_dma_to_ppe in
  List.iter
    (fun i ->
      for e = 0 to ne - 1 do
        List.iter (fun j -> push row beta.(e).(i).(j) 1.) (P.ppes platform)
      done;
      emit problem row "dma_ppe" i (-1) Pb.Le dma_ppe)
    (P.spes platform);
  (* Inter-Cell links (multi-Cell platforms): cross-cell beta traffic must
     fit the BIF bandwidth in each direction. *)
  if platform.P.n_cells > 1 then
    for c = 0 to platform.P.n_cells - 1 do
      let link name ~outgoing =
        for e = 0 to ne - 1 do
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let ci = P.cell_of platform i and cj = P.cell_of platform j in
              if ci <> cj && (if outgoing then ci = c else cj = c) then
                push row beta.(e).(i).(j) (G.edge g e).G.data_bytes
            done
          done
        done;
        push row t_var (-.platform.P.inter_cell_bw);
        emit problem row name c (-1) Pb.Le 0.
      in
      link "link_out" ~outgoing:true;
      link "link_in" ~outgoing:false
    done;
  add_combinatorial_cut problem row bnd t_var;
  Pb.set_objective problem Pb.Minimize (Lp.Expr.term t_var);
  let encode mapping =
    let x = Array.make (Pb.n_vars problem) 0. in
    for k = 0 to G.n_tasks g - 1 do
      x.(alpha.(k).(Mapping.pe mapping k)) <- 1.
    done;
    for e = 0 to ne - 1 do
      let { G.src; dst; _ } = G.edge g e in
      x.(beta.(e).(Mapping.pe mapping src).(Mapping.pe mapping dst)) <- 1.
    done;
    let loads =
      Steady_state.loads ~share_colocated_buffers platform g mapping
    in
    x.(t_var) <- Steady_state.period platform loads;
    x
  in
  { problem; t_var; alpha; encode }

(* ------------------------------------------------------------------ *)
(* Compact formulation.                                                *)
(* ------------------------------------------------------------------ *)

let build_compact ?(share_colocated_buffers = false) platform g =
  let problem = Pb.create ~name:"cell-mapping-compact" () in
  let n = P.n_pes platform in
  let nt = G.n_tasks g in
  let ne = G.n_edges g in
  let bnd = Bounds.create platform g in
  (* Room for the longest row: a bandwidth row's tasks, edges and T, or
     a cross-cell row's 2n alphas. *)
  let row = row_buffer (nt + ne + (2 * n) + 2) in
  let t_var = Pb.add_var problem "T" in
  let alpha = add_alpha problem platform g in
  add_assignment_constraints problem row g alpha n;
  add_compute_constraints problem row platform g alpha t_var;
  (* Per-edge, per-PE remote indicators. *)
  let inv = Array.init ne (fun e -> Array.init n (fun i -> Pb.add_var_ij problem ~ub:1. "in" e i)) in
  let outv =
    Array.init ne (fun e -> Array.init n (fun i -> Pb.add_var_ij problem ~ub:1. "out" e i))
  in
  for e = 0 to ne - 1 do
    let { G.src = k; dst = l; _ } = G.edge g e in
    for i = 0 to n - 1 do
      (* in_i^e >= alpha_i^l - alpha_i^k *)
      push row inv.(e).(i) 1.;
      push row alpha.(l).(i) (-1.);
      push row alpha.(k).(i) 1.;
      emit problem row "def_in" e i Pb.Ge 0.;
      (* out_i^e >= alpha_i^k - alpha_i^l *)
      push row outv.(e).(i) 1.;
      push row alpha.(k).(i) (-1.);
      push row alpha.(l).(i) 1.;
      emit problem row "def_out" e i Pb.Ge 0.
    done
  done;
  let bw = platform.P.bw in
  for i = 0 to n - 1 do
    for k = 0 to nt - 1 do
      push row alpha.(k).(i) (G.task g k).Streaming.Task.read_bytes
    done;
    for e = 0 to ne - 1 do
      push row inv.(e).(i) (G.edge g e).G.data_bytes
    done;
    push row t_var (-.bw);
    emit problem row "bw_in" i (-1) Pb.Le 0.;
    for k = 0 to nt - 1 do
      push row alpha.(k).(i) (G.task g k).Streaming.Task.write_bytes
    done;
    for e = 0 to ne - 1 do
      push row outv.(e).(i) (G.edge g e).G.data_bytes
    done;
    push row t_var (-.bw);
    emit problem row "bw_out" i (-1) Pb.Le 0.
  done;
  (* Memory (1i); optional sharing via colocation indicators z <= alpha_k,
     z <= alpha_l entering the row with a negative coefficient. [zvars],
     [gvars] and [cross_vars] hold -1 where no variable was made. *)
  let { G.buffer = buff; footprint = task_bytes; _ } = G.flat g in
  let zvars = Array.make_matrix ne n (-1) in
  let gvars = Array.make_matrix ne n (-1) in
  let budget = float_of_int (P.spe_memory_budget platform) in
  List.iter
    (fun i ->
      for k = 0 to nt - 1 do
        push row alpha.(k).(i) task_bytes.(k)
      done;
      if share_colocated_buffers then
        for e = 0 to ne - 1 do
          let { G.src = k; dst = l; _ } = G.edge g e in
          let z = Pb.add_var_ij problem ~ub:1. "z" e i in
          Pb.add_constr problem (Lp.Expr.of_list [ (z, 1.); (alpha.(k).(i), -1.) ]) Pb.Le 0.;
          Pb.add_constr problem (Lp.Expr.of_list [ (z, 1.); (alpha.(l).(i), -1.) ]) Pb.Le 0.;
          zvars.(e).(i) <- z;
          push row z (-.buff.(e))
        done;
      emit problem row "mem" i (-1) Pb.Le budget)
    (P.spes platform);
  (* (1j): number of remote incoming data per SPE. *)
  let dma_in = float_of_int platform.P.max_dma_in in
  List.iter
    (fun j ->
      for e = 0 to ne - 1 do
        push row inv.(e).(j) 1.
      done;
      emit problem row "dma_in" j (-1) Pb.Le dma_in)
    (P.spes platform);
  (* (1k): gamma_i^e >= alpha_i^k + sum_{j in PPEs} alpha_j^l - 1. The
     gamma rows are made first, the cap row reads them back. *)
  let dma_ppe = float_of_int platform.P.max_dma_to_ppe in
  List.iter
    (fun i ->
      for e = 0 to ne - 1 do
        let { G.src = k; dst = l; _ } = G.edge g e in
        let gamma = Pb.add_var_ij problem ~ub:1. "g" e i in
        gvars.(e).(i) <- gamma;
        push row gamma 1.;
        push row alpha.(k).(i) (-1.);
        List.iter (fun j -> push row alpha.(l).(j) (-1.)) (P.ppes platform);
        emit problem row "def_g" e i Pb.Ge (-1.)
      done;
      for e = 0 to ne - 1 do
        push row gvars.(e).(i) 1.
      done;
      emit problem row "dma_ppe" i (-1) Pb.Le dma_ppe)
    (P.spes platform);
  (* Inter-Cell links: per edge and cell, difference-linearized cross
     indicators over the per-cell alpha masses. *)
  let cross_vars =
    if platform.P.n_cells > 1 then Array.make_matrix ne platform.P.n_cells (-1, -1) else [||]
  in
  if platform.P.n_cells > 1 then begin
    let push_cell_alpha task c coeff =
      for i = 0 to n - 1 do
        if P.cell_of platform i = c then push row alpha.(task).(i) coeff
      done
    in
    for c = 0 to platform.P.n_cells - 1 do
      for e = 0 to ne - 1 do
        let { G.src = k; dst = l; _ } = G.edge g e in
        let co = Pb.add_var_ij problem ~ub:1. "xo" e c in
        let ci = Pb.add_var_ij problem ~ub:1. "xi" e c in
        cross_vars.(e).(c) <- (co, ci);
        (* xo >= alpha_cell(k) - alpha_cell(l); xi symmetric. *)
        push row co 1.;
        push_cell_alpha k c (-1.);
        push_cell_alpha l c 1.;
        emit problem row "def_xo" e c Pb.Ge 0.;
        push row ci 1.;
        push_cell_alpha l c (-1.);
        push_cell_alpha k c 1.;
        emit problem row "def_xi" e c Pb.Ge 0.
      done;
      let link name pick =
        for e = 0 to ne - 1 do
          push row (pick cross_vars.(e).(c)) (G.edge g e).G.data_bytes
        done;
        push row t_var (-.platform.P.inter_cell_bw);
        emit problem row name c (-1) Pb.Le 0.
      in
      link "link_out" fst;
      link "link_in" snd
    done
  end;
  add_combinatorial_cut problem row bnd t_var;
  Pb.set_objective problem Pb.Minimize (Lp.Expr.term t_var);
  let encode mapping =
    let x = Array.make (Pb.n_vars problem) 0. in
    for k = 0 to nt - 1 do
      x.(alpha.(k).(Mapping.pe mapping k)) <- 1.
    done;
    for e = 0 to ne - 1 do
      let { G.src; dst; _ } = G.edge g e in
      let sp = Mapping.pe mapping src and dp = Mapping.pe mapping dst in
      if sp <> dp then begin
        x.(outv.(e).(sp)) <- 1.;
        x.(inv.(e).(dp)) <- 1.
      end;
      let z = if sp = dp then zvars.(e).(sp) else -1 in
      if z >= 0 then x.(z) <- 1.;
      let gamma = if P.is_ppe platform dp then gvars.(e).(sp) else -1 in
      if gamma >= 0 then x.(gamma) <- 1.;
      let sc = P.cell_of platform sp and dc = P.cell_of platform dp in
      if sc <> dc && platform.P.n_cells > 1 then begin
        x.(fst cross_vars.(e).(sc)) <- 1.;
        x.(snd cross_vars.(e).(dc)) <- 1.
      end
    done;
    let loads =
      Steady_state.loads ~share_colocated_buffers platform g mapping
    in
    x.(t_var) <- Steady_state.period platform loads;
    x
  in
  { problem; t_var; alpha; encode }

let warm_start t platform g mapping =
  let x = Array.make (Pb.n_vars t.problem) 0. in
  for k = 0 to G.n_tasks g - 1 do
    x.(t.alpha.(k).(Mapping.pe mapping k)) <- 1.
  done;
  let l = Steady_state.loads platform g mapping in
  x.(t.t_var) <- Steady_state.period platform l;
  x

let mapping_of_solution t platform g x =
  let n = P.n_pes platform in
  let assign k =
    let best = ref 0 in
    for i = 1 to n - 1 do
      if x.(t.alpha.(k).(i)) > x.(t.alpha.(k).(!best)) then best := i
    done;
    !best
  in
  Mapping.make platform g (Array.init (G.n_tasks g) assign)
