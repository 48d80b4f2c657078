type solution = { x : float array; objective : float; iterations : int }
type result = Optimal of solution | Infeasible | Unbounded

(* Default-off observability hooks (see lib/obs): registered eagerly at
   module init — forcing a lazy cell from several domains is racy. *)
let m_solves =
  Obs.Metrics.counter ~help:"LP relaxations solved" "lp_simplex_solves_total"

let m_pivots =
  Obs.Metrics.counter ~help:"Simplex pivots (phase 1 + phase 2)"
       "lp_simplex_pivots_total"

let m_warm =
  Obs.Metrics.counter ~help:"LP solves answered by the dual-simplex warm path"
    "lp_warm_solves_total"

let m_warm_fail =
  Obs.Metrics.counter
    ~help:"Warm starts abandoned for a cold two-phase solve"
    "lp_warm_failures_total"

let m_iterations =
  Obs.Metrics.histogram ~help:"Pivots per solve"
       ~buckets:(Obs.Metrics.Histogram.log_buckets ~lo:1. ~factor:2. ~count:24 ())
       "lp_simplex_iterations_per_solve"

(* Tolerances. *)
let dual_tol = 1e-7  (* reduced-cost optimality threshold *)
let pivot_tol = 1e-9  (* smallest usable pivot magnitude *)
let feas_tol = 1e-7  (* phase-1 residual infeasibility threshold *)

type status = At_lower | At_upper | Basic | Free_nb

(* An exportable basis: one status per structural-then-slack variable
   plus the row -> basic-variable map. Artificials never appear (a basic
   artificial at zero is relabeled as the row's slack on export, which
   spans the same unit column). *)
type basis = { vstatus : status array; vbasis : int array }

(* Computational form: min c.x, A x = b (slack per row), l <= x <= u.
   Columns are sparse, stored flat: column j's entries sit at positions
   [col_start.(j)] to [col_start.(j+1) - 1] of [row_idx] (by increasing
   row) and [col_val]. The basis inverse is dense and column-major. The
   column arrays, [lb], [ub], [x] and [status] have room for an
   artificial per row; only the first [ntot] columns are read. *)
type tableau = {
  m : int;  (* rows *)
  ntot : int;  (* structural + slack + artificial columns *)
  n_struct : int;
  col_start : int array;
  row_idx : int array;
  col_val : float array;
  b : float array;
  c : float array;  (* current-phase cost *)
  lb : float array;
  ub : float array;
  x : float array;  (* current value of every variable *)
  status : status array;
  basis : int array;  (* row -> basic variable *)
  binv : float array;
      (* dense basis inverse, column-major: entry (i, j) at j*m + i. May
         be longer than m*m (see [inverse_buffer]); only the prefix is
         read. *)
  rowr : float array;
      (* pivot row r of binv, dense: the scaled row of the last update,
         or the row the dual ratio test gathered *)
  y : float array;  (* scratch: simplex multipliers *)
  w : float array;  (* scratch: FTRAN result *)
  gamma : float array;  (* Devex reference weights, one per column *)
}

(* The problem in computational form: columns, right-hand side and the
   bounds of the structural and slack columns, every array with room for
   the artificials. Structural columns 0..n-1 are the problem's rows
   transposed by a counting pass, so each lists its rows in increasing
   order; slack n+i is the unit column of row i, and artificial n+m+k
   gets the next slot when [cold_tableau] appends it. *)
let build problem ~lb_over ~ub_over =
  let n = Problem.n_vars problem and m = Problem.n_constrs problem in
  let pv = Problem.view problem in
  let bounds over own =
    match over with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Simplex.solve: override bounds have wrong length";
        a
    | None -> own
  in
  let lb_s = bounds lb_over pv.Problem.var_lb and ub_s = bounds ub_over pv.Problem.var_ub in
  for v = 0 to n - 1 do
    if lb_s.(v) > ub_s.(v) then invalid_arg "Simplex.solve: lb > ub"
  done;
  let max_cols = n + (2 * m) in
  let nnz = pv.Problem.row_start.(m) in
  let col_start = Array.make (max_cols + 1) 0 in
  let row_idx = Array.make (nnz + (2 * m)) 0 in
  let col_val = Array.make (nnz + (2 * m)) 0. in
  (* Count each column's entries into col_start.(v+1); the prefix sums
     then make col_start.(v) column v's start. *)
  for k = 0 to nnz - 1 do
    let v = pv.Problem.row_var.(k) + 1 in
    col_start.(v) <- col_start.(v) + 1
  done;
  for v = 1 to n do
    col_start.(v) <- col_start.(v) + col_start.(v - 1)
  done;
  for j = n + 1 to max_cols do
    col_start.(j) <- nnz + (j - n)
  done;
  let b = Array.make m 0. in
  (* Row equilibration: divide every row by its largest coefficient so that
     rows mixing unit-scale and bandwidth-scale terms keep meaningful
     tolerances. Pure row scaling leaves the solution unchanged. Each
     entry goes to its column's cursor, col_start.(v), which ends one
     column further on. *)
  for i = 0 to m - 1 do
    let lo = pv.Problem.row_start.(i) and hi = pv.Problem.row_start.(i + 1) in
    let biggest = ref 0. in
    for k = lo to hi - 1 do
      biggest := Float.max !biggest (abs_float pv.Problem.row_coef.(k))
    done;
    let scale = if !biggest > 0. then !biggest else 1. in
    b.(i) <- pv.Problem.row_rhs.(i) /. scale;
    for k = lo to hi - 1 do
      let v = pv.Problem.row_var.(k) in
      let p = col_start.(v) in
      row_idx.(p) <- i;
      col_val.(p) <- pv.Problem.row_coef.(k) /. scale;
      col_start.(v) <- p + 1
    done
  done;
  for v = n downto 1 do
    col_start.(v) <- col_start.(v - 1)
  done;
  col_start.(0) <- 0;
  let lb = Array.make max_cols 0. and ub = Array.make max_cols infinity in
  Array.blit lb_s 0 lb 0 n;
  Array.blit ub_s 0 ub 0 n;
  (* One slack per row; its bounds encode the relation. *)
  for i = 0 to m - 1 do
    let s = n + i in
    row_idx.(nnz + i) <- i;
    col_val.(nnz + i) <- 1.;
    match pv.Problem.row_rel.(i) with
    | Problem.Le ->
        lb.(s) <- 0.;
        ub.(s) <- infinity
    | Problem.Ge ->
        lb.(s) <- neg_infinity;
        ub.(s) <- 0.
    | Problem.Eq ->
        lb.(s) <- 0.;
        ub.(s) <- 0.
  done;
  (m, n, col_start, row_idx, col_val, b, lb, ub)

(* Every non-slack, non-artificial variable starts nonbasic at the finite
   bound nearest zero, or at 0 when free. *)
let[@inline] initial_status lb ub =
  if lb = neg_infinity && ub = infinity then Free_nb
  else if lb = neg_infinity then At_upper
  else if ub = infinity then At_lower
  else if abs_float lb <= abs_float ub then At_lower
  else At_upper

(* Residual of row i given nonbasic values: b_i - sum_j a_ij x_j over
   structural columns. *)
let residuals n col_start row_idx col_val b x =
  let r = Array.copy b in
  for v = 0 to n - 1 do
    if x.(v) <> 0. then
      for k = col_start.(v) to col_start.(v + 1) - 1 do
        r.(row_idx.(k)) <- r.(row_idx.(k)) -. (col_val.(k) *. x.(v))
      done
  done;
  r

exception Unbounded_exn
exception Iteration_limit
exception Numerics  (* warm-start path gave up; caller falls back cold *)

(* Per-domain scratch, grown on demand: two index lists of up to m rows
   and the reusable basis inverse. A solve runs start to finish on one
   domain without yielding, so its tableau never shares them with another
   live solve. The index lists start at 2048 rows, above the mapping
   heuristics' 2000-row LP limit, and the main domain's are allocated here
   at start-up rather than by the first solve, so every solve allocates
   the same. Allocating them per solve instead (m words each, straight
   into the malloc'd major heap) raised the peak RSS of repeated
   relaxation solves by about 1 MB. *)
type scratch = {
  mutable nz : int array;
  mutable nz2 : int array;
  mutable inv : float array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { nz = Array.make 2048 0; nz2 = Array.make 2048 0; inv = [||] })

let () = ignore (Domain.DLS.get scratch_key)

let index_scratch m =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.nz < m then begin
    s.nz <- Array.make m 0;
    s.nz2 <- Array.make m 0
  end;
  s

(* Bases up to this many rows reuse the domain's inverse buffer (8 MB at
   the cap); larger ones allocate their own, as every solve once did. A
   fresh m x m block per solve page-faults 0.3-2 MB at relaxation sizes
   and keeps the major GC busy. *)
let inverse_reuse_rows = 1024

(* An m x m inverse for a new tableau. The contents are stale: the
   caller fills the first m*m entries. *)
let inverse_buffer m =
  let mm = m * m in
  if m > inverse_reuse_rows then Array.make mm 0.
  else begin
    let s = Domain.DLS.get scratch_key in
    if Array.length s.inv < mm then s.inv <- Array.make mm 0.;
    s.inv
  end

(* The dense-inverse kernels. Each entry of the inverse, and of every
   vector computed from it, receives the floating-point operations of the
   row-major loops these replaced, in the same order; only the traversal
   changed. Like those loops, the kernels skip the zeros of their pivot
   row: an entry they skip would have received x - f*(+-0), which leaves
   a nonzero x unchanged and can at most flip the sign of a zero; every
   reader of the inverse either tests [<> 0.] or sums products into an
   accumulator that starts at +0, so no answer can tell. *)

(* The kernels' inner loops index without bounds checks; each kernel
   checks its array lengths, and every row or column index it forms,
   once, outside those loops. *)
let check_sizes ~m binv u v =
  if Array.length binv < m * m || Array.length u < m || Array.length v < m then
    invalid_arg "Simplex: kernel arrays shorter than the basis"

(* FTRAN: w = B^-1 a for the sparse column held at positions [lo, hi) of
   (idx, vl), one contiguous axpy per nonzero. *)
let ftran ~m binv idx vl lo hi w =
  check_sizes ~m binv w w;
  if lo < 0 || hi > Array.length idx || hi > Array.length vl then
    invalid_arg "Simplex.ftran: column out of range";
  Array.fill w 0 m 0.;
  for k = lo to hi - 1 do
    let col = idx.(k) and v = vl.(k) in
    if col < 0 || col >= m then invalid_arg "Simplex.ftran: row index out of range";
    let base = col * m in
    for i = 0 to m - 1 do
      Array.unsafe_set w i (Array.unsafe_get w i +. (Array.unsafe_get binv (base + i) *. v))
    done
  done

(* BTRAN: y = c_B B^-1, c_B being the costs [c] of the [basis]. The rows
   with a nonzero basic cost are gathered once (indices into [nz], costs
   into [cbz]); each y_j is then one short dot product down column j, in
   increasing row order from +0. *)
let btran ~m binv c basis nz cbz y =
  check_sizes ~m binv cbz y;
  if Array.length nz < m then invalid_arg "Simplex.btran: scratch shorter than the basis";
  let nnz = ref 0 in
  for i = 0 to m - 1 do
    let v = c.(basis.(i)) in
    if v <> 0. then begin
      nz.(!nnz) <- i;
      cbz.(!nnz) <- v;
      incr nnz
    end
  done;
  let nnz = !nnz in
  for j = 0 to m - 1 do
    let base = j * m in
    let acc = ref 0. in
    for k = 0 to nnz - 1 do
      acc :=
        !acc +. (Array.unsafe_get cbz k *. Array.unsafe_get binv (base + Array.unsafe_get nz k))
    done;
    y.(j) <- !acc
  done

(* out = B^-1 r, one axpy per column. A column with r_j = 0 is skipped:
   it would add +-0 to accumulators that start at +0 and so can never be
   -0, which changes none of them. *)
let apply_inverse ~m binv r out =
  check_sizes ~m binv r out;
  Array.fill out 0 m 0.;
  for j = 0 to m - 1 do
    let rj = r.(j) in
    if rj <> 0. then begin
      let base = j * m in
      for i = 0 to m - 1 do
        Array.unsafe_set out i (Array.unsafe_get out i +. (Array.unsafe_get binv (base + i) *. rj))
      done
    end
  done

(* Rank-1 update of the inverse after pivoting into row r; [w] is the
   FTRAN result B^-1 A_q. Row r (strided here) is scaled by 1/w_r and
   copied into [rowr], its nonzero columns gathered into [nz]; the rows
   i <> r with w_i <> 0 are gathered into [wnz]. Each nonzero column j
   then gets one gathered axpy b_ij -= w_i * p_j: O(nnz(w) * nnz(row))
   rather than O(m^2). *)
let update_binv ~m binv rowr nz wnz w r =
  check_sizes ~m binv rowr w;
  if Array.length nz < m || Array.length wnz < m || r < 0 || r >= m then
    invalid_arg "Simplex.update_binv: scratch or pivot row out of range";
  let inv = 1. /. w.(r) in
  let nnz = ref 0 in
  for j = 0 to m - 1 do
    let p = binv.((j * m) + r) *. inv in
    binv.((j * m) + r) <- p;
    rowr.(j) <- p;
    if p <> 0. then begin
      nz.(!nnz) <- j;
      incr nnz
    end
  done;
  let nw = ref 0 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then begin
      wnz.(!nw) <- i;
      incr nw
    end
  done;
  let nw = !nw in
  for k = 0 to !nnz - 1 do
    let j = nz.(k) in
    let base = j * m and p = rowr.(j) in
    for l = 0 to nw - 1 do
      let i = Array.unsafe_get wnz l in
      Array.unsafe_set binv (base + i)
        (Array.unsafe_get binv (base + i) -. (Array.unsafe_get w i *. p))
    done
  done

(* Recompute basic values from scratch: x_B = B^-1 (b - N x_N). The
   right-hand side is built in tab.y and the product in tab.w: every
   reader of either recomputes it first. *)
let refresh_basics tab =
  let m = tab.m in
  let r = tab.y in
  Array.blit tab.b 0 r 0 m;
  for v = 0 to tab.ntot - 1 do
    if tab.status.(v) <> Basic && tab.x.(v) <> 0. then
      for k = tab.col_start.(v) to tab.col_start.(v + 1) - 1 do
        r.(tab.row_idx.(k)) <- r.(tab.row_idx.(k)) -. (tab.col_val.(k) *. tab.x.(v))
      done
  done;
  apply_inverse ~m tab.binv r tab.w;
  for i = 0 to m - 1 do
    tab.x.(tab.basis.(i)) <- tab.w.(i)
  done

(* BTRAN into tab.y; tab.w holds the gathered costs. *)
let compute_multipliers tab =
  btran ~m:tab.m tab.binv tab.c tab.basis (index_scratch tab.m).nz tab.w tab.y

(* Reduced cost of column q against the multipliers in tab.y. *)
let reduced_cost tab q =
  let d = ref tab.c.(q) in
  let y = tab.y in
  for k = tab.col_start.(q) to tab.col_start.(q + 1) - 1 do
    d := !d -. (y.(tab.row_idx.(k)) *. tab.col_val.(k))
  done;
  !d

let update tab w r =
  let s = index_scratch tab.m in
  update_binv ~m:tab.m tab.binv tab.rowr s.nz s.nz2 w r

(* Test hooks (see [For_testing]). [singular_column]: when >= 0,
   [gauss_jordan] treats this column as singular. [force_bland]: pricing
   follows Bland's rule at the iterations it accepts. [gamma_reset_mask]:
   the Devex weights are reset at the iterations where iters land mask =
   0. [corrupt_at]: when >= 0, the first basis change at that iteration of
   a phase scales a column of the inverse, as drift would, and disarms.
   [repairs] counts the points that failed the residual check. *)
let singular_column = ref (-1)
let force_bland = ref (fun (_ : int) -> false)
let gamma_reset_mask = ref 4095
let corrupt_at = ref (-1)
let repairs = Atomic.make 0

(* Scale row [base] of the m-column row-major [arr] by [inv] and gather
   the column indices of its nonzeros into [nz]; returns their count.
   The per-row subtractions below are written out at each call site: a
   float passed to a non-inlined function is boxed, once per row. *)
let scale_and_gather ~m arr base inv nz =
  let nnz = ref 0 in
  for j = 0 to m - 1 do
    let p = arr.(base + j) *. inv in
    arr.(base + j) <- p;
    if p <> 0. then begin
      nz.(!nnz) <- j;
      incr nnz
    end
  done;
  !nnz

(* Gauss-Jordan with partial pivoting: reduce the m x m row-major [a] to
   the identity while applying the same row operations to [inv], which
   should hold the identity on entry and ends as a^-1. Each pivot row is
   gathered once, for [a] and [inv] separately.
   @raise Numerics on a pivot below 1e-11 in magnitude, with [a] and
   [inv] part-way eliminated. *)
let gauss_jordan ~m a inv =
  let nz_a = Array.make m 0 and nz_inv = Array.make m 0 in
  let swap_rows arr r1 r2 =
    if r1 <> r2 then begin
      let b1 = r1 * m and b2 = r2 * m in
      for j = 0 to m - 1 do
        let t = arr.(b1 + j) in
        arr.(b1 + j) <- arr.(b2 + j);
        arr.(b2 + j) <- t
      done
    end
  in
  for col = 0 to m - 1 do
    let p = ref col in
    for i = col + 1 to m - 1 do
      if abs_float a.((i * m) + col) > abs_float a.((!p * m) + col) then p := i
    done;
    let piv = a.((!p * m) + col) in
    if abs_float piv < 1e-11 || col = !singular_column then raise Numerics;
    swap_rows a !p col;
    swap_rows inv !p col;
    let base = col * m in
    let scale = 1. /. piv in
    let nnz_a = scale_and_gather ~m a base scale nz_a in
    let nnz_inv = scale_and_gather ~m inv base scale nz_inv in
    for i = 0 to m - 1 do
      if i <> col then begin
        let f = a.((i * m) + col) in
        if f <> 0. then begin
          let ibase = i * m in
          for k = 0 to nnz_a - 1 do
            let j = nz_a.(k) in
            a.(ibase + j) <- a.(ibase + j) -. (f *. a.(base + j))
          done;
          for k = 0 to nnz_inv - 1 do
            let j = nz_inv.(k) in
            inv.(ibase + j) <- inv.(ibase + j) -. (f *. inv.(base + j))
          done
        end
      end
    done
  done

(* Rebuild tab.binv exactly from the current basis columns. Makes the
   final point a pure function of the final basis (no drift from
   accumulated rank-1 updates), which is what lets a warm solve that
   lands on the same basis as a cold solve reproduce it bitwise. The
   elimination runs row-major in fresh arrays; only once it has
   succeeded is the transposed result written into tab.binv.
   @raise Numerics when the basis matrix is (near-)singular; tab.binv
   is then untouched. *)
let refactorize tab =
  let m = tab.m in
  let a = Array.make (m * m) 0. in
  for j = 0 to m - 1 do
    let v = tab.basis.(j) in
    for k = tab.col_start.(v) to tab.col_start.(v + 1) - 1 do
      a.((tab.row_idx.(k) * m) + j) <- tab.col_val.(k)
    done
  done;
  let inv = Array.make (m * m) 0. in
  for i = 0 to m - 1 do
    inv.((i * m) + i) <- 1.
  done;
  gauss_jordan ~m a inv;
  for i = 0 to m - 1 do
    let base = i * m in
    for j = 0 to m - 1 do
      tab.binv.((j * m) + i) <- inv.(base + j)
    done
  done

(* Devex. After a basis change that brought column q in through pivot
   row r, every nonbasic weight becomes max(gamma_j, alpha_rj^2 gamma_q),
   alpha_rj read off the scaled pivot row in tab.rowr, and the leaving
   variable's becomes max(gamma_q / w_r^2, 1). [optimize] sets the
   leaving variable's at pivot time and leaves the rest pending: the next
   pricing sweep applies each column's update just before pricing it.
   Each weight depends only on its own column, so the bits are those of a
   separate pass. gamma_q is read from column [pend_q], now basic, whose
   weight no sweep writes and no pivot touches while the update is
   pending (a reset drops it). *)
let devex_column tab ~pend_q j =
  let gq = tab.gamma.(pend_q) in
  let a = ref 0. in
  for k = tab.col_start.(j) to tab.col_start.(j + 1) - 1 do
    a := !a +. (tab.rowr.(tab.row_idx.(k)) *. tab.col_val.(k))
  done;
  let cand = !a *. !a *. gq in
  if cand > tab.gamma.(j) then tab.gamma.(j) <- cand

(* The pending update as its own pass. *)
let devex_pass tab ~pend_q ~pend_lv =
  for j = 0 to tab.ntot - 1 do
    if j <> pend_lv && tab.status.(j) <> Basic then devex_column tab ~pend_q j
  done

(* Pricing: the entering column, or -1 at optimality. Devex takes the
   largest d_j^2 / gamma_j; Bland's rule takes the first improving
   column. [pend_q] >= 0 is the pending Devex update's entering column
   and [pend_lv] its leaving variable. Bland's sweep stops early, so it
   runs a pending update as its own pass first. *)
let price tab ~bland ~pend_q ~pend_lv =
  let pend_q =
    if bland && pend_q >= 0 then begin
      devex_pass tab ~pend_q ~pend_lv;
      -1
    end
    else pend_q
  in
  let ntot = tab.ntot and y = tab.y in
  let best = ref (-1) and best_score = ref neg_infinity in
  let j = ref 0 in
  while !j < ntot do
    let q = !j in
    (match tab.status.(q) with
    | Basic -> ()
    | st ->
        if pend_q >= 0 && q <> pend_lv then devex_column tab ~pend_q q;
        let d = ref tab.c.(q) in
        for k = tab.col_start.(q) to tab.col_start.(q + 1) - 1 do
          d := !d -. (y.(tab.row_idx.(k)) *. tab.col_val.(k))
        done;
        let improving =
          match st with
          | At_lower -> !d < -.dual_tol
          | At_upper -> !d > dual_tol
          | Free_nb -> !d < -.dual_tol || !d > dual_tol
          | Basic -> false
        in
        if improving then
          if bland then begin
            best := q;
            j := ntot
          end
          else begin
            let score = !d *. !d /. tab.gamma.(q) in
            if score > !best_score then begin
              best := q;
              best_score := score
            end
          end);
    incr j
  done;
  !best

(* Scale column 0 of the inverse (see [corrupt_at]). *)
let corrupt tab =
  corrupt_at := -1;
  for i = 0 to tab.m - 1 do
    tab.binv.(i) <- tab.binv.(i) *. 1.001
  done

(* One primal simplex phase: optimize tab.c from the current basis.
   Devex pricing (reference weights in tab.gamma) with a Bland's-rule
   fallback against cycling. *)
let optimize tab ~max_iters =
  let m = tab.m and ntot = tab.ntot in
  let iters = ref 0 in
  let degenerate_run = ref 0 in
  let use_bland () = !degenerate_run > 200 + m || !force_bland !iters in
  Array.fill tab.gamma 0 ntot 1.;
  (* The last basis change's pending Devex update: its entering column
     (-1: none) and leaving variable. *)
  let pend_q = ref (-1) and pend_lv = ref (-1) in
  let continue_ = ref true in
  while !continue_ do
    if !iters >= max_iters then raise Iteration_limit;
    incr iters;
    if !iters land 1023 = 0 then refresh_basics tab;
    (* A Devex reference framework goes stale after many pivots. *)
    if !iters land !gamma_reset_mask = 0 then begin
      Array.fill tab.gamma 0 ntot 1.;
      pend_q := -1
    end;
    compute_multipliers tab;
    let bland = use_bland () in
    let q = price tab ~bland ~pend_q:!pend_q ~pend_lv:!pend_lv in
    pend_q := -1;
    if q < 0 then continue_ := false
    else begin
      (* Entering moves up from a lower bound, down from an upper one; a
         free column against the sign of its reduced cost. *)
      let dir =
        match tab.status.(q) with
        | At_upper -> -1.
        | Free_nb when reduced_cost tab q > dual_tol -> -1.
        | _ -> 1.
      in
      (* FTRAN: w = B^-1 A_q. *)
      let w = tab.w in
      ftran ~m tab.binv tab.row_idx tab.col_val tab.col_start.(q) tab.col_start.(q + 1) w;
      (* Ratio test: entering moves by t >= 0 in direction [dir]; basic i
         moves by delta_i * t with delta_i = -dir * w_i. *)
      let t_bound =
        if tab.lb.(q) > neg_infinity && tab.ub.(q) < infinity then
          tab.ub.(q) -. tab.lb.(q)
        else infinity
      in
      let t_min = ref t_bound and leave = ref (-1) and leave_to_upper = ref false in
      for i = 0 to m - 1 do
        let delta = -.dir *. w.(i) in
        if abs_float delta > pivot_tol then begin
          let bi = tab.basis.(i) in
          let xi = tab.x.(bi) in
          let t =
            if delta > 0. then
              if tab.ub.(bi) < infinity then (tab.ub.(bi) -. xi) /. delta
              else infinity
            else if tab.lb.(bi) > neg_infinity then (tab.lb.(bi) -. xi) /. delta
            else infinity
          in
          let t = Float.max 0. t in
          (* Prefer strictly smaller ratios; among (near-)ties keep the
             larger pivot for stability. *)
          if
            t < !t_min -. 1e-12
            || (t <= !t_min +. 1e-12
               && !leave >= 0
               && abs_float delta
                  > abs_float (-.dir *. w.(!leave)))
          then begin
            t_min := t;
            leave := i;
            leave_to_upper := delta > 0.
          end
        end
      done;
      if !t_min = infinity then raise Unbounded_exn;
      let t = !t_min in
      if t <= 1e-12 then incr degenerate_run else degenerate_run := 0;
      (* Apply the step to all basic variables. *)
      for i = 0 to m - 1 do
        let delta = -.dir *. w.(i) in
        if delta <> 0. then begin
          let bi = tab.basis.(i) in
          tab.x.(bi) <- tab.x.(bi) +. (delta *. t)
        end
      done;
      if !leave < 0 then begin
        (* Bound flip: entering jumps to its other bound; basis unchanged. *)
        tab.x.(q) <- (if dir > 0. then tab.ub.(q) else tab.lb.(q));
        tab.status.(q) <- (if dir > 0. then At_upper else At_lower)
      end
      else begin
        let r = !leave in
        let lv = tab.basis.(r) in
        (* Leaving variable settles on the bound it reached. *)
        if !leave_to_upper then begin
          tab.x.(lv) <- tab.ub.(lv);
          tab.status.(lv) <- At_upper
        end
        else begin
          tab.x.(lv) <- tab.lb.(lv);
          tab.status.(lv) <- At_lower
        end;
        tab.x.(q) <- tab.x.(q) +. (dir *. t);
        tab.status.(q) <- Basic;
        tab.basis.(r) <- q;
        let wr = w.(r) in
        update tab w r;
        if !iters = !corrupt_at then corrupt tab;
        if not bland then begin
          tab.gamma.(lv) <- Float.max (tab.gamma.(q) /. (wr *. wr)) 1.;
          pend_q := q;
          pend_lv := lv
        end
      end
    end
  done;
  !iters

(* Dual simplex: from a dual-feasible basis whose basic values may
   violate their bounds (the warm-start situation: a child node flipped
   a bound under its parent's optimal basis), pivot until primal
   feasible. Each iteration picks the worst-violating row, then the
   entering column by the bounded-variable dual ratio test, which keeps
   every nonbasic reduced cost on its feasible side.
   @raise Numerics on a vanishing pivot (caller falls back cold)
   @raise Exit when some row has no entering candidate: the dual is
   unbounded, i.e. the (child) LP is infeasible. *)
let dual_optimize tab ~max_iters =
  let m = tab.m and ntot = tab.ntot in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if !iters >= max_iters then raise Iteration_limit;
    incr iters;
    if !iters land 255 = 0 then refresh_basics tab;
    (* Leaving row: largest primal bound violation among basic vars. *)
    let r = ref (-1) and worst = ref feas_tol and viol_up = ref false in
    for i = 0 to m - 1 do
      let bi = tab.basis.(i) in
      let xi = tab.x.(bi) in
      if xi -. tab.ub.(bi) > !worst then begin
        r := i;
        worst := xi -. tab.ub.(bi);
        viol_up := true
      end
      else if tab.lb.(bi) -. xi > !worst then begin
        r := i;
        worst := tab.lb.(bi) -. xi;
        viol_up := false
      end
    done;
    if !r < 0 then continue_ := false
    else begin
      let r = !r and up = !viol_up in
      compute_multipliers tab;
      let rowr = tab.rowr in
      for j = 0 to m - 1 do
        rowr.(j) <- tab.binv.((j * m) + r)
      done;
      (* Dual ratio test: minimize |d_j| / |alpha_j| over columns that can
         move the leaving variable back toward its violated bound. *)
      let q = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0. in
      for j = 0 to ntot - 1 do
        match tab.status.(j) with
        | Basic -> ()
        | st ->
            let a = ref 0. in
            for k = tab.col_start.(j) to tab.col_start.(j + 1) - 1 do
              a := !a +. (rowr.(tab.row_idx.(k)) *. tab.col_val.(k))
            done;
            let alpha = !a in
            let candidate =
              abs_float alpha > pivot_tol
              &&
              (* [up]: x_Br must decrease; d x_Br / d x_j = -alpha. *)
              match st with
              | At_lower -> if up then alpha > 0. else alpha < 0.
              | At_upper -> if up then alpha < 0. else alpha > 0.
              | Free_nb -> true
              | Basic -> false
            in
            if candidate then begin
              let d = reduced_cost tab j in
              let ratio = abs_float d /. abs_float alpha in
              if
                ratio < !best_ratio -. 1e-12
                || (ratio <= !best_ratio +. 1e-12
                   && abs_float alpha > abs_float !best_alpha)
              then begin
                q := j;
                best_ratio := ratio;
                best_alpha := alpha
              end
            end
      done;
      if !q < 0 then raise Exit (* dual unbounded: primal infeasible *);
      let q = !q in
      let w = tab.w in
      ftran ~m tab.binv tab.row_idx tab.col_val tab.col_start.(q) tab.col_start.(q + 1) w;
      if abs_float w.(r) < pivot_tol then raise Numerics;
      let bi = tab.basis.(r) in
      let target = if up then tab.ub.(bi) else tab.lb.(bi) in
      let dxq = (tab.x.(bi) -. target) /. w.(r) in
      for i = 0 to m - 1 do
        if w.(i) <> 0. then begin
          let v = tab.basis.(i) in
          tab.x.(v) <- tab.x.(v) -. (w.(i) *. dxq)
        end
      done;
      tab.x.(bi) <- target;
      tab.status.(bi) <- (if up then At_upper else At_lower);
      tab.x.(q) <- tab.x.(q) +. dxq;
      tab.status.(q) <- Basic;
      tab.basis.(r) <- q;
      update tab w r
    end
  done;
  !iters

(* ------------------------------------------------------------------ *)
(* Basis export / import                                               *)

let export_basis tab =
  let n = tab.n_struct and m = tab.m in
  let vstatus = Array.make (n + m) At_lower in
  Array.blit tab.status 0 vstatus 0 (n + m);
  let vbasis = Array.make m 0 in
  for i = 0 to m - 1 do
    let bi = tab.basis.(i) in
    if bi < n + m then vbasis.(i) <- bi
    else begin
      (* A basic artificial sits at zero and spans the same unit column
         as the row's slack; relabel so the export is artificial-free. *)
      vbasis.(i) <- n + i;
      vstatus.(n + i) <- Basic
    end
  done;
  { vstatus; vbasis }

(* Relabel any basic artificial as the row's slack in place, so the
   final refactorization and point extraction see the same basis a
   warm import would rebuild. *)
let drop_artificials tab =
  let n = tab.n_struct and m = tab.m in
  for i = 0 to m - 1 do
    let bi = tab.basis.(i) in
    if bi >= n + m then begin
      let s = n + i in
      tab.basis.(i) <- s;
      tab.status.(s) <- Basic;
      tab.status.(bi) <- At_lower;
      tab.x.(bi) <- 0.
    end
  done

(* Structural reduced costs against the tableau's current costs
   (internal minimization sense); basic variables get 0. *)
let structural_reduced_costs tab =
  compute_multipliers tab;
  Array.init tab.n_struct (fun v ->
      if tab.status.(v) = Basic then 0. else reduced_cost tab v)

(* ------------------------------------------------------------------ *)
(* Cold two-phase path                                                 *)

(* Build the phase-1 tableau: nonbasic structurals at a bound, slacks
   basic where the residual fits, artificials elsewhere. *)
let cold_tableau problem ~lb_over ~ub_over =
  let m, n, col_start, row_idx, col_val, b, lb, ub = build problem ~lb_over ~ub_over in
  let max_cols = n + (2 * m) in
  let x = Array.make max_cols 0. in
  let status = Array.make max_cols At_lower in
  for v = 0 to n - 1 do
    let st = initial_status lb.(v) ub.(v) in
    status.(v) <- st;
    x.(v) <- (match st with At_lower -> lb.(v) | At_upper -> ub.(v) | Basic | Free_nb -> 0.)
  done;
  let r = residuals n col_start row_idx col_val b x in
  let basis = Array.make m 0 in
  (* B starts as a signed identity: slack rows carry +1, rows held by a
     negatively-signed artificial carry -1, so B^-1 = B. *)
  let binv = inverse_buffer m in
  Array.fill binv 0 (m * m) 0.;
  let n_art = ref 0 in
  for i = 0 to m - 1 do
    let s = n + i in
    if r.(i) >= lb.(s) -. 1e-12 && r.(i) <= ub.(s) +. 1e-12 then begin
      basis.(i) <- s;
      status.(s) <- Basic;
      x.(s) <- r.(i);
      binv.((i * m) + i) <- 1.
    end
    else begin
      let clamped = if r.(i) > ub.(s) then ub.(s) else lb.(s) in
      x.(s) <- clamped;
      status.(s) <- (if clamped = ub.(s) then At_upper else At_lower);
      let a = n + m + !n_art in
      incr n_art;
      let gap = r.(i) -. clamped in
      let sigma = if gap >= 0. then 1. else -1. in
      row_idx.(col_start.(a)) <- i;
      col_val.(col_start.(a)) <- sigma;
      lb.(a) <- 0.;
      ub.(a) <- infinity;
      x.(a) <- abs_float gap;
      status.(a) <- Basic;
      basis.(i) <- a;
      binv.((i * m) + i) <- sigma
    end
  done;
  let ntot = n + m + !n_art in
  let tab =
    {
      m;
      ntot;
      n_struct = n;
      col_start;
      row_idx;
      col_val;
      b;
      c = Array.make ntot 0.;
      lb;
      ub;
      x;
      status;
      basis;
      binv;
      rowr = Array.make m 0.;
      y = Array.make m 0.;
      w = Array.make m 0.;
      gamma = Array.make ntot 1.;
    }
  in
  (tab, !n_art)

let set_phase2_costs tab problem =
  let sense, obj = Problem.objective problem in
  let sign = match sense with Problem.Minimize -> 1. | Problem.Maximize -> -1. in
  Array.fill tab.c 0 tab.ntot 0.;
  List.iter (fun (v, coef) -> tab.c.(v) <- sign *. coef) (Expr.to_list obj)

(* Run the two phases on a cold tableau. Leaves phase-2 costs in tab.c.
   @raise Exit on phase-1 infeasibility. *)
let run_two_phases tab ~n_art problem ~max_iters =
  let n = tab.n_struct and m = tab.m and ntot = tab.ntot in
  let iters1 =
    if n_art = 0 then 0
    else begin
      for a = n + m to ntot - 1 do
        tab.c.(a) <- 1.
      done;
      let it = optimize tab ~max_iters in
      refresh_basics tab;
      let infeas = ref 0. in
      for a = n + m to ntot - 1 do
        infeas := !infeas +. tab.x.(a)
      done;
      if !infeas > feas_tol then raise Exit;
      (* Freeze artificials at zero for phase 2. *)
      for a = n + m to ntot - 1 do
        tab.c.(a) <- 0.;
        tab.lb.(a) <- 0.;
        tab.ub.(a) <- 0.;
        if tab.status.(a) <> Basic then begin
          tab.x.(a) <- 0.;
          tab.status.(a) <- At_lower
        end
      done;
      it
    end
  in
  set_phase2_costs tab problem;
  let iters2 = optimize tab ~max_iters in
  refresh_basics tab;
  iters1 + iters2

let record_iterations iterations =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_pivots iterations;
    Obs.Metrics.Histogram.observe m_iterations (float_of_int iterations)
  end

let primal_feasible tab =
  let ok = ref true in
  for v = 0 to tab.ntot - 1 do
    if tab.x.(v) < tab.lb.(v) -. feas_tol || tab.x.(v) > tab.ub.(v) +. feas_tol
    then ok := false
  done;
  !ok

(* Worst violation of the current point: the largest primal residual
   |b - A x| over the equilibrated rows, every column counted, or the
   largest distance of a variable outside its bounds; NaN when the point
   has one. The residuals are built in tab.w. *)
let primal_violation tab =
  let r = tab.w in
  Array.blit tab.b 0 r 0 tab.m;
  for v = 0 to tab.ntot - 1 do
    let xv = tab.x.(v) in
    if xv <> 0. then
      for k = tab.col_start.(v) to tab.col_start.(v + 1) - 1 do
        r.(tab.row_idx.(k)) <- r.(tab.row_idx.(k)) -. (tab.col_val.(k) *. xv)
      done
  done;
  let worst = ref 0. in
  for i = 0 to tab.m - 1 do
    worst := Float.max !worst (abs_float r.(i))
  done;
  for v = 0 to tab.ntot - 1 do
    worst := Float.max !worst (Float.max (tab.lb.(v) -. tab.x.(v)) (tab.x.(v) -. tab.ub.(v)))
  done;
  !worst

let residual_failure = "Simplex: optimal point fails its residual check after refactorization"

(* Check before claiming optimal. The basic values come from an inverse
   that rank-1 updates may have let drift, so a point whose violation
   exceeds feas_tol is not returned. The basis is refactorized and the
   basic values refreshed instead; if that point left its bounds, dual
   simplex restores them; then phase 2 resumes. Returns the pivots the
   repair took (0 when the point passed).
   @raise Failure [residual_failure] when the repaired point fails too. *)
let check_point tab ~max_iters =
  if primal_violation tab <= feas_tol then 0
  else begin
    Atomic.incr repairs;
    match
      refactorize tab;
      refresh_basics tab;
      let it_dual = if primal_feasible tab then 0 else dual_optimize tab ~max_iters in
      let it = optimize tab ~max_iters in
      refresh_basics tab;
      it_dual + it
    with
    | it when primal_violation tab <= feas_tol -> it
    | _ | (exception (Numerics | Exit | Unbounded_exn | Iteration_limit)) ->
        failwith residual_failure
  end

let solve ?lb:lb_over ?ub:ub_over problem =
  let tab, n_art = cold_tableau problem ~lb_over ~ub_over in
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_solves;
  let max_iters = max 20_000 (4 * (tab.m + tab.n_struct)) in
  try
    let iterations = run_two_phases tab ~n_art problem ~max_iters in
    let iterations = iterations + check_point tab ~max_iters in
    let xsol = Array.sub tab.x 0 tab.n_struct in
    let objective = Problem.eval_objective problem xsol in
    record_iterations iterations;
    Optimal { x = xsol; objective; iterations }
  with
  | Exit -> Infeasible
  | Unbounded_exn -> Unbounded
  | Iteration_limit ->
      (* Extremely defensive: treat as numerical failure. *)
      failwith "Simplex.solve: iteration limit exceeded"

(* ------------------------------------------------------------------ *)
(* Warm-capable detailed interface                                     *)

type solved = {
  sol : solution;
  sbasis : basis;
  reduced_costs : float array;
      (* structural, internal minimization sense; 0 for basic vars *)
  warm : bool;  (* true when the dual-simplex warm path answered *)
}

type basis_result = Opt of solved | Infeas | Unbound

(* Extract the final answer: relabel artificials, refactorize so the
   point is a pure function of the final basis, refresh, check, package. *)
let finish_detailed tab problem ~iterations ~max_iters ~warm =
  drop_artificials tab;
  (try refactorize tab with Numerics -> () (* keep the incremental binv *));
  refresh_basics tab;
  let iterations = iterations + check_point tab ~max_iters in
  let xsol = Array.sub tab.x 0 tab.n_struct in
  let objective = Problem.eval_objective problem xsol in
  record_iterations iterations;
  Opt
    {
      sol = { x = xsol; objective; iterations };
      sbasis = export_basis tab;
      reduced_costs = structural_reduced_costs tab;
      warm;
    }

let cold_detailed problem ~lb_over ~ub_over =
  let tab, n_art = cold_tableau problem ~lb_over ~ub_over in
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_solves;
  let max_iters = max 20_000 (4 * (tab.m + tab.n_struct)) in
  try
    let iterations = run_two_phases tab ~n_art problem ~max_iters in
    finish_detailed tab problem ~iterations ~max_iters ~warm:false
  with
  | Exit -> Infeas
  | Unbounded_exn -> Unbound
  | Iteration_limit -> failwith "Simplex.solve: iteration limit exceeded"

(* Rebuild a tableau from an exported basis under (possibly tightened)
   bounds: nonbasic variables snap to their status' bound, the basis
   inverse is refactorized from scratch.
   @raise Numerics when the basis does not fit the problem. *)
let import_tableau problem ~lb_over ~ub_over (bas : basis) =
  let m, n, col_start, row_idx, col_val, b, lb, ub = build problem ~lb_over ~ub_over in
  if Array.length bas.vstatus <> n + m || Array.length bas.vbasis <> m then
    raise Numerics;
  let ntot = n + m in
  let status = Array.make ntot At_lower in
  Array.blit bas.vstatus 0 status 0 ntot;
  let x = Array.make ntot 0. in
  let n_basic = ref 0 in
  for v = 0 to ntot - 1 do
    match status.(v) with
    | Basic -> incr n_basic
    | At_lower ->
        if lb.(v) = neg_infinity then raise Numerics;
        x.(v) <- lb.(v)
    | At_upper ->
        if ub.(v) = infinity then raise Numerics;
        x.(v) <- ub.(v)
    | Free_nb -> x.(v) <- 0.
  done;
  if !n_basic <> m then raise Numerics;
  let basis = Array.make m 0 in
  for i = 0 to m - 1 do
    let v = bas.vbasis.(i) in
    if v < 0 || v >= ntot || status.(v) <> Basic then raise Numerics;
    basis.(i) <- v
  done;
  let tab =
    {
      m;
      ntot;
      n_struct = n;
      col_start;
      row_idx;
      col_val;
      b;
      c = Array.make ntot 0.;
      lb;
      ub;
      x;
      status;
      basis;
      binv = inverse_buffer m (* filled by [refactorize] below *);
      rowr = Array.make m 0.;
      y = Array.make m 0.;
      w = Array.make m 0.;
      gamma = Array.make ntot 1.;
    }
  in
  refactorize tab;
  refresh_basics tab;
  tab

let dual_feasible tab =
  compute_multipliers tab;
  let ok = ref true in
  (* 1e-6: mildly looser than dual_tol so a parent basis within pricing
     tolerance is not bounced to a cold solve. *)
  for q = 0 to tab.ntot - 1 do
    if !ok then
      match tab.status.(q) with
      | Basic -> ()
      | At_lower -> if reduced_cost tab q < -1e-6 then ok := false
      | At_upper -> if reduced_cost tab q > 1e-6 then ok := false
      | Free_nb -> if abs_float (reduced_cost tab q) > 1e-6 then ok := false
  done;
  !ok

let warm_detailed problem ~lb_over ~ub_over bas =
  let tab = import_tableau problem ~lb_over ~ub_over bas in
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_solves;
  set_phase2_costs tab problem;
  let max_iters = max 20_000 (4 * (tab.m + tab.n_struct)) in
  if not (dual_feasible tab) then
    if primal_feasible tab then begin
      (* Primal-feasible import: plain phase 2 from here is still warm. *)
      let iterations = optimize tab ~max_iters in
      refresh_basics tab;
      finish_detailed tab problem ~iterations ~max_iters ~warm:true
    end
    else raise Numerics
  else
    try
      let it_dual = dual_optimize tab ~max_iters in
      (* Dual simplex stops primal-feasible; a short primal cleanup
         absorbs any reduced-cost drift accumulated on the way. *)
      let it_primal = optimize tab ~max_iters in
      refresh_basics tab;
      if not (primal_feasible tab) then raise Numerics;
      finish_detailed tab problem ~iterations:(it_dual + it_primal) ~max_iters ~warm:true
    with
    | Exit -> Infeas (* dual unbounded: the child LP is infeasible *)
    | Unbounded_exn -> Unbound

let solve_detailed ?lb:lb_over ?ub:ub_over ?warm problem =
  match warm with
  | None -> cold_detailed problem ~lb_over ~ub_over
  | Some bas -> (
      match warm_detailed problem ~lb_over ~ub_over bas with
      | r ->
          if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_warm;
          r
      | exception (Numerics | Iteration_limit) ->
          if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_warm_fail;
          cold_detailed problem ~lb_over ~ub_over)

module For_testing = struct
  type nonrec status = status = At_lower | At_upper | Basic | Free_nb

  let ftran ~m binv idx vl w = ftran ~m binv idx vl 0 (Array.length idx) w

  let btran ~m binv c basis y = btran ~m binv c basis (Array.make m 0) (Array.make m 0.) y

  let apply_inverse = apply_inverse

  let update_binv ~m binv w r =
    let rowr = Array.make m 0. in
    update_binv ~m binv rowr (Array.make m 0) (Array.make m 0) w r;
    rowr

  let gauss_jordan ~m a inv =
    match gauss_jordan ~m a inv with () -> true | exception Numerics -> false

  let price ~col_start ~row_idx ~col_val ~c ~y ~status ~gamma ~rowr ~bland ~pend_q ~pend_lv =
    let m = Array.length y and ntot = Array.length status in
    let tab =
      {
        m;
        ntot;
        n_struct = ntot;
        col_start;
        row_idx;
        col_val;
        b = [||];
        c;
        lb = [||];
        ub = [||];
        x = [||];
        status;
        basis = [||];
        binv = [||];
        rowr;
        y;
        w = [||];
        gamma;
      }
    in
    price tab ~bland ~pend_q ~pend_lv

  let with_ref r v f =
    let old = !r in
    r := v;
    Fun.protect ~finally:(fun () -> r := old) f

  let with_singular_column col f = with_ref singular_column col f

  let with_pricing ~bland ~reset_mask f =
    with_ref force_bland bland (fun () -> with_ref gamma_reset_mask reset_mask f)

  let with_corrupted_inverse ~at f = with_ref corrupt_at at f
  let repairs () = Atomic.get repairs
end
