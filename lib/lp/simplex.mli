(** Linear-programming solver: revised simplex with bounded variables.

    Integrality of [Integer] variables is ignored (LP relaxation); use
    {!Branch_bound} for mixed-integer problems. The implementation is a
    two-phase bounded-variable revised simplex maintaining a dense basis
    inverse with rank-1 updates, Devex pricing with a Bland's-rule
    fallback against cycling, and periodic recomputation of the basic
    values for numerical hygiene. {!solve_detailed} additionally exports
    the optimal basis and accepts one back as a warm start: the basis is
    refactorized under the caller's (typically one-bound-flip) bounds and
    repaired by a dual-simplex phase, which is how {!Branch_bound} turns
    child-node re-solves into a handful of pivots.

    Cost model, for [m] rows. The basis inverse is a dense m x m array
    stored column-major: entry (i, j) at [j*m + i]. Bases of up to 1024
    rows reuse one such buffer per domain, grown to the largest [m]
    seen (8 MB at the cap), so a cold solve allocates no inverse; larger
    bases allocate their own per solve. Per pivot:
    - FTRAN is one contiguous axpy per nonzero of the entering column,
      O(m·nnz(column));
    - the rank-1 update scales the strided pivot row once, gathers its
      nonzero columns and the nonzero rows of the FTRAN column, and runs
      one gathered axpy down each such column: O(nnz(w)·nnz(row)). On the
      compact mapping relaxations the pivot row holds about 6% of [m] and
      the FTRAN column about half;
    - BTRAN gathers the nonzero basic costs once, then takes one short
      dot product per column, O(m·nnz(c_B));
    - pricing and the Devex weight update share one O(nnz(A)) sweep: the
      update of one basis change is applied by the next pivot's pricing
      pass, column by column, from the scaled pivot row kept beside the
      inverse.
    The Gauss-Jordan refactorization behind every {!solve_detailed} and
    warm import runs row-major in fresh arrays and gathers its pivot rows
    the same way; only a successful factorization is written back,
    transposed. Every entry these kernels touch gets the floating-point
    operations, in the order, of the full-row row-major loops they
    replaced. An entry they skip would have received [x -. f *. (±0.)],
    which can only change the sign of a zero. Every reader of the inverse
    either tests [<> 0.] or sums from [+0.], so answers are bitwise those
    of the full-row loops.

    Before {!solve} or {!solve_detailed} reports an optimum, the point's
    primal residuals on the equilibrated rows and its bound violations
    are checked against the feasibility tolerance 1e-7. A point that
    fails (the incrementally updated inverse drifted) is not returned:
    the basis is refactorized, the basic values refreshed, primal
    feasibility restored by dual simplex if needed, and phase 2 resumed.
    If the repaired point fails too, the solve raises [Failure] with the
    message ["Simplex: optimal point fails its residual check after
    refactorization"]. *)

type solution = {
  x : float array;  (** One value per problem variable. *)
  objective : float;  (** Objective in the problem's original sense. *)
  iterations : int;
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

val solve : ?lb:float array -> ?ub:float array -> Problem.t -> result
(** Solve the LP relaxation. [lb]/[ub], when given, override the problem's
    variable bounds (arrays of length [Problem.n_vars]); this is how
    {!Branch_bound} explores its tree without mutating the problem.
    @raise Invalid_argument on override arrays of the wrong length or with
    [lb > ub] entries.
    @raise Failure when an optimal point fails its residual check even
    after refactorization (see the cost model above). *)

type basis
(** An optimal basis exported by {!solve_detailed}: variable statuses plus
    the row-to-basic-variable map, artificial-free. Opaque; only
    meaningful for the problem (shape) it was exported from. *)

type solved = {
  sol : solution;
  sbasis : basis;  (** Final basis, ready to warm-start a child solve. *)
  reduced_costs : float array;
      (** Structural reduced costs in the internal {e minimization} sense
          (negated for [Maximize] problems); 0 for basic variables. Feed
          to reduced-cost bound tightening. *)
  warm : bool;  (** The dual-simplex warm path produced this answer. *)
}

type basis_result = Opt of solved | Infeas | Unbound

val solve_detailed :
  ?lb:float array -> ?ub:float array -> ?warm:basis -> Problem.t -> basis_result
(** Like {!solve} but returns the final basis and reduced costs, and
    accepts a parent basis via [warm]. A warm solve refactorizes the
    basis under the new bounds and runs dual simplex (the parent optimum
    is dual-feasible after a bound flip, so primal feasibility is
    restored in a few pivots); any numerical trouble silently falls back
    to the cold two-phase path, so the answer is never worse than
    {!solve}'s. The final point is extracted from a fresh factorization
    of the final basis, so warm and cold solves that end on the same
    basis agree bitwise. *)

(**/**)

module For_testing : sig
  type status = At_lower | At_upper | Basic | Free_nb

  (** The dense-inverse kernels, on an m x m column-major inverse (entry
      (i, j) at [j*m + i]). *)

  val ftran : m:int -> float array -> int array -> float array -> float array -> unit
  (** [ftran ~m binv idx vl w]: [w := binv a] for the sparse column with
      row indices [idx] and values [vl]. *)

  val btran : m:int -> float array -> float array -> int array -> float array -> unit
  (** [btran ~m binv c basis y]: [y := c_B binv], where row i's basic
      cost is [c.(basis.(i))]. *)

  val apply_inverse : m:int -> float array -> float array -> float array -> unit
  (** [apply_inverse ~m binv r out]: [out := binv r], as in the refresh
      of the basic values. *)

  val update_binv : m:int -> float array -> float array -> int -> float array
  (** [update_binv ~m binv w r]: the pivot's rank-1 update of [binv] in
      place, for FTRAN column [w] and pivot row [r]. Returns the scaled
      pivot row. *)

  val gauss_jordan : m:int -> float array -> float array -> bool
  (** [gauss_jordan ~m a inv]: the refactorization's elimination of the
      m x m row-major [a], with the same row operations applied to [inv]
      (both in place). [false] when a pivot is (near-)zero; the arrays
      are then left part-way eliminated. *)

  val price :
    col_start:int array ->
    row_idx:int array ->
    col_val:float array ->
    c:float array ->
    y:float array ->
    status:status array ->
    gamma:float array ->
    rowr:float array ->
    bland:bool ->
    pend_q:int ->
    pend_lv:int ->
    int
  (** One pricing sweep over the columns with costs
      [c] and multipliers [y], column j's entries at positions
      [col_start.(j)] to [col_start.(j+1) - 1] of [row_idx] and [col_val]:
      the entering column, or -1. When [pend_q]
      >= 0 (a basic column), the Devex update of the basis change that
      brought it in, with scaled pivot row [rowr] and leaving variable
      [pend_lv], is applied to [gamma] on the way. *)

  val with_singular_column : int -> (unit -> 'a) -> 'a
  (** Run [f] with every refactorization failing, as a singular basis
      would, when it reaches the given column. *)

  val with_pricing : bland:(int -> bool) -> reset_mask:int -> (unit -> 'a) -> 'a
  (** Run [f] with pricing forced onto Bland's rule at the iterations
      (counted per phase, from 1) that [bland] accepts, on top of the
      anti-cycling switch, and the Devex weights reset at the iterations
      [i] with [i land reset_mask = 0] instead of every 4096th. *)

  val with_corrupted_inverse : at:int -> (unit -> 'a) -> 'a
  (** Run [f] with the first basis change at iteration [at] of a phase
      scaling the first column of the inverse by 1.001, as accumulated
      drift would. *)

  val repairs : unit -> int
  (** Points that failed the residual check before an [Optimal]/[Opt]
      answer, since start-up. *)
end
