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

    Cost model, for [m] rows. The basis inverse is a dense m x m array,
    but a pivot's rank-1 update visits only the nonzero columns of the
    scaled pivot row: O(m·nnz(row)) instead of O(m{^ 2}). On the compact
    mapping relaxations that row holds about 6% of [m]. The Gauss-Jordan
    refactorization behind every {!solve_detailed} and warm import
    gathers its pivot rows the same way. Every entry these kernels touch
    gets the same floating-point operation as in a full-row loop. An
    entry they skip would have received [x -. f *. (±0.)], which can
    only change the sign of a zero. Every reader of the inverse either
    tests [<> 0.] or sums from [+0.], so answers are bitwise those of
    the full-row loops. Per pivot, BTRAN stays O(m{^ 2}), FTRAN costs
    O(m·nnz(entering column)), and pricing and the Devex update cost
    O(nnz(A)). *)

type solution = {
  x : float array;  (** One value per problem variable. *)
  objective : float;  (** Objective in the problem's original sense. *)
  iterations : int;
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

type stats = {
  mutable solves : int;
  mutable total_iterations : int;
  mutable warm_solves : int;  (** Solves answered by the dual warm path. *)
  mutable warm_failures : int;  (** Warm starts that fell back cold. *)
}

val stats : stats
(** Global counters (for benchmarks/diagnostics). *)

val solve : ?lb:float array -> ?ub:float array -> Problem.t -> result
(** Solve the LP relaxation. [lb]/[ub], when given, override the problem's
    variable bounds (arrays of length [Problem.n_vars]); this is how
    {!Branch_bound} explores its tree without mutating the problem.
    @raise Invalid_argument on override arrays of the wrong length or with
    [lb > ub] entries. *)

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
  val update_binv : m:int -> float array -> float array -> int -> unit
  (** [update_binv ~m binv w r]: the pivot's rank-1 update of the m x m
      row-major inverse [binv] in place, for FTRAN column [w] and pivot
      row [r]. *)

  val gauss_jordan : m:int -> float array -> float array -> bool
  (** [gauss_jordan ~m a inv]: the refactorization's elimination of the
      m x m row-major [a], with the same row operations applied to [inv]
      (both in place). [false] when a pivot is (near-)zero; the arrays
      are then left part-way eliminated. *)

  val with_singular_column : int -> (unit -> 'a) -> 'a
  (** Run [f] with every refactorization failing, as a singular basis
      would, when it reaches the given column. *)
end
