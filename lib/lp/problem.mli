(** Mixed-integer linear program builder.

    A problem is a mutable collection of bounded variables (continuous or
    integer), linear constraints and one objective. Variables are dense
    integer handles usable directly in {!Expr}. Solvers ({!Simplex},
    {!Branch_bound}) consume problems read-only. *)

type t

type var = int

type kind =
  | Continuous
  | Integer  (** Integrality enforced by {!Branch_bound} (relaxed by {!Simplex}). *)

type rel = Le | Ge | Eq

type sense = Minimize | Maximize

type constr = { cname : string; expr : Expr.t; rel : rel; rhs : float }

val create : ?name:string -> unit -> t

val add_var :
  t -> ?kind:kind -> ?lb:float -> ?ub:float -> string -> var
(** Fresh variable. Defaults: continuous, [lb = 0.], [ub = infinity].
    Use [neg_infinity]/[infinity] for free variables.
    @raise Invalid_argument if [lb > ub]. *)

val add_var_ij :
  t -> ?kind:kind -> ?lb:float -> ?ub:float -> string -> int -> int -> var
(** [add_var_ij t prefix i j] is [add_var t (Printf.sprintf "%s_%d_%d" prefix i
    j)], with the name rendered only when it is read.
    @raise Invalid_argument on a negative index or [lb > ub]. *)

val add_row :
  t -> string -> int -> int -> int array -> float array -> int -> rel -> float -> unit
(** [add_row t prefix i j vars coefs len rel rhs] adds the constraint
    [sum_{k < len} coefs.(k) x_(vars.(k)) rel rhs], named [prefix_i_j],
    [prefix_i] when [j = -1] or [prefix] when both are [-1] (rendered only
    when read). The terms are normalised as {!Expr.of_list} normalises a
    list: sorted stably by variable, the coefficients of a repeated
    variable summed left to right, zero sums dropped. [vars] and [coefs]
    are copied, so the caller may reuse them.
    @raise Invalid_argument on a negative variable index, on an unknown
    variable left after normalisation, on a negative name index or when
    [len] exceeds either array; the problem is then unchanged. *)

val add_constr : t -> ?name:string -> Expr.t -> rel -> float -> unit
(** Add the constraint [expr rel rhs] through {!add_row}; an unnamed
    constraint is called [c] followed by its row number.
    @raise Invalid_argument if the expression mentions unknown variables. *)

val set_objective : t -> sense -> Expr.t -> unit
(** Replace the objective (default: minimize 0). *)

(** {1 Read-only access (for solvers)} *)

val n_vars : t -> int
val n_constrs : t -> int
val var_name : t -> var -> string
val lower_bound : t -> var -> float
val upper_bound : t -> var -> float
val bounds_arrays : t -> float array * float array
(** Fresh copies of the (lb, ub) arrays. *)

val integer_vars : t -> var list
(** Variables with [Integer] kind, increasing order. *)

val constraints : t -> constr array
(** Constraints in insertion order (fresh array and values). *)

type view = {
  row_start : int array;
      (** Row [i]'s terms sit at positions [row_start.(i)] to
          [row_start.(i+1) - 1] of [row_var] and [row_coef], by strictly
          increasing variable, with non-zero coefficients. *)
  row_var : int array;
  row_coef : float array;
  row_rel : rel array;
  row_rhs : float array;
  var_lb : float array;
  var_ub : float array;
}
(** The problem's own arrays, for solvers that read the constraint matrix
    in compressed sparse rows. Read only, and valid until the next
    variable or row is added; only the first {!n_constrs} rows and
    {!n_vars} variables are meaningful. *)

val view : t -> view

val objective : t -> sense * Expr.t

val eval_objective : t -> float array -> float
(** Objective value under an assignment. *)

val pp : Format.formatter -> t -> unit
(** Human-readable LP listing. *)
