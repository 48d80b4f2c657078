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

val binary : t -> string -> var
(** Integer variable with bounds [0, 1]. *)

val add_constr : t -> ?name:string -> Expr.t -> rel -> float -> unit
(** Add the constraint [expr rel rhs].
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
(** Constraints in insertion order (fresh array, shared constraint values). *)

val objective : t -> sense * Expr.t

val eval_objective : t -> float array -> float
(** Objective value under an assignment. *)

val pp : Format.formatter -> t -> unit
(** Human-readable LP listing. *)
