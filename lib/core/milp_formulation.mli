(** Mixed-integer linear programs for throughput-optimal mapping (paper §5).

    Two equivalent formulations are provided.

    {b Full} ([build_full]) is the paper's Linear Program (1) verbatim:
    binaries [alpha_i^k] (task k on PE i), transfer variables
    [beta_{i,j}^{k,l}] (data D_{k,l} sent from PE i to PE j) and the period
    [T], under constraints (1a)–(1k). Because every data is single-sourced
    ((1c)/(1d)) and all loads are minimized, the [beta] take integral
    values whenever the [alpha] are integral, so they are declared
    continuous and branching happens on [alpha] only — exactly how CPLEX
    treats the paper's model.

    {b Compact} ([build_compact]) replaces the O(n²·E) [beta] family with
    O(n·E) difference-linearized indicators: per edge e = (k,l) and PE i,
    [out_i^e >= alpha_i^k - alpha_i^l], [in_i^e >= alpha_i^l - alpha_i^k],
    and for the SPE-to-PPE DMA cap [gamma_i^e >= alpha_i^k + sum_{j in
    PPEs} alpha_j^l - 1]. For integral [alpha] these aggregates equal the
    [beta] aggregates, so both programs have the same optimal throughput
    (asserted by the test suite); the compact one is much faster to solve.

    Both accept [~share_colocated_buffers:true], modelling the §7 memory
    optimization: an edge with both endpoints on the same SPE needs one
    buffer, not two.

    Both read the per-edge buffer sizes and the per-task footprints of
    the memory rows (1i) from the {!Bounds.t} they build for the root
    cut [T >= Bounds.root_bound], so each build sizes the buffers once. *)

type t = {
  problem : Lp.Problem.t;
  t_var : Lp.Problem.var;  (** The period [T] (the minimized objective). *)
  alpha : Lp.Problem.var array array;  (** [alpha.(k).(i)]: task k on PE i. *)
  encode : Mapping.t -> float array;
      (** Full assignment realizing a mapping: [alpha] from the mapping,
          every auxiliary transfer variable at its induced value, and [T]
          at the mapping's period. The result satisfies the program (e.g.
          for {!Lp.Certify.check}). *)
}

val build_full :
  ?share_colocated_buffers:bool -> Cell.Platform.t -> Streaming.Graph.t -> t

val build_compact :
  ?share_colocated_buffers:bool -> Cell.Platform.t -> Streaming.Graph.t -> t

val warm_start : t -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> float array
(** Assignment vector seeding {!Lp.Branch_bound.solve}: the [alpha] encode
    the given mapping (auxiliary variables are left for the LP to settle;
    use [t.encode] for a fully-valued assignment). *)

val mapping_of_solution :
  t -> Cell.Platform.t -> Streaming.Graph.t -> float array -> Mapping.t
(** Decode a solver assignment: each task goes to its argmax [alpha]. *)
