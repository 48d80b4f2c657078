(** Executable version of the paper's NP-completeness argument (§3.2,
    Theorem 1): Minimum Multiprocessor Scheduling on two machines reduces
    to Cell-Mapping.

    An instance of the source problem is a set of tasks with per-machine
    lengths and a makespan bound [b]; the reduction builds a streaming
    chain with zero-size data, one PPE and one SPE, and throughput bound
    [1/b]. The test suite uses this module to check both directions of the
    equivalence on exhaustively enumerated small instances. *)

type mms_instance = {
  lengths : (float * float) array;
      (** [lengths.(k) = (l1, l2)]: duration of task k on machine 1/2. *)
  bound : float;  (** Makespan bound [B']. *)
}

val mapping_of_allocation : mms_instance -> int array -> Cell.Platform.t * Mapping.t
(** Encode a machine allocation ([0] = machine 1, [1] = machine 2) as a
    mapping of the reduced instance. *)

val allocation_of_mapping : Mapping.t -> int array
(** Decode back; inverse of {!mapping_of_allocation}. *)

val mms_feasible : mms_instance -> int array -> bool
(** Direct check: does the allocation meet the makespan bound? *)

val cell_feasible : mms_instance -> int array -> bool
(** Check through the reduction: does the encoded mapping achieve the
    reduced throughput bound ({!Steady_state.achieves})? Theorem 1 states
    this equals {!mms_feasible}. *)
