(** Description of a single streaming task (paper §2.2).

    A task processes one instance of the stream per period. Computation
    costs follow the unrelated-machine model: [w_ppe] and [w_spe] are the
    seconds needed by a PPE (resp. an SPE) to process one instance, and
    neither dominates the other in general. [peek] is the number of
    {e following} instances of every input data the task must hold before
    processing instance [i] (e.g. video encoders reading the next frames).
    [read_bytes]/[write_bytes] are per-instance main-memory traffic, which
    consumes interface bandwidth exactly like inter-task data. *)

type t = {
  name : string;
  w_ppe : float;  (** Seconds per instance on a PPE. *)
  w_spe : float;  (** Seconds per instance on an SPE. *)
  peek : int;  (** Look-ahead depth on every input data (>= 0). *)
  stateful : bool;
      (** Stateful tasks carry state between instances; informational for
          the runtime (a stateful task can never be replicated), recorded
          because the paper's DagGen graphs carry the flag. *)
  read_bytes : float;  (** Per-instance bytes read from main memory. *)
  write_bytes : float;  (** Per-instance bytes written to main memory. *)
}

val make :
  ?peek:int ->
  ?stateful:bool ->
  ?read_bytes:float ->
  ?write_bytes:float ->
  name:string ->
  w_ppe:float ->
  w_spe:float ->
  unit ->
  t
(** Smart constructor.
    @raise Invalid_argument on negative costs, peek or memory traffic. *)

val w : t -> Cell.Platform.pe_class -> float
(** Cost of the task on a PE of the given class. *)
