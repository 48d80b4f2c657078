(** A mapping assigns every task of an application graph to one processing
    element of a Cell platform (paper §3.1). All instances of a task are
    processed on that PE; the paper shows this restriction is the right
    trade-off on the Cell (general per-instance mappings need flow control
    and buffers the local stores cannot afford). *)

type t

val make : Cell.Platform.t -> Streaming.Graph.t -> int array -> t
(** [make platform graph assignment] with [assignment.(k)] the PE index of
    task [k].
    @raise Invalid_argument on arity mismatch or out-of-range PE index. *)

val all_on_ppe : Cell.Platform.t -> Streaming.Graph.t -> t
(** The paper's speed-up baseline: everything on PPE0. *)

val pe : t -> int -> int
(** PE hosting a task. *)

val n_tasks : t -> int

val tasks_on : t -> int -> int list
(** Tasks hosted by a PE, increasing ids. *)

val used_pes : t -> int list
(** PEs hosting at least one task, increasing. *)

val is_remote : t -> Streaming.Graph.edge -> bool
(** Whether an edge crosses processing elements. *)

val to_array : t -> int array
(** Fresh copy of the assignment. *)

val pp : Cell.Platform.t -> Streaming.Graph.t -> Format.formatter -> t -> unit
(** Per-PE listing of the hosted tasks. *)
