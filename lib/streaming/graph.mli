(** Streaming application graph (paper §2.2): a directed acyclic graph whose
    nodes are {!Task.t} and whose edges [D_{k,l}] carry a per-instance data
    volume in bytes. Task and edge identifiers are dense integers assigned
    at construction; tasks are kept in insertion order. *)

type edge = {
  src : int;  (** Producer task id [k]. *)
  dst : int;  (** Consumer task id [l]. *)
  data_bytes : float;  (** Size of one instance of [D_{k,l}], in bytes. *)
}

type t

(** {1 Construction} *)

type builder

val builder : unit -> builder

val add_task : builder -> Task.t -> int
(** Register a task and return its id. Task names must be unique. *)

val add_edge : builder -> src:int -> dst:int -> data_bytes:float -> unit
(** Register the dependency [D_{src,dst}].
    @raise Invalid_argument on unknown ids, self-loops, negative sizes or
    duplicate edges. *)

val build : builder -> t
(** Freeze the builder.
    @raise Invalid_argument if the graph contains a directed cycle. *)

val of_tasks : Task.t array -> (int * int * float) list -> t
(** [of_tasks tasks edges] builds a graph in one call; edges are
    [(src, dst, data_bytes)] triples. *)

val chain : Task.t array -> data_bytes:float -> t
(** Linear chain [T0 -> T1 -> ...] with uniform edge size. *)

(** {1 Accessors} *)

val n_tasks : t -> int
val n_edges : t -> int

val task : t -> int -> Task.t
(** @raise Invalid_argument on out-of-range ids. *)

val edge : t -> int -> edge

(** {1 Flat view}

    The graph as plain arrays, built once with the graph and shared by
    every reader, for hot loops that would otherwise pay a call per
    element or walk a list ([Cellsched.Eval]'s sweeps and probe screen,
    the placement walks and the branch-and-bound nodes). The arrays
    are the graph's own: treat them as read-only.

    The view also holds the paper's buffer model (§3.1), which depends
    on the graph alone and is sized here, once per graph, for every
    reader: [firstPeriod(T_k)], the period that processes the first
    instance of [T_k], is [0] for a source and otherwise the maximum
    over its in-edges of [firstPeriod(T_j) + 2 + peek_k] (one period for
    the producer's computation, one for the communication, [peek_k] to
    accumulate look-ahead); the buffer of edge [D_{k,l}] is
    [data_{k,l} * (firstPeriod(T_l) - firstPeriod(T_k))]; and a task's
    footprint, one copy of each incident buffer, is its coefficient in
    the SPE local-store constraint (1i). *)

type flat = {
  edge_src : int array;  (** Per edge id: producer task. *)
  edge_dst : int array;  (** Consumer task. *)
  edge_data : float array;  (** [data_bytes]. *)
  w_ppe : float array;  (** Per task id: {!Task.t} fields. *)
  w_spe : float array;
  read_bytes : float array;
  write_bytes : float array;
  peek : int array;
  in_start : int array;
      (** CSR over {!in_edges}: task [k]'s in-edge ids are
          [in_ids.(i)] for [in_start.(k) <= i < in_start.(k + 1)], in
          {!in_edges} order. Length [n_tasks + 1]. *)
  in_ids : int array;
  out_start : int array;  (** Same over {!out_edges}. *)
  out_ids : int array;
  topo : int array;  (** {!topological_order}, shared. *)
  first_period : int array;  (** Per task id: [firstPeriod(T_k)]. *)
  buffer : float array;
      (** Per edge id: the paper's buffer size, from [first_period]. *)
  footprint : float array;
      (** Per task id: its out-edges' [buffer]s summed from 0, then its
          in-edges' summed from 0, then the two sums added — the SPE
          local-store bytes the task needs without colocated-buffer
          sharing. *)
}

val flat : t -> flat

val find_task : t -> string -> int
(** Task id by name. @raise Not_found if absent. *)

val out_edges : t -> int -> int list
(** Ids of the edges leaving a task, in insertion order. *)

val in_edges : t -> int -> int list
(** Ids of the edges entering a task. *)

val succs : t -> int -> int list
(** Successor task ids. *)

val preds : t -> int -> int list
(** Predecessor task ids. *)

val sources : t -> int list
(** Tasks with no predecessor. *)

val sinks : t -> int list
(** Tasks with no successor. *)

val topological_order : t -> int array
(** Task ids in a topological order (sources first); stable w.r.t. ids. *)

val depth : t -> int
(** Number of tasks on a longest directed path (0 for the empty graph). *)

(** {1 Aggregate measures} *)

val total_work : t -> Cell.Platform.pe_class -> float
(** Sum of per-instance computation times on the given PE class. *)

val total_data_bytes : t -> float
(** Sum of edge volumes (one instance). *)

val total_memory_bytes : t -> float
(** Sum of per-instance main-memory reads and writes. *)

val map_tasks : (int -> Task.t -> Task.t) -> t -> t
(** Rebuild the graph with transformed tasks (same edges); the flat
    view, its buffer model included, is that of a fresh build. *)

val map_edges : (int -> edge -> float) -> t -> t
(** Rebuild the graph with rescaled edge volumes; the flat view is that
    of a fresh build. *)

(** {1 The buffer model under a mapping}

    The paper leaves one optimization as future work (§4.2): an edge
    whose ends share a PE needs no communication period. Both functions
    run the same code as the flat view's sizing. *)

val first_periods : colocated:(int -> bool) -> t -> int array
(** [first_period] with the communication period skipped on every edge
    [e] with [colocated e]. With [colocated] always false it is
    [(flat g).first_period]. *)

val buffer_sizes : t -> first_period:int array -> float array
(** Per-edge buffers from the given first periods; from
    [(flat g).first_period] they are [(flat g).buffer]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary. *)
