(** Closed-form combinatorial lower bounds on the achievable period.

    The paper's §5 MILP bounds the period through per-PE compute rows
    (1b) and per-interface bandwidth rows (1c)/(1d); relaxing the
    assignment variables fractionally and aggregating each family over
    its pool yields bounds that need no LP at all:

    - {e per task}: whatever PE hosts task [k] spends at least its
      cheapest admissible compute cost and moves the task's own reads
      and writes through one input and one output interface;
    - {e unrelated-machine load}: the cheapest costs spread evenly over
      every PE, with the SPE-ineligible tasks' PPE work spread over the
      PPE pool alone;
    - {e interface}: all reads (writes) spread evenly over every input
      (output) interface.

    They are computed once per instance in O(tasks) and shared
    by every substrate: {!Mapping_search} seeds its root bound and
    suffix pre-checks from the arrays, {!Milp_formulation} adds
    [T >= root] as a cut so even the root LP relaxation starts at the
    combinatorial bound, and {!Milp_solver} can prove an incumbent
    within gap {e before any LP solve}.

    A task is SPE-eligible when its local-store footprint, the graph's
    own [Streaming.Graph.flat] [footprint], fits the SPE budget. *)

type t = {
  n_pes : int;
  n_ppes : int;
  bw : float;  (** Per-interface bandwidth, bytes/s each direction. *)
  fl : Streaming.Graph.flat;
      (** The graph's own flat view, shared, not copied: its
          [read_bytes] and [write_bytes] are each task's interface bytes
          per period. *)
  min_w : float array;
      (** Per task: cheapest effective compute cost over its admissible
          PEs (SPE-ineligible tasks only have their PPE cost). *)
  forced_wppe : float array;
      (** Effective PPE cost for tasks whose buffers exceed the SPE
          local store; [0.] for SPE-eligible tasks. *)
  root : float;  (** Best static lower bound on the period. *)
}

val create : Cell.Platform.t -> Streaming.Graph.t -> t
(** O(tasks). The eligibility test above is valid with or without
    colocated-buffer sharing: a task needs one copy of each incident
    buffer either way. *)

val root_bound : t -> float
(** [root_bound t = t.root]. *)

val task_lb : t -> int -> float
(** Lower bound on the period contributed by task [k] alone:
    [max min_w.(k) (max read_bytes.(k) write_bytes.(k) / bw)] over
    [fl]'s arrays. The root bound is the maximum of these maxed with the
    pool averages. *)
