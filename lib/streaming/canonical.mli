(** Canonical form of an application graph.

    Two graphs that differ only by task names, task insertion order or
    edge insertion order describe the same streaming application, and a
    mapping cache should treat them as one key. This module computes a
    canonical task order by Weisfeiler–Leman-style colour refinement —
    every task starts from a hash of its own cost/memory attributes
    (names excluded) and repeatedly absorbs the sorted multisets of its
    in- and out-neighbour colours with the connecting edge sizes — and
    derives from it a canonical text form and a 64-bit FNV-1a
    fingerprint ({!Support.Fnv}, the same scheme as
    [Cellsched.Mapping.fingerprint_array]).

    Guarantees and limits:
    - When refinement gives every task a distinct (colour, in-degree,
      out-degree) key, the order, text and fingerprint are invariant
      under task relabelling/reordering and edge reordering.
    - Tasks left with equal keys keep their relative {e input} order.
      For automorphic tasks (truly interchangeable) that is harmless;
      but refinement cannot always tell apart tasks that are not
      interchangeable — e.g. the audio encoder preset, whose identical
      subband groups leave ties — and then a relabelled copy can get a
      different order, text and fingerprint. Such a copy misses the
      cache and is solved under its own key; it is never answered with
      a wrong mapping.
    - Distinctness of non-isomorphic graphs is only probabilistic (a
      64-bit hash can collide), so consumers that transport cached
      results across a fingerprint match must validate the result on
      the target graph (the service layer does; see DESIGN.md §14). *)

val key : Graph.t -> int array * int64
(** [(order, fingerprint)] from a single refinement pass — what the
    service layer keys a request by. Element [p] of [order] is the id
    of the task at canonical position [p]; [fingerprint] is the FNV-1a
    hash of {!to_string}. *)

val to_string : Graph.t -> string
(** Canonical text form: the {!Serialize} format with tasks renamed
    [t0 .. tN-1] in canonical order and edges sorted by canonical
    endpoint positions. Equal strings for relabelled/reordered variants
    of the same graph, within the limits above. *)
