(** 64-bit FNV-1a hashing.

    The single hashing scheme of the codebase: [Cellsched.Mapping]
    fingerprints (the deterministic tie-break key of parallel
    searches), the canonical graph fingerprints of
    {!Streaming.Canonical} and the request keys of the service layer
    all fold through these primitives, so equal inputs hash equally
    across layers, runs and platforms.

    Two granularities are provided. [of_string] is the textbook
    byte-wise FNV-1a. [add_value] folds one full 64-bit word per step
    (xor then multiply) — the historical [Mapping.fingerprint_array] scheme,
    kept bit-for-bit so existing fingerprints are unchanged. Both are
    fine as non-cryptographic fingerprints; neither resists
    adversarial collisions. *)

type t = int64
(** Running hash state (also the final digest). *)

val empty : t
(** The FNV-1a offset basis, [0xcbf29ce484222325]. *)

val prime : t
(** The FNV-1a 64-bit prime, [0x100000001b3]. *)

val add_value : t -> int64 -> t
(** Fold one 64-bit word: [(h lxor v) * prime]. A loop that writes the
    fold out with [prime] keeps its state unboxed; a call per word
    boxes it. *)

val add_int : t -> int -> t

val add_float : t -> float -> t
(** Folds [Int64.bits_of_float] — bitwise, so [-0.] and [0.] differ
    and every NaN payload is distinguished. *)

val of_string : string -> t
(** Byte-wise FNV-1a over the string contents. *)

val to_hex : t -> string
(** 16 lower-case hex digits, zero-padded. *)
