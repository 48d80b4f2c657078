(** Fingerprint-sharded mapping cache.

    Wraps N independent {!Cache.t} shards, each behind its own mutex,
    so concurrent client domains probing different fingerprints never
    serialize on a single lock. Routing is a pure function of the
    fingerprint ([FNV-1a mod shards]), so which shard holds an entry
    depends only on the entry itself — {e not} on insertion history —
    and a probe at any shard count returns bitwise the same entry a
    single cache would (when no eviction intervenes, hit/miss
    classification is shard-count-independent too, which is the
    identity the traffic suite asserts at shards 1/2/4/8).

    {b Budgets.} [max_entries]/[max_bytes] are {e totals}: each shard
    gets [total / shards] (at least 1), so a sharded map never holds
    more than the single cache it replaces. The per-shard bounds are
    enforced by {!Cache.add} inside the shard's critical section —
    never exceeded even mid-hammer.

    {b Persistence.} One file per shard ([path.shardI]; shard count 1
    keeps the plain historical [path]), each written atomically via
    {!Cache.save_file}. Loading discovers whatever files exist —
    legacy single file or any shard count — and re-routes every entry
    by its own fingerprint, so reconfiguring the shard count (or
    upgrading from an unsharded daemon) migrates automatically.
    Corrupt shard files recover to empty per shard and bump
    [svc_cache_recovered_total]; the surviving shards load intact. *)

type t

val max_shards : int
(** Upper bound on the shard count (256). *)

val create : ?shards:int -> ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 1 shard, 1024 entries / 16 MiB {e total}.
    @raise Invalid_argument when [shards] is outside [1..max_shards]
    or a bound is non-positive. *)

val per_shard_entries : t -> int
val per_shard_bytes : t -> int
(** The per-shard budgets actually in force ([max 1 (total/shards)]). *)

val shard_of_fingerprint : t -> string -> int
(** The shard index a fingerprint routes to — pure, stable, uniform. *)

val find : t -> string -> Cache.entry option
(** Locked probe of the owning shard (refreshes recency on hit). *)

val add : t -> Cache.entry -> unit
(** Locked insert into the owning shard; per-shard LRU bounds apply. *)

val shard_stats : t -> (int * int) array
(** Per-shard [(entries, bytes)], for operators and the hammer suite. *)

val view : t -> Cache.view
(** This map as a {!Cache.view}: {!Batch} and {!Daemon.Server} route
    every cache touch through it, so serving code is identical at any
    shard count. *)

val save_files : ?force:bool -> t -> string -> (unit, string) result
(** Save every shard (atomic per shard, see {!Cache.save_file});
    removes stale [path.shardJ] files left by a larger previous shard
    count. Without [force] it refuses, writing nothing, when the plain
    [path] or any shard file exists. Stops at the first failing shard
    and returns its reason — already-written shards remain valid
    complete documents. *)

val load_files :
  ?shards:int -> ?max_entries:int -> ?max_bytes:int -> string -> t
(** Total, like {!Cache.load_file}: missing files are a cold start,
    corrupt ones recover to empty (per shard). Loads shard files when
    any exist, else the legacy plain [path], re-routing every entry
    through {!add} so shard-count changes migrate transparently. *)

val to_cache : t -> Cache.t
(** A fresh unsharded copy of every entry, each shard replayed oldest
    first into one {!Cache.t} with this map's total budgets: what
    [cellsched cache] lists and dumps. Later writes to either side do
    not show in the other. *)

(**/**)

module For_testing : sig
  val with_shard : t -> int -> (Cache.t -> 'a) -> 'a
  (** Run [f] on shard [i]'s underlying cache {e under its lock} — the
      budget-invariant prober of the hammer suite. *)
end
