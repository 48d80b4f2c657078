type entry = { period : float; fp : int64; arr : int array }

type t = entry option Atomic.t

(* FNV-1a over PE indices (offset by one so a leading PPE0 run still
   stirs the state): 64-bit, endian-free, stable across runs. The fold
   of [Support.Fnv.add_int], written out and inlined so that the state
   stays unboxed. *)
let[@inline] fingerprint (arr : int array) =
  let h = ref Support.Fnv.empty in
  for k = 0 to Array.length arr - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (arr.(k) + 1))) Support.Fnv.prime
  done;
  !h

let entry ~period arr =
  let arr = Array.copy arr in
  { period; fp = fingerprint arr; arr }

let create () = Atomic.make None

let of_option = function
  | None -> Atomic.make None
  | Some (period, arr) -> Atomic.make (Some (entry ~period arr))

(* Strict total order: period, then unsigned fingerprint, then the
   assignment itself lexicographically. No epsilon anywhere — an
   epsilon relation is not transitive, and only a total order makes
   the minimum independent of the order in which candidates arrive
   (the keystone of parallel/sequential bitwise equality). The array
   tiebreak guarantees antisymmetry even under fingerprint collisions. *)
let better a b =
  if a.period < b.period then true
  else if a.period > b.period then false
  else
    let c = Int64.unsigned_compare a.fp b.fp in
    if c <> 0 then c < 0 else Stdlib.compare a.arr b.arr < 0

let rec offer_entry t e =
  let cur = Atomic.get t in
  let improves = match cur with None -> true | Some b -> better e b in
  if not improves then false
  else if Atomic.compare_and_set t cur (Some e) then true
  else offer_entry t e

(* [better (entry ~period arr) b] for an equal period, without building
   the entry: the fingerprint stays unboxed and is compared unsigned,
   with the sign bit flipped. Allocates nothing. *)
let ties_better arr b =
  let fp = Int64.logxor (fingerprint arr) Int64.min_int
  and bfp = Int64.logxor b.fp Int64.min_int in
  if fp <> bfp then fp < bfp else Stdlib.compare arr b.arr < 0

(* A candidate the current best already beats is rejected before its
   entry (a copy of the array and its fingerprint) is built: later
   bests only beat it by more, so the verdict is [offer_entry]'s. *)
let offer t ~period arr =
  match Atomic.get t with
  | Some b when b.period < period -> false
  | Some b when b.period = period && not (ties_better arr b) -> false
  | _ -> offer_entry t (entry ~period arr)

let best t = Atomic.get t

let period t =
  match Atomic.get t with None -> infinity | Some e -> e.period
