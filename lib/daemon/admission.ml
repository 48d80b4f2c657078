(* Bounded priority admission queue: the daemon's defence against
   overload. Capacity covers both queued and in-flight work; a full
   queue rejects at admission time (the caller sends an explicit
   `REJECT overload`) instead of queueing without bound. *)

(* The heap holds (negated priority, arrival sequence) keys so the
   minimum is the highest-priority, earliest-arrived item; payloads
   live in a side table keyed by sequence number. *)
module Key_heap = Support.Binary_heap.Make (struct
  type t = int * int

  let compare = compare
end)

type 'a t = {
  bound : int;
  heap : Key_heap.t;
  payloads : (int, 'a) Hashtbl.t;
  mutable seq : int;
  mutable inflight : int;
}

let create ~bound =
  if bound <= 0 then invalid_arg "Admission.create: non-positive bound";
  {
    bound;
    heap = Key_heap.create ();
    payloads = Hashtbl.create 64;
    seq = 0;
    inflight = 0;
  }

let pending t = Key_heap.length t.heap
let inflight t = t.inflight
let load t = pending t + t.inflight

let admit t ~prio payload =
  if load t >= t.bound then false
  else begin
    t.seq <- t.seq + 1;
    Key_heap.add t.heap (-prio, t.seq);
    Hashtbl.add t.payloads t.seq payload;
    true
  end

let next t =
  if Key_heap.is_empty t.heap then None
  else begin
    let _, seq = Key_heap.pop_min t.heap in
    let payload = Hashtbl.find t.payloads seq in
    Hashtbl.remove t.payloads seq;
    t.inflight <- t.inflight + 1;
    Some payload
  end

let finish t =
  if t.inflight <= 0 then invalid_arg "Admission.finish: nothing in flight";
  t.inflight <- t.inflight - 1
