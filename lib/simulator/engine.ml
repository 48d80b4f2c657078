type 'a entry = { time : float; seq : int; payload : 'a }

module Heap = Support.Binary_heap.Make (struct
  type t = unit entry

  let compare a b =
    match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c
end)

(* The heap is monomorphic over unit; we keep payloads in a side table
   indexed by sequence number to stay simple and allocation-light. *)
type 'a t = {
  heap : Heap.t;
  payloads : (int, 'a) Hashtbl.t;
  mutable seq : int;
  mutable clock : float;
}

let create () =
  { heap = Heap.create (); payloads = Hashtbl.create 64; seq = 0; clock = 0. }

let now t = t.clock

let schedule t time payload =
  if time < t.clock -. 1e-12 then
    invalid_arg "Engine.schedule: event in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Hashtbl.replace t.payloads seq payload;
  Heap.add t.heap { time = Float.max time t.clock; seq; payload = () }

let next t =
  if Heap.is_empty t.heap then None
  else begin
    let { time; seq; _ } = Heap.pop_min t.heap in
    t.clock <- time;
    let payload = Hashtbl.find t.payloads seq in
    Hashtbl.remove t.payloads seq;
    Some (time, payload)
  end
