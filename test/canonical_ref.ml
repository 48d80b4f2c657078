(* The list-based colour refinement that Streaming.Canonical replaced,
   kept verbatim as the oracle its order, text and fingerprint must
   match bit for bit. *)

module Fnv = Support.Fnv
module Graph = Streaming.Graph
module Task = Streaming.Task
module Serialize = Streaming.Serialize

(* Initial colour: every task attribute except the name. *)
let task_color (t : Task.t) =
  let open Fnv in
  let h = empty in
  let h = add_float h t.Task.w_ppe in
  let h = add_float h t.Task.w_spe in
  let h = add_int h t.Task.peek in
  let h = add_int h (Bool.to_int t.Task.stateful) in
  let h = add_float h t.Task.read_bytes in
  add_float h t.Task.write_bytes

(* One refinement round: absorb the sorted multisets of (edge size,
   neighbour colour) pairs on each side. Sorting makes the result
   independent of edge order; separate folds keep in- and out-
   neighbourhoods from cancelling each other. *)
let refine g colors =
  let n = Graph.n_tasks g in
  let signature v =
    let side tag edge_ids endpoint =
      let sigs =
        List.map
          (fun e ->
            let edge = Graph.edge g e in
            (Int64.bits_of_float edge.Graph.data_bytes, colors.(endpoint edge)))
          edge_ids
        |> List.sort compare
      in
      List.fold_left
        (fun h (data, c) -> Fnv.add_value (Fnv.add_value h data) c)
        (Fnv.add_int Fnv.empty tag)
        sigs
    in
    let h = Fnv.add_value Fnv.empty colors.(v) in
    let h = Fnv.add_value h (side 1 (Graph.in_edges g v) (fun e -> e.Graph.src)) in
    Fnv.add_value h (side 2 (Graph.out_edges g v) (fun e -> e.Graph.dst))
  in
  Array.init n signature

let colors g =
  let colors = ref (Array.init (Graph.n_tasks g) (fun v -> task_color (Graph.task g v))) in
  (* depth + 2 rounds let a colour absorb the whole reachable
     neighbourhood of its task along the longest path, both ways. *)
  for _ = 1 to Graph.depth g + 2 do
    colors := refine g !colors
  done;
  !colors

let order g =
  let colors = colors g in
  let ids = Array.init (Graph.n_tasks g) Fun.id in
  (* Stable: tasks with equal final colours (interchangeable up to the
     refinement's power) keep their input order. *)
  let key v =
    (colors.(v), List.length (Graph.in_edges g v), List.length (Graph.out_edges g v))
  in
  let cmp a b =
    let (ca, ia, oa), (cb, ib, ob) = (key a, key b) in
    let c = Int64.unsigned_compare ca cb in
    if c <> 0 then c else compare (ia, oa) (ib, ob)
  in
  let l = Array.to_list ids in
  Array.of_list (List.stable_sort cmp l)

let to_string g =
  let ord = order g in
  let n = Graph.n_tasks g in
  let pos = Array.make n 0 in
  Array.iteri (fun p id -> pos.(id) <- p) ord;
  let tasks =
    Array.init n (fun p ->
        { (Graph.task g ord.(p)) with Task.name = "t" ^ string_of_int p })
  in
  let edges =
    List.init (Graph.n_edges g) (fun e ->
        let { Graph.src; dst; data_bytes } = Graph.edge g e in
        (pos.(src), pos.(dst), data_bytes))
    |> List.sort compare
  in
  Serialize.to_string (Graph.of_tasks tasks edges)

let fingerprint g = Fnv.of_string (to_string g)
