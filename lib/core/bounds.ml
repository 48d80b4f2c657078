(* Combinatorial lower bounds on the achievable period, distilled from
   the paper's §5 MILP constraints: per-interface bandwidth (1c/1d) and
   unrelated-machine load (1b) admit closed-form relaxations that cost
   O(n) once and O(n_pes) per search node — cheap enough to run before
   any LP solve or divisible-load bisection. *)

module G = Streaming.Graph
module P = Cell.Platform

type t = {
  n_pes : int;
  n_ppes : int;
  bw : float;  (* per-interface bandwidth, bytes/s each direction *)
  fl : G.flat;  (* the graph's own view: per-task reads and writes *)
  min_w : float array;
      (* per task: cheapest effective compute cost over its admissible
         PEs (SPE-ineligible tasks only have their PPE cost) *)
  forced_wppe : float array;
      (* effective PPE cost for tasks whose buffers exceed the SPE local
         store (they can only live on a PPE); 0 for eligible tasks *)
  root : float;  (* best static lower bound on the period *)
}

let create platform g =
  let nk = G.n_tasks g in
  let budget = float_of_int (P.spe_memory_budget platform) in
  let n_pes = P.n_pes platform in
  let n_ppes = platform.P.n_ppe in
  let bw = platform.P.bw in
  let fl = G.flat g in
  let min_w = Array.make nk 0. in
  let forced_wppe = Array.make nk 0. in
  let per_task = ref 0. in
  for k = 0 to nk - 1 do
    let w_ppe = fl.G.w_ppe.(k) /. platform.P.ppe_speedup in
    let w_spe = fl.G.w_spe.(k) in
    (* One copy of each incident buffer must fit the local store for the
       task to be SPE-eligible at all — true with or without colocated
       buffer sharing. *)
    let eligible = fl.G.footprint.(k) <= budget +. 1e-9 in
    min_w.(k) <- (if eligible then Float.min w_ppe w_spe else w_ppe);
    if not eligible then forced_wppe.(k) <- w_ppe;
    (* Whatever PE hosts task k spends at least min_w compute seconds and
       moves the task's own reads and writes through its interface. *)
    per_task :=
      Float.max !per_task
        (Float.max min_w.(k)
           (Float.max fl.G.read_bytes.(k) fl.G.write_bytes.(k) /. bw))
  done;
  let sum a =
    let acc = ref 0. in
    for k = 0 to Array.length a - 1 do
      acc := !acc +. a.(k)
    done;
    !acc
  in
  (* Unrelated-machine load bound: even split across every PE, each task
     at its cheapest cost; plus the PPE-only pool of ineligible tasks. *)
  let avg_compute = sum min_w /. float_of_int n_pes in
  let forced_ppe = sum forced_wppe /. float_of_int n_ppes in
  (* Interface bound: a task's own reads (writes) cross its host PE's
     input (output) interface no matter where it lives; cross-PE edge
     traffic only adds to this. *)
  let avg_in = sum fl.G.read_bytes /. (float_of_int n_pes *. bw) in
  let avg_out = sum fl.G.write_bytes /. (float_of_int n_pes *. bw) in
  let root =
    List.fold_left Float.max 0.
      [ !per_task; avg_compute; forced_ppe; avg_in; avg_out ]
  in
  { n_pes; n_ppes; bw; fl; min_w; forced_wppe; root }

let root_bound t = t.root

let task_lb t k =
  Float.max t.min_w.(k)
    (Float.max t.fl.G.read_bytes.(k) t.fl.G.write_bytes.(k) /. t.bw)
