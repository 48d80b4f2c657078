type edge = { src : int; dst : int; data_bytes : float }

type flat = {
  edge_src : int array;
  edge_dst : int array;
  edge_data : float array;
  w_ppe : float array;
  w_spe : float array;
  read_bytes : float array;
  write_bytes : float array;
  peek : int array;
  in_start : int array;
  in_ids : int array;
  out_start : int array;
  out_ids : int array;
  topo : int array;
  first_period : int array;
  buffer : float array;
  footprint : float array;
}

type t = {
  tasks : Task.t array;
  edges : edge array;
  out_edges : int list array;  (* edge ids leaving each task *)
  in_edges : int list array;  (* edge ids entering each task *)
  flat : flat;  (* the same data as plain arrays, built with the graph *)
}

type builder = {
  mutable btasks : Task.t list;  (* reversed *)
  mutable bn : int;
  names : (string, int) Hashtbl.t;
  mutable bedges : edge list;  (* reversed *)
  seen_edges : (int, unit) Hashtbl.t;  (* (src lsl 31) lor dst *)
}

let builder () =
  {
    btasks = [];
    bn = 0;
    names = Hashtbl.create 16;
    bedges = [];
    seen_edges = Hashtbl.create 16;
  }

let add_task b (task : Task.t) =
  if Hashtbl.mem b.names task.name then
    invalid_arg (Printf.sprintf "Graph.add_task: duplicate name %S" task.name);
  let id = b.bn in
  Hashtbl.add b.names task.name id;
  b.btasks <- task :: b.btasks;
  b.bn <- id + 1;
  id

let add_edge b ~src ~dst ~data_bytes =
  if src < 0 || src >= b.bn || dst < 0 || dst >= b.bn then
    invalid_arg "Graph.add_edge: unknown task id";
  if src = dst then invalid_arg "Graph.add_edge: self-loop";
  if data_bytes < 0. then invalid_arg "Graph.add_edge: negative data size";
  let key = (src lsl 31) lor dst in
  if Hashtbl.mem b.seen_edges key then
    invalid_arg "Graph.add_edge: duplicate edge";
  Hashtbl.add b.seen_edges key ();
  b.bedges <- { src; dst; data_bytes } :: b.bedges

(* The flat view, filled by plain loops (an [Array.map] to a float
   array would box every element on the way). [build] lists each task's
   in- and out-edges by increasing edge id, and so does the counting
   sort that fills the CSR arrays. *)
let task_arrays (tasks : Task.t array) =
  let n = Array.length tasks in
  let w_ppe = Array.create_float n and w_spe = Array.create_float n in
  let read_bytes = Array.create_float n and write_bytes = Array.create_float n in
  let peek = Array.make n 0 in
  for k = 0 to n - 1 do
    let t = tasks.(k) in
    w_ppe.(k) <- t.w_ppe;
    w_spe.(k) <- t.w_spe;
    read_bytes.(k) <- t.read_bytes;
    write_bytes.(k) <- t.write_bytes;
    peek.(k) <- t.peek
  done;
  (w_ppe, w_spe, read_bytes, write_bytes, peek)

let edge_data (edges : edge array) =
  let data = Array.create_float (Array.length edges) in
  Array.iteri (fun e edge -> data.(e) <- edge.data_bytes) edges;
  data

(* CSR of the edge ids grouped by [ends.(e)], ids increasing in a group. *)
let csr n ends =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) ends;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let ids = Array.make (Array.length ends) 0 and fill = Array.sub start 0 n in
  Array.iteri
    (fun e v ->
      ids.(fill.(v)) <- e;
      fill.(v) <- fill.(v) + 1)
    ends;
  (start, ids)

module Ready = Support.Binary_heap.Make (Int)

(* Kahn's algorithm, smallest ready id first; raises if a cycle
   remains. *)
let topo_sort ~in_start ~out_start ~out_ids ~edge_dst =
  let n = Array.length in_start - 1 in
  let indeg = Array.init n (fun v -> in_start.(v + 1) - in_start.(v)) in
  let ready = Ready.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Ready.add ready v
  done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Ready.is_empty ready) do
    let v = Ready.pop_min ready in
    order.(!filled) <- v;
    incr filled;
    for i = out_start.(v) to out_start.(v + 1) - 1 do
      let w = edge_dst.(out_ids.(i)) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Ready.add ready w
    done
  done;
  if !filled <> n then invalid_arg "Graph.build: the graph contains a cycle";
  order

(* The paper's buffer model (§3.1; see [flat] in the interface), the one
   implementation of it. An in-edge [e] costs no communication period
   when [colocated e]. *)
let fill_first_periods fl ~colocated fp =
  for i = 0 to Array.length fl.topo - 1 do
    let k = fl.topo.(i) in
    let peek = fl.peek.(k) in
    let acc = ref 0 in
    for j = fl.in_start.(k) to fl.in_start.(k + 1) - 1 do
      let e = fl.in_ids.(j) in
      let src = fl.edge_src.(e) in
      let comm = if colocated e then 0 else 1 in
      acc := max !acc (fp.(src) + 1 + comm + peek)
    done;
    fp.(k) <- !acc
  done

let fill_buffers fl fp buff =
  for e = 0 to Array.length fl.edge_src - 1 do
    buff.(e) <-
      fl.edge_data.(e) *. float_of_int (fp.(fl.edge_dst.(e)) - fp.(fl.edge_src.(e)))
  done

let fill_footprints fl =
  for k = 0 to Array.length fl.footprint - 1 do
    let sum_out = ref 0. and sum_in = ref 0. in
    for i = fl.out_start.(k) to fl.out_start.(k + 1) - 1 do
      sum_out := !sum_out +. fl.buffer.(fl.out_ids.(i))
    done;
    for i = fl.in_start.(k) to fl.in_start.(k + 1) - 1 do
      sum_in := !sum_in +. fl.buffer.(fl.in_ids.(i))
    done;
    fl.footprint.(k) <- !sum_out +. !sum_in
  done

(* Fills [fl]'s three sizing arrays from its other fields. *)
let size fl =
  fill_first_periods fl ~colocated:(fun _ -> false) fl.first_period;
  fill_buffers fl fl.first_period fl.buffer;
  fill_footprints fl;
  fl

(* [fl] with fresh sizing arrays, filled: a peek change moves the first
   periods, an edge-volume change the buffers. *)
let resize fl =
  let n = Array.length fl.peek and m = Array.length fl.edge_src in
  size
    {
      fl with
      first_period = Array.make n 0;
      buffer = Array.create_float m;
      footprint = Array.create_float n;
    }

let make_flat tasks (edges : edge array) =
  let n = Array.length tasks and m = Array.length edges in
  let w_ppe, w_spe, read_bytes, write_bytes, peek = task_arrays tasks in
  let edge_src = Array.map (fun e -> e.src) edges in
  let edge_dst = Array.map (fun e -> e.dst) edges in
  let in_start, in_ids = csr n edge_dst and out_start, out_ids = csr n edge_src in
  size
    {
      edge_src;
      edge_dst;
      edge_data = edge_data edges;
      w_ppe;
      w_spe;
      read_bytes;
      write_bytes;
      peek;
      in_start;
      in_ids;
      out_start;
      out_ids;
      topo = topo_sort ~in_start ~out_start ~out_ids ~edge_dst;
      first_period = Array.make n 0;
      buffer = Array.create_float m;
      footprint = Array.create_float n;
    }

let build b =
  let tasks = Array.of_list (List.rev b.btasks) in
  let edges = Array.of_list (List.rev b.bedges) in
  let flat = make_flat tasks edges in
  let n = Array.length tasks in
  (* Consing from the last edge leaves each list in increasing id order. *)
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  for e = Array.length edges - 1 downto 0 do
    let { src; dst; _ } = edges.(e) in
    out_edges.(src) <- e :: out_edges.(src);
    in_edges.(dst) <- e :: in_edges.(dst)
  done;
  { tasks; edges; out_edges; in_edges; flat }

let of_tasks tasks edge_list =
  let b = builder () in
  Array.iter (fun t -> ignore (add_task b t)) tasks;
  List.iter (fun (src, dst, data_bytes) -> add_edge b ~src ~dst ~data_bytes) edge_list;
  build b

let chain tasks ~data_bytes =
  let n = Array.length tasks in
  let edge_list = List.init (max 0 (n - 1)) (fun k -> (k, k + 1, data_bytes)) in
  of_tasks tasks edge_list

let n_tasks g = Array.length g.tasks
let n_edges g = Array.length g.edges

let task g k =
  if k < 0 || k >= n_tasks g then invalid_arg "Graph.task: id out of range";
  g.tasks.(k)

let edge g e =
  if e < 0 || e >= n_edges g then invalid_arg "Graph.edge: id out of range";
  g.edges.(e)

let flat g = g.flat

let find_task g name =
  let rec scan k =
    if k >= n_tasks g then raise Not_found
    else if String.equal g.tasks.(k).Task.name name then k
    else scan (k + 1)
  in
  scan 0

let out_edges g k = g.out_edges.(k)
let in_edges g k = g.in_edges.(k)
let succs g k = List.map (fun e -> g.edges.(e).dst) g.out_edges.(k)
let preds g k = List.map (fun e -> g.edges.(e).src) g.in_edges.(k)

let sources g =
  List.filter (fun k -> g.in_edges.(k) = []) (List.init (n_tasks g) Fun.id)

let sinks g =
  List.filter (fun k -> g.out_edges.(k) = []) (List.init (n_tasks g) Fun.id)

let topological_order g = Array.copy g.flat.topo

let depth g =
  if n_tasks g = 0 then 0
  else begin
    let level = Array.make (n_tasks g) 1 in
    let relax k =
      let bump e =
        let { src; dst; _ } = g.edges.(e) in
        if level.(src) + 1 > level.(dst) then level.(dst) <- level.(src) + 1
      in
      List.iter bump g.out_edges.(k)
    in
    Array.iter relax g.flat.topo;
    Array.fold_left max 0 level
  end

let total_work g cls =
  Array.fold_left (fun acc t -> acc +. Task.w t cls) 0. g.tasks

let total_data_bytes g =
  Array.fold_left (fun acc e -> acc +. e.data_bytes) 0. g.edges

let total_memory_bytes g =
  Array.fold_left
    (fun acc (t : Task.t) -> acc +. t.read_bytes +. t.write_bytes)
    0. g.tasks

let map_tasks f g =
  let tasks = Array.mapi f g.tasks in
  let w_ppe, w_spe, read_bytes, write_bytes, peek = task_arrays tasks in
  { g with tasks; flat = resize { g.flat with w_ppe; w_spe; read_bytes; write_bytes; peek } }

let map_edges f g =
  let edges =
    Array.mapi (fun e edge -> { edge with data_bytes = f e edge }) g.edges
  in
  { g with edges; flat = resize { g.flat with edge_data = edge_data edges } }

let first_periods ~colocated g =
  let fp = Array.make (n_tasks g) 0 in
  fill_first_periods g.flat ~colocated fp;
  fp

let buffer_sizes g ~first_period =
  let buff = Array.create_float (n_edges g) in
  fill_buffers g.flat first_period buff;
  buff

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d tasks, %d edges, depth %d@," (n_tasks g)
    (n_edges g) (depth g);
  Format.fprintf ppf "total work: PPE %.4gs, SPE %.4gs; data %.4g B/instance@]"
    (total_work g Cell.Platform.PPE)
    (total_work g Cell.Platform.SPE)
    (total_data_bytes g)
