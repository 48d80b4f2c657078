type t = int array

let make platform graph assignment =
  if Array.length assignment <> Streaming.Graph.n_tasks graph then
    invalid_arg "Mapping.make: arity mismatch with the graph";
  let n = Cell.Platform.n_pes platform in
  Array.iter
    (fun pe ->
      if pe < 0 || pe >= n then invalid_arg "Mapping.make: PE index out of range")
    assignment;
  Array.copy assignment

let all_on platform graph pe =
  make platform graph (Array.make (Streaming.Graph.n_tasks graph) pe)

let all_on_ppe platform graph = all_on platform graph 0

let pe t k =
  if k < 0 || k >= Array.length t then invalid_arg "Mapping.pe: task id";
  t.(k)

let n_tasks t = Array.length t

let tasks_on t pe =
  List.filter (fun k -> t.(k) = pe) (List.init (Array.length t) Fun.id)

let used_pes t =
  Array.to_list t |> List.sort_uniq compare

let is_remote t (edge : Streaming.Graph.edge) =
  t.(edge.Streaming.Graph.src) <> t.(edge.Streaming.Graph.dst)

let to_array = Array.copy

let pp platform graph ppf t =
  Format.fprintf ppf "@[<v>";
  let print_pe pe =
    match tasks_on t pe with
    | [] -> ()
    | tasks ->
        let names =
          List.map (fun k -> (Streaming.Graph.task graph k).Streaming.Task.name) tasks
        in
        Format.fprintf ppf "%s: %s@," (Cell.Platform.pe_name platform pe)
          (String.concat " " names)
  in
  List.iter print_pe (List.init (Cell.Platform.n_pes platform) Fun.id);
  Format.fprintf ppf "@]"
