type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let columns t = List.rev t.rows |> fun rows -> t.headers :: rows

let print ?(oc = stdout) t =
  let rows = columns t in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 rows in
  let pad r =
    let extra = ncols - List.length r in
    if extra <= 0 then r else r @ List.init extra (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter measure rows;
  let render row =
    let cells = List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row in
    output_string oc ("  " ^ String.concat "  " cells ^ "\n")
  in
  (match rows with
  | header :: body ->
      render header;
      let total = Array.fold_left (fun acc w -> acc + w + 2) 2 widths in
      output_string oc (String.make total '-' ^ "\n");
      List.iter render body
  | [] -> ());
  flush oc

let to_csv t =
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  columns t
  |> List.map (fun row -> String.concat "," (List.map escape row))
  |> String.concat "\n"
