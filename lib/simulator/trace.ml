type span = {
  pe : int;
  label : string;
  kind : [ `Compute | `Transfer | `Fault ];
  start : float;
  finish : float;
}

(* Counter samples are kept as ready Chrome events, newest first. *)
type t = { mutable items : span list; mutable samples : Obs.Events.event list }

let create () = { items = []; samples = [] }
let record t span = t.items <- span :: t.items

let sample t ~cat ?(lane = 0) ~ts name args =
  t.samples <-
    { Obs.Events.ts; name; cat; pid = 1; tid = lane; phase = Counter; args }
    :: t.samples

(* The one start-time ordering used by every sorted consumer
   (spans/to_svg/write_chrome): a single comparator, not per-exporter
   copies. *)
let by_start a b = compare a.start b.start

let spans t = List.sort by_start t.items

let iter t f = List.iter f t.items

let fold t ~init ~f = List.fold_left f init t.items

let busy_fraction t ~n_pes ~horizon =
  let busy = Array.make n_pes 0. in
  iter t (fun s ->
      if s.kind = `Compute && s.pe >= 0 && s.pe < n_pes then
        busy.(s.pe) <- busy.(s.pe) +. (Float.min horizon s.finish -. s.start));
  Array.map (fun b -> if horizon > 0. then b /. horizon else 0.) busy

let bounds t =
  fold t ~init:(infinity, neg_infinity) ~f:(fun (lo, hi) s ->
      (Float.min lo s.start, Float.max hi s.finish))

let window ?from_time ?to_time t =
  let lo, hi = bounds t in
  let lo = match from_time with Some v -> v | None -> Float.min lo 0. in
  let hi = match to_time with Some v -> v | None -> hi in
  (lo, Float.max hi (lo +. 1e-12))

let gantt ?(width = 80) ?from_time ?to_time platform t =
  let lo, hi = window ?from_time ?to_time t in
  let n_pes = Cell.Platform.n_pes platform in
  let cell_width = (hi -. lo) /. float_of_int width in
  let rows = Array.init n_pes (fun _ -> Bytes.make width '.') in
  let paint s =
    if s.pe >= 0 && s.pe < n_pes && s.finish > lo && s.start < hi then begin
      let first =
        max 0 (int_of_float ((s.start -. lo) /. cell_width))
      in
      let last =
        min (width - 1) (int_of_float ((s.finish -. lo) /. cell_width))
      in
      let mark =
        match s.kind with `Compute -> '#' | `Transfer -> '-' | `Fault -> 'x'
      in
      for col = first to last do
        (* Fault spans paint over everything, compute over transfer marks,
           transfers only over idle cells. *)
        let cur = Bytes.get rows.(s.pe) col in
        let paint =
          match mark with
          | 'x' -> true
          | '#' -> cur <> 'x'
          | _ -> cur = '.'
        in
        if paint then Bytes.set rows.(s.pe) col mark
      done
    end
  in
  iter t paint;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "time %.6fs .. %.6fs  (# compute, - transfer)\n" lo hi);
  for pe = 0 to n_pes - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%-6s|%s|\n"
         (Cell.Platform.pe_name platform pe)
         (Bytes.to_string rows.(pe)))
  done;
  Buffer.contents buf

let to_svg ?(width = 800) ?(row_height = 22) ?from_time ?to_time platform t =
  let lo, hi = window ?from_time ?to_time t in
  let n_pes = Cell.Platform.n_pes platform in
  let label_width = 60 in
  let total_height = (n_pes * row_height) + 30 in
  let scale = float_of_int (width - label_width) /. (hi -. lo) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"11\">\n"
       width total_height);
  for pe = 0 to n_pes - 1 do
    let y = 20 + (pe * row_height) in
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"2\" y=\"%d\">%s</text>\n<rect x=\"%d\" y=\"%d\" \
          width=\"%d\" height=\"%d\" fill=\"#f2f2f2\"/>\n"
         (y + 14) (Cell.Platform.pe_name platform pe) label_width y
         (width - label_width) (row_height - 4));
  done;
  let paint s =
    if s.pe >= 0 && s.pe < n_pes && s.finish > lo && s.start < hi then begin
      let x = label_width + int_of_float ((Float.max lo s.start -. lo) *. scale) in
      let w =
        max 1 (int_of_float ((Float.min hi s.finish -. Float.max lo s.start) *. scale))
      in
      let y = 20 + (s.pe * row_height) in
      let color, h, dy, opacity =
        match s.kind with
        | `Compute -> ("#4878a8", row_height - 4, 0, 1.0)
        | `Transfer ->
            ("#c86830", (row_height - 4) / 3, (2 * (row_height - 4)) / 3, 1.0)
        | `Fault -> ("#d03030", row_height - 4, 0, 0.35)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" \
            fill-opacity=\"%.2f\"><title>%s [%.6f..%.6f]</title></rect>\n"
           x (y + dy) w h color opacity s.label s.start s.finish)
    end
  in
  List.iter paint (spans t);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\">%.6fs .. %.6fs</text>\n</svg>\n" label_width
       (total_height - 5) lo hi);
  Buffer.contents buf

let kind_cat = function
  | `Compute -> "compute"
  | `Transfer -> "transfer"
  | `Fault -> "fault"

let write_chrome sink platform t =
  let name_meta =
    Seq.init (Cell.Platform.n_pes platform) (fun pe ->
        Obs.Events.thread_name_event ~tid:pe (Cell.Platform.pe_name platform pe))
  in
  let span_event s =
    {
      Obs.Events.ts = s.start;
      name = s.label;
      cat = kind_cat s.kind;
      pid = 1;
      tid = s.pe;
      phase = Complete (Float.max 0. (s.finish -. s.start));
      args = [];
    }
  in
  Obs.Events.write_chrome_json sink
    (Seq.append name_meta
       (Seq.append
          (Seq.map span_event (List.to_seq (spans t)))
          (List.to_seq (List.rev t.samples))))
