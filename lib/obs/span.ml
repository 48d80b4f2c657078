type attr = Events.arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type span = {
  trace : string;
  id : int64;
  parent : int64;
  name : string;
  path : string;
  t_start : float;
  t_stop : float;
  attrs : (string * attr) list;
}

(* trace and path are combined with a NUL separator — no valid path
   contains one, so distinct (trace, path) pairs can't collide by
   concatenation. 0L is reserved as "no parent". *)
let span_id ~trace ~path =
  let h = Support.Fnv.of_string (trace ^ "\x00" ^ path) in
  if Int64.equal h 0L then 1L else h

let now () = Unix.gettimeofday ()

(* Collector: per-domain CAS-prepend slots, PR-4 registry style. 16
   slots cover any realistic pool; collisions (domain ids beyond 16, or
   reused ids) are safe because prepend is a retry-CAS, merely
   contended. *)
let n_slots = 16

type collector = span list Atomic.t array

let collector () : collector = Array.init n_slots (fun _ -> Atomic.make [])

let push (c : collector) s =
  let slot = c.((Domain.self () :> int) land (n_slots - 1)) in
  let rec go () =
    let old = Atomic.get slot in
    if not (Atomic.compare_and_set slot old (s :: old)) then go ()
  in
  go ()

let compare_span a b =
  let c = String.compare a.trace b.trace in
  if c <> 0 then c
  else
    let c = String.compare a.path b.path in
    if c <> 0 then c
    else
      let c = Float.compare a.t_start b.t_start in
      if c <> 0 then c else Float.compare a.t_stop b.t_stop

let spans (c : collector) =
  let all = Array.fold_left (fun acc slot -> Atomic.get slot :: acc) [] c in
  List.sort compare_span (List.concat all)

let count (c : collector) =
  Array.fold_left (fun n slot -> n + List.length (Atomic.get slot)) 0 c

let clear (c : collector) = Array.iter (fun slot -> Atomic.set slot []) c

(* Contexts *)

type ctx = Null | On of { col : collector; trace : string; path : string }

let null = Null
let active = function Null -> false | On _ -> true
let root col ~trace = On { col; trace; path = "" }

let child_path path name = path ^ "/" ^ name

let sub ctx name =
  match ctx with
  | Null -> Null
  | On c -> On { c with path = child_path c.path name }

let emit (c : collector) ~trace ~path ~parent_path ~name ~t_start ~t_stop attrs =
  let parent = if parent_path = "" then 0L else span_id ~trace ~path:parent_path in
  push c
    { trace; id = span_id ~trace ~path; parent; name; path; t_start; t_stop;
      attrs }

let with_span ctx ?(attrs = []) name f =
  match ctx with
  | Null -> f Null
  | On c ->
      let path = child_path c.path name in
      let t_start = now () in
      let finish extra =
        emit c.col ~trace:c.trace ~path ~parent_path:c.path ~name ~t_start
          ~t_stop:(now ()) (attrs @ extra)
      in
      let v =
        try f (On { c with path })
        with e ->
          finish [ ("raised", Bool true) ];
          raise e
      in
      finish [];
      v

let with_span_attrs ctx name f =
  match ctx with
  | Null -> fst (f Null)
  | On c ->
      let path = child_path c.path name in
      let t_start = now () in
      let v, attrs =
        try f (On { c with path })
        with e ->
          emit c.col ~trace:c.trace ~path ~parent_path:c.path ~name ~t_start
            ~t_stop:(now ()) [ ("raised", Bool true) ];
          raise e
      in
      emit c.col ~trace:c.trace ~path ~parent_path:c.path ~name ~t_start
        ~t_stop:(now ()) attrs;
      v

let record ctx ?(attrs = []) ?t_start ?t_stop name =
  match ctx with
  | Null -> ()
  | On c ->
      let t = now () in
      let t_start = Option.value t_start ~default:t in
      let t_stop = Option.value t_stop ~default:t in
      emit c.col ~trace:c.trace ~path:(child_path c.path name) ~parent_path:c.path
        ~name ~t_start ~t_stop attrs

(* Rendering *)

let to_chrome_json spans_list =
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.t_start) infinity spans_list
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let event s =
    {
      Events.ts = s.t_start -. t0;
      name = s.name;
      cat = "span";
      pid = 0;
      tid = 0;
      phase = Events.Complete (Float.max 0. (s.t_stop -. s.t_start));
      args = ("path", String s.path) :: ("trace", String s.trace) :: s.attrs;
    }
  in
  let out = Buffer.create 4096 in
  Events.write_chrome_json (Buffer.add_buffer out)
    (Seq.map event (List.to_seq spans_list));
  Buffer.contents out

let attr_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s
  | Bool b -> string_of_bool b

let attrs_suffix attrs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (attr_to_string v)) attrs)

let dur_ms s = (s.t_stop -. s.t_start) *. 1e3

let render_flat spans_list =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "span %s dur_ms=%.3f%s\n" s.path (dur_ms s)
           (attrs_suffix s.attrs)))
    spans_list;
  Buffer.contents buf

let depth path =
  String.fold_left (fun n c -> if c = '/' then n + 1 else n) 0 path

let render_tree spans_list =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      let indent = String.make (2 * (depth s.path - 1)) ' ' in
      Buffer.add_string buf
        (Printf.sprintf "%s%s %.1fms%s\n" indent s.name (dur_ms s)
           (attrs_suffix s.attrs)))
    spans_list;
  Buffer.contents buf
