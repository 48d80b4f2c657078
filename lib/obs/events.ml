module Clock = struct
  type t = Wall of float  (* origin *) | Fake of float ref

  let monotonic () = Wall (Unix.gettimeofday ())
  let fake ?(start = 0.) () = Fake (ref start)

  let now = function
    | Wall origin -> Unix.gettimeofday () -. origin
    | Fake r -> !r

  let advance t dt =
    match t with
    | Wall _ -> invalid_arg "Events.Clock.advance: monotonic clock"
    | Fake r ->
        if dt < 0. then invalid_arg "Events.Clock.advance: negative step";
        r := !r +. dt
end

type arg = Int of int | Float of float | String of string | Bool of bool

type phase = Complete of float | Instant | Counter | Metadata

type event = {
  seq : int;
  ts : float;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  phase : phase;
  args : (string * arg) list;
}

type ring = {
  r_clock : Clock.t;
  r_pid : int;
  buf : event array;
  mutable filled : int;  (* number of live slots, <= capacity *)
  mutable next : int;  (* next write position *)
  mutable seq : int;
  mutable dropped : int;
}

type sink = Null | Ring of ring

let null = Null

let dummy_event =
  { seq = -1; ts = 0.; name = ""; cat = ""; pid = 0; tid = 0;
    phase = Instant; args = [] }

let ring ?(capacity = 65536) ?(pid = 1) ~clock () =
  if capacity <= 0 then invalid_arg "Events.ring: capacity must be positive";
  Ring
    {
      r_clock = clock;
      r_pid = pid;
      buf = Array.make capacity dummy_event;
      filled = 0;
      next = 0;
      seq = 0;
      dropped = 0;
    }

let enabled = function Null -> false | Ring _ -> true

let emit sink ?(cat = "") ?(tid = 0) ?ts ?(phase = Instant) ?(args = []) name =
  match sink with
  | Null -> ()
  | Ring r ->
      let ts = match ts with Some t -> t | None -> Clock.now r.r_clock in
      let e =
        { seq = r.seq; ts; name; cat; pid = r.r_pid; tid; phase; args }
      in
      r.seq <- r.seq + 1;
      let cap = Array.length r.buf in
      if r.filled = cap then r.dropped <- r.dropped + 1
      else r.filled <- r.filled + 1;
      r.buf.(r.next) <- e;
      r.next <- (r.next + 1) mod cap

let dropped = function Null -> 0 | Ring r -> r.dropped

let events = function
  | Null -> []
  | Ring r ->
      let cap = Array.length r.buf in
      let start = (r.next - r.filled + cap) mod cap in
      List.init r.filled (fun i -> r.buf.((start + i) mod cap))

let clear = function
  | Null -> ()
  | Ring r ->
      r.filled <- 0;
      r.next <- 0;
      r.dropped <- 0

(* --- Chrome trace export ------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_arg = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_nan f || Float.abs f = infinity then "null"
      else Printf.sprintf "%.17g" f
  | String s -> "\"" ^ json_escape s ^ "\""
  | Bool b -> string_of_bool b

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ json_arg v) args)
  ^ "}"

let to_chrome_json (evs : event list) =
  let evs = List.sort (fun (a : event) b -> compare a.seq b.seq) evs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun e ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      let ph, dur =
        match e.phase with
        | Complete d -> ("X", Printf.sprintf ",\"dur\":%.3f" (d *. 1e6))
        | Instant -> ("i", ",\"s\":\"t\"")
        | Counter -> ("C", "")
        | Metadata -> ("M", "")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
           (json_escape e.name)
           (json_escape (if e.cat = "" then "default" else e.cat))
           ph (e.ts *. 1e6) dur e.pid e.tid (json_args e.args)))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let thread_name_event ?(pid = 1) ~tid name =
  {
    seq = -1;
    ts = 0.;
    name = "thread_name";
    cat = "__metadata";
    pid;
    tid;
    phase = Metadata;
    args = [ ("name", String name) ];
  }
