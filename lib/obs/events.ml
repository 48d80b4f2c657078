type arg = Int of int | Float of float | String of string | Bool of bool

type phase = Complete of float | Counter | Metadata

type event = {
  ts : float;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  phase : phase;
  args : (string * arg) list;
}

let escape = Support.Json.escape_string

let add_arg buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      Buffer.add_string buf
        (if Float.is_nan f || Float.abs f = infinity then "null"
         else Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let add_event buf e =
  let ph, dur =
    match e.phase with
    | Complete d -> ("X", Printf.sprintf ",\"dur\":%.3f" (d *. 1e6))
    | Counter -> ("C", "")
    | Metadata -> ("M", "")
  in
  Buffer.add_string buf "{\"name\":";
  escape buf e.name;
  Buffer.add_string buf ",\"cat\":";
  escape buf (if e.cat = "" then "default" else e.cat);
  Buffer.add_string buf
    (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f%s,\"pid\":%d,\"tid\":%d,\"args\":{"
       ph (e.ts *. 1e6) dur e.pid e.tid);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape buf k;
      Buffer.add_char buf ':';
      add_arg buf v)
    e.args;
  Buffer.add_string buf "}}"

let write_chrome_json sink evs =
  let buf = Buffer.create 256 in
  let flush () =
    sink buf;
    Buffer.clear buf
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  Seq.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      add_event buf e;
      flush ())
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  flush ()

let thread_name_event ?(pid = 1) ~tid name =
  {
    ts = 0.;
    name = "thread_name";
    cat = "__metadata";
    pid;
    tid;
    phase = Metadata;
    args = [ ("name", String name) ];
  }
