(* Line protocol of the scheduling daemon. One command per line; every
   request line gets exactly one reply. Replies that carry a mapping
   are framed between `BEGIN <id> <ok|partial>` and `END <id>` with a
   body that is byte-for-byte the `batch` CLI rendering of the same
   response, so a client (or a differential test) can compare daemon
   and batch output literally. *)

type command =
  | Submit of { id : string option; request : Service.Request.t }
  | Trace of string
  | Metrics
  | Ping
  | Quit

type parsed =
  | Nothing
  | Command of command
  | Malformed of { id : string option; reason : string }

let max_id_length = 64

let id_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let valid_id s =
  let n = String.length s in
  n > 0 && n <= max_id_length && String.for_all id_char s

let parse ~load_graph ?default_spes ?default_strategy lineno line =
  let line =
    (* Tolerate CRLF clients. *)
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  let stripped =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match Streaming.Serialize.split_words stripped with
  | [] -> Nothing
  | [ "METRICS" ] -> Command Metrics
  | [ "PING" ] -> Command Ping
  | [ "QUIT" ] -> Command Quit
  | [ "TRACE"; id ] when valid_id id -> Command (Trace id)
  | [ "TRACE"; id ] ->
      Malformed
        {
          id = None;
          reason =
            Printf.sprintf
              "invalid trace id %S (want 1-%d chars of [A-Za-z0-9_.:-])" id
              max_id_length;
        }
  | [ "TRACE" ] -> Malformed { id = None; reason = "TRACE takes exactly one id" }
  | "TRACE" :: _ :: _ :: _ ->
      Malformed { id = None; reason = "TRACE takes exactly one id" }
  | ("METRICS" | "PING" | "QUIT") :: _ :: _ ->
      Malformed { id = None; reason = "verb takes no arguments" }
  | words -> (
      (* Peel the id= attribute (protocol-level, not a request field)
         and hand the rest to the batch request grammar. *)
      let id = ref None and bad = ref None in
      let rest =
        List.filter
          (fun w ->
            if String.length w > 3 && String.sub w 0 3 = "id=" then begin
              let v = String.sub w 3 (String.length w - 3) in
              if valid_id v then
                match !id with
                | None -> id := Some v
                | Some _ -> bad := Some "duplicate id= attribute"
              else
                bad :=
                  Some
                    (Printf.sprintf
                       "invalid id %S (want 1-%d chars of [A-Za-z0-9_.:-])" v
                       max_id_length);
              false
            end
            else if w = "id=" then begin
              bad := Some "empty id= attribute";
              false
            end
            else true)
          words
      in
      match !bad with
      | Some reason -> Malformed { id = !id; reason }
      | None -> (
          match
            Service.Request.parse_line ~load_graph ?default_spes
              ?default_strategy lineno (String.concat " " rest)
          with
          | Some request -> Command (Submit { id = !id; request })
          | None ->
              (* Only id= tokens on the line: an id with no request. *)
              Malformed { id = !id; reason = "id= without a request" }
          | exception Failure reason -> Malformed { id = !id; reason }
          | exception exn ->
              Malformed { id = !id; reason = Printexc.to_string exn }))

(* --- reply rendering ------------------------------------------------------ *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* [bound] is quoted only on partial replies: a partial answer is the
   one case where the client cannot tell how far from optimal it is, so
   the proven lower bound and the implied gap ride along as extra body
   lines. Complete replies stay byte-identical to the historical frame
   (clients and the CI regexes parse them positionally). *)
let render_reply ~id ~partial ?bound response =
  let bound_lines =
    match bound with
    | Some lb when partial ->
        let p = response.Service.Batch.period in
        let gap =
          if p > 0. && Float.is_finite p then (p -. lb) /. p *. 100. else 0.
        in
        Printf.sprintf "lower_bound: %.17g s\ngap: %.2f%%\n" lb gap
    | _ -> ""
  in
  Printf.sprintf "BEGIN %s %s\n%s%sEND %s\n" id
    (if partial then "partial" else "ok")
    (Service.Batch.render response)
    bound_lines id

let render_reject ~id = Printf.sprintf "REJECT %s overload\n" id
let render_error ~id reason = Printf.sprintf "ERROR %s %s\n" id (one_line reason)
let render_metrics body = Printf.sprintf "BEGIN metrics\n%sEND metrics\n" body

let render_trace ~id body =
  Printf.sprintf "BEGIN trace %s\n%sEND trace %s\n" id body id
let pong = "PONG\n"
let bye = "BYE\n"

(* --- request rendering (stream generators, round-trip tests) -------------- *)

let render_request ?id (r : Service.Request.t) =
  let b = Buffer.create 96 in
  Buffer.add_string b r.label;
  Printf.bprintf b " spes=%d" r.platform.Cell.Platform.n_spe;
  (match r.strategy with
  | Service.Request.Portfolio { seed; restarts } ->
      Printf.bprintf b " strategy=portfolio seed=%d restarts=%d" seed restarts
  | Service.Request.Bb { rel_gap; max_nodes } ->
      Printf.bprintf b " strategy=bb gap=%.17g max-nodes=%d" rel_gap max_nodes);
  (match r.deadline_ms with
  | Some ms -> Printf.bprintf b " deadline=%.17g" ms
  | None -> ());
  if r.prio <> 0 then Printf.bprintf b " prio=%d" r.prio;
  (match id with Some id -> Printf.bprintf b " id=%s" id | None -> ());
  Buffer.contents b
