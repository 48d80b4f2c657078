(* Tests for the scheduling daemon (lib/daemon): protocol round-trips
   and hostile-line handling, the bounded priority admission queue,
   engine-level request lifecycles (reject at the bound, hits bypassing
   admission, deadline-expired partials validated feasible), graceful-
   shutdown cache flushes with bitwise warm restarts, pool-vs-inline
   differential runs, and the two serve loops end to end (pipe fds and
   a forked Unix-domain-socket server, including SIGTERM). *)

module P = Cell.Platform
module G = Streaming.Graph
module M = Cellsched.Mapping
module Eval = Cellsched.Eval
module Req = Service.Request
module Cache = Service.Cache
module Batch = Service.Batch
module Proto = Daemon.Protocol
module Admission = Daemon.Admission
module Server = Daemon.Server

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* Named graphs resolved in memory: daemon tests never touch graph
   files. Unknown names raise Sys_error exactly like a missing file. *)
let graph_table =
  lazy
    (let rng = Support.Rng.create 11 in
     [ ("gA", random_graph rng 10); ("gB", random_graph rng 14);
       ("gC", random_graph rng 8) ])

let load_graph name =
  match List.assoc_opt name (Lazy.force graph_table) with
  | Some g -> g
  | None -> raise (Sys_error (name ^ ": no such graph"))

let graph name = load_graph name

(* A fast deterministic strategy for solver-touching tests. *)
let bb_attrs = "strategy=bb max-nodes=200"
let bb_strategy = Req.Bb { rel_gap = 0.05; max_nodes = 200 }

let request ?(label = "gA") ?(spes = 6) ?deadline_ms ?(prio = 0) () =
  {
    Req.label;
    platform = P.qs22 ~n_spe:spes ();
    graph = graph label;
    strategy = bb_strategy;
    deadline_ms;
    prio;
  }

let parse line =
  Proto.parse ~load_graph ~default_spes:8 ~default_strategy:bb_strategy 1 line

let config ?(bound = 8) ?(concurrency = 1) ?cache_path ?metrics_file
    ?(flush_period = 0.) () =
  {
    Server.default_config with
    Server.bound;
    concurrency;
    cache_path;
    metrics_file;
    flush_period;
    default_strategy = bb_strategy;
  }

type harness = {
  server : Server.t;
  out : Buffer.t;
  replies : Server.reply list ref;  (** Reverse arrival order. *)
}

let harness ?bound ?concurrency ?cache_path ?metrics_file () =
  let replies = ref [] in
  let server =
    Server.create
      ~on_reply:(fun r -> replies := r :: !replies)
      ~load_graph
      (config ?bound ?concurrency ?cache_path ?metrics_file ())
  in
  { server; out = Buffer.create 256; replies }

let feed h line = Server.handle_line h.server ~out:(Buffer.add_string h.out) line
let output h = Buffer.contents h.out

let reply_of h id =
  match List.find_opt (fun (r : Server.reply) -> r.Server.id = id) !(h.replies) with
  | Some r -> r
  | None -> Alcotest.failf "no reply for id %s" id

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Ask the server for the span tree of [id] and parse the flat body into
   (path, rest-of-line) pairs, checking the BEGIN/END framing. *)
let trace_spans h id =
  Buffer.clear h.out;
  feed h (Printf.sprintf "TRACE %s" id);
  let body = output h in
  Alcotest.(check bool)
    (Printf.sprintf "trace %s framed" id)
    true
    (String.starts_with ~prefix:(Printf.sprintf "BEGIN trace %s\n" id) body
    && String.ends_with ~suffix:(Printf.sprintf "END trace %s\n" id) body);
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"span " line then
           let rest = String.sub line 5 (String.length line - 5) in
           match String.index_opt rest ' ' with
           | Some i ->
               Some
                 ( String.sub rest 0 i,
                   String.sub rest i (String.length rest - i) )
           | None -> Some (rest, "")
         else None)

let check_well_parented spans =
  let paths = List.map fst spans in
  List.iter
    (fun p ->
      match String.rindex_opt p '/' with
      | Some 0 | None -> ()  (* a root like "/request" *)
      | Some i ->
          let parent = String.sub p 0 i in
          if not (List.mem parent paths) then
            Alcotest.failf "span %s has no parent %s in the trace" p parent)
    paths

(* ====================================================================== *)
(* Protocol: round-trips                                                  *)
(* ====================================================================== *)

let strategy_equal a b =
  match (a, b) with
  | ( Req.Portfolio { seed = s1; restarts = r1 },
      Req.Portfolio { seed = s2; restarts = r2 } ) -> s1 = s2 && r1 = r2
  | ( Req.Bb { rel_gap = g1; max_nodes = n1 },
      Req.Bb { rel_gap = g2; max_nodes = n2 } ) ->
      n1 = n2 && Int64.bits_of_float g1 = Int64.bits_of_float g2
  | _ -> false

let request_roundtrip =
  QCheck.Test.make ~count:200 ~name:"render_request -> parse is the identity"
    QCheck.(
      quad (int_range 0 8)
        (option (int_range 1 1_000_000))
        (pair bool (int_range (-3) 3))
        (option (int_range 1 5)))
    (fun (spes, deadline_us, (portfolio, prio), id_num) ->
      let label = [| "gA"; "gB"; "gC" |].(spes mod 3) in
      let strategy =
        if portfolio then Req.Portfolio { seed = 42 + spes; restarts = 2 + abs prio }
        else Req.Bb { rel_gap = 0.01 *. float_of_int (spes + 1); max_nodes = 500 }
      in
      let r =
        {
          Req.label;
          platform = P.qs22 ~n_spe:spes ();
          graph = graph label;
          strategy;
          deadline_ms = Option.map (fun us -> float_of_int us /. 1000.) deadline_us;
          prio;
        }
      in
      let id = Option.map (Printf.sprintf "req-%d") id_num in
      match parse (Proto.render_request ?id r) with
      | Proto.Command (Proto.Submit { id = id'; request }) ->
          id' = id && request.Req.label = r.Req.label
          && request.Req.platform = r.Req.platform
          && strategy_equal request.Req.strategy r.Req.strategy
          && request.Req.deadline_ms = r.Req.deadline_ms
          && request.Req.prio = r.Req.prio
      | _ -> QCheck.Test.fail_report "did not parse back to a request")

let test_parse_verbs () =
  let command = function
    | Proto.Command c -> c
    | _ -> Alcotest.fail "expected a command"
  in
  Alcotest.(check bool) "PING" true (command (parse "PING") = Proto.Ping);
  Alcotest.(check bool) "padded METRICS" true
    (command (parse "  METRICS  ") = Proto.Metrics);
  Alcotest.(check bool) "QUIT with CR" true
    (command (parse "QUIT\r") = Proto.Quit);
  Alcotest.(check bool) "blank" true (parse "" = Proto.Nothing);
  Alcotest.(check bool) "comment" true (parse "  # hello" = Proto.Nothing);
  (match parse "QUIT now" with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "verb with arguments must be malformed");
  (* Verbs are case-sensitive: lowercase is a graph name. *)
  match parse "ping" with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "lowercase ping should fail as a missing graph"

let test_parse_trace () =
  (match parse "TRACE r1" with
  | Proto.Command (Proto.Trace "r1") -> ()
  | _ -> Alcotest.fail "TRACE r1 must parse");
  (match parse "  TRACE job.7:a-b \r" with
  | Proto.Command (Proto.Trace "job.7:a-b") -> ()
  | _ -> Alcotest.fail "padded TRACE with a token id must parse");
  let malformed line =
    match parse line with
    | Proto.Malformed _ -> ()
    | _ -> Alcotest.failf "%S must be malformed" line
  in
  malformed "TRACE";
  malformed "TRACE a b";
  malformed "TRACE a/b";
  malformed (Printf.sprintf "TRACE %s" (String.make 65 'x'));
  (* Lowercase is a graph name, like the other verbs. *)
  malformed "trace r1";
  Alcotest.(check string) "trace framing" "BEGIN trace t\nbody\nEND trace t\n"
    (Proto.render_trace ~id:"t" "body\n")

let test_parse_hostile () =
  let malformed ?id line =
    match parse line with
    | Proto.Malformed m ->
        Alcotest.(check (option string))
          (Printf.sprintf "id echoed for %S" line)
          id m.id
    | Proto.Nothing -> Alcotest.failf "%S parsed as blank" line
    | Proto.Command _ -> Alcotest.failf "%S parsed as a command" line
  in
  malformed "gA spes=99";
  malformed "gA spes=";
  malformed "gA spes=six";
  malformed "gA strategy=magic";
  malformed "gA deadline=0";
  malformed "gA deadline=-3";
  malformed "gA deadline=nan";
  malformed "gA deadline=inf";
  malformed "gA prio=2.5";
  malformed "nosuch spes=4";
  malformed "gA seed=1";  (* portfolio-only attr under a bb default *)
  malformed ~id:"x1" "id=x1";  (* id without a request *)
  malformed ~id:"x1" "gA id=x1 id=x2";
  malformed ~id:"x1" "gA id=x1 spes=";
  malformed "gA id=";
  malformed "gA id=a/b";
  malformed (Printf.sprintf "gA id=%s" (String.make 65 'x'));
  malformed "gA stray";
  malformed "\xff\xfe garbage";
  (* Truncated frames must never crash the parser either. *)
  List.iter
    (fun line ->
      match parse line with
      | Proto.Nothing | Proto.Malformed _ -> ()
      | Proto.Command (Proto.Submit _) -> ()
      | Proto.Command _ -> Alcotest.failf "%S became a verb" line)
    [ "g"; "gA spe"; "gA spes=4 strat"; "METRIC"; "QUI" ]

let test_render_error_flattens () =
  Alcotest.(check string)
    "newlines flattened" "ERROR x a b c\n"
    (Proto.render_error ~id:"x" "a\nb\rc")

let test_reply_framing () =
  let r = request () in
  let cache = Cache.create () in
  let response = Engine_batch.serve_one ~view:(Cache.view cache) r in
  Alcotest.(check string)
    "ok frame" ("BEGIN j7 ok\n" ^ Batch.render response ^ "END j7\n")
    (Proto.render_reply ~id:"j7" ~partial:false response);
  Alcotest.(check string)
    "partial frame" ("BEGIN j7 partial\n" ^ Batch.render response ^ "END j7\n")
    (Proto.render_reply ~id:"j7" ~partial:true response);
  Alcotest.(check string) "reject frame" "REJECT j7 overload\n"
    (Proto.render_reject ~id:"j7")

(* ====================================================================== *)
(* Admission queue                                                        *)
(* ====================================================================== *)

let test_admission_bound () =
  let q = Admission.create ~bound:3 in
  Alcotest.(check bool) "1" true (Admission.admit q ~prio:0 "a");
  Alcotest.(check bool) "2" true (Admission.admit q ~prio:0 "b");
  Alcotest.(check bool) "3" true (Admission.admit q ~prio:0 "c");
  Alcotest.(check bool) "over" false (Admission.admit q ~prio:9 "d");
  (* Dispatching does not free capacity: in-flight still counts. *)
  Alcotest.(check (option string)) "pop" (Some "a") (Admission.next q);
  Alcotest.(check int) "load" 3 (Admission.load q);
  Alcotest.(check bool) "still full" false (Admission.admit q ~prio:0 "d");
  Admission.finish q;
  Alcotest.(check bool) "freed" true (Admission.admit q ~prio:0 "d")

let test_admission_priority () =
  let q = Admission.create ~bound:8 in
  List.iter
    (fun (prio, name) -> assert (Admission.admit q ~prio name))
    [ (0, "a"); (5, "b"); (5, "c"); (1, "d"); (-2, "e") ];
  let order = List.init 5 (fun _ -> Option.get (Admission.next q)) in
  Alcotest.(check (list string))
    "priority order, FIFO within a level" [ "b"; "c"; "d"; "a"; "e" ] order;
  Alcotest.(check (option string)) "drained" None (Admission.next q)

(* Model-based property: against a naive reference (a plain list of
   (prio, seq) pairs), the queue's admit/next/finish must agree on
   every step of a random trace — acceptance exactly while
   pending + inflight < bound, pops exactly the (-prio, seq)
   lexicographic minimum, load always the model's. *)
let admission_lexicographic =
  QCheck.Test.make ~count:1000
    ~name:"admission: pops are (-prio, seq) lexicographic (random traces)"
    QCheck.(
      pair (int_range 1 5) (list_of_size Gen.(int_range 5 40) (int_range 0 9)))
    (fun (bound, ops) ->
      let q = Admission.create ~bound in
      let pending = ref [] in
      let inflight = ref 0 in
      let seq = ref 0 in
      let ok = ref true in
      let expect () =
        match !pending with
        | [] -> None
        | x :: rest ->
            Some
              (List.fold_left
                 (fun (bp, bs) (p, s) ->
                   if p > bp || (p = bp && s < bs) then (p, s) else (bp, bs))
                 x rest)
      in
      List.iter
        (fun op ->
          (if op <= 5 then (
             (* enqueue, prios -2..3 so levels collide and FIFO shows *)
             let prio = op - 2 in
             let accepted = Admission.admit q ~prio !seq in
             let should = List.length !pending + !inflight < bound in
             if accepted <> should then ok := false;
             if accepted then pending := (prio, !seq) :: !pending;
             incr seq)
           else if op <= 7 then
             match (Admission.next q, expect ()) with
             | None, None -> ()
             | Some v, Some ((_, s) as item) ->
                 if v <> s then ok := false;
                 pending := List.filter (fun it -> it <> item) !pending;
                 incr inflight
             | Some _, None | None, Some _ -> ok := false
           else if !inflight = 0 then
             match Admission.finish q with
             | exception Invalid_argument _ -> ()
             | () -> ok := false
           else (
             Admission.finish q;
             decr inflight));
          if Admission.load q <> List.length !pending + !inflight then
            ok := false)
        ops;
      !ok)

let test_admission_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Admission.create: non-positive bound")
    (fun () -> ignore (Admission.create ~bound:0));
  let q = Admission.create ~bound:1 in
  Alcotest.check_raises "finish on empty"
    (Invalid_argument "Admission.finish: nothing in flight") (fun () ->
      Admission.finish q)

(* ====================================================================== *)
(* Server engine                                                          *)
(* ====================================================================== *)

let submit h ?(attrs = bb_attrs) ~id label =
  feed h (Printf.sprintf "%s %s id=%s" label attrs id)

let test_reject_at_bound () =
  let h = harness ~bound:2 () in
  (* Three distinct misses before any dispatch: the third must be
     refused immediately and explicitly. *)
  submit h ~id:"r1" "gA";
  submit h ~id:"r2" "gB";
  submit h ~id:"r3" "gC";
  Alcotest.(check bool) "reject on the wire" true
    (String.ends_with ~suffix:"REJECT r3 overload\n" (output h));
  Alcotest.(check bool) "reject observed" true
    ((reply_of h "r3").Server.status = `Rejected);
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "received" 3 s.Server.received;
  Alcotest.(check int) "accepted" 2 s.Server.accepted;
  Alcotest.(check int) "rejected" 1 s.Server.rejected;
  Alcotest.(check int) "every request replied" 3 s.Server.replies;
  Server.finish h.server

let test_hits_bypass_admission () =
  let h = harness ~bound:2 () in
  submit h ~id:"w" "gA";
  Server.drain h.server;
  (* Queue full of misses... *)
  submit h ~id:"m1" "gB";
  submit h ~id:"m2" "gC";
  (* ...yet the known request is answered inline, not rejected. *)
  Buffer.clear h.out;
  submit h ~id:"h1" "gA";
  Alcotest.(check bool) "hit served under overload" true
    (String.starts_with ~prefix:"BEGIN h1 ok\n" (output h));
  Alcotest.(check bool) "hit observed" true
    ((reply_of h "h1").Server.status = `Hit);
  (* And one more distinct miss is still refused. *)
  Buffer.clear h.out;
  submit h ~id:"m3" "gB" ~attrs:("spes=4 " ^ bb_attrs);
  Alcotest.(check bool) "distinct miss rejected" true
    (String.ends_with ~suffix:"REJECT m3 overload\n" (output h));
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "hits" 1 s.Server.hits;
  Alcotest.(check int) "rejected" 1 s.Server.rejected;
  Server.finish h.server

let test_duplicate_becomes_hit_at_dispatch () =
  let h = harness () in
  (* Two identical misses queued in the same burst: the second must be
     answered from the cache entry the first one writes, not re-solved. *)
  submit h ~id:"d1" "gA";
  submit h ~id:"d2" "gA";
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "one solve" 1 s.Server.solved;
  Alcotest.(check int) "one dispatch-time hit" 1 s.Server.hits;
  let b1 = Batch.render (Option.get (reply_of h "d1").Server.response)
  and b2 = Batch.render (Option.get (reply_of h "d2").Server.response) in
  let strip s =
    (* The source line differs (solver vs cache) by design. *)
    String.concat "\n"
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"source:" l))
         (String.split_on_char '\n' s))
  in
  Alcotest.(check string) "same mapping bitwise" (strip b1) (strip b2);
  Server.finish h.server

let test_deadline_partial_feasible () =
  let h = harness () in
  (* A 1 us budget is always expired by dispatch time: the solver must
     cancel on its first check and return its seeded incumbent. *)
  feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 id=p1" bb_attrs);
  Server.drain h.server;
  let reply = reply_of h "p1" in
  Alcotest.(check bool) "status partial" true (reply.Server.status = `Partial);
  Alcotest.(check bool) "framed partial" true
    (String.starts_with ~prefix:"BEGIN p1 partial\n" (output h));
  let response = Option.get reply.Server.response in
  Alcotest.(check bool) "feasible" true response.Batch.feasible;
  (* Validate the partial mapping end to end with the engine. *)
  let platform = P.qs22 ~n_spe:6 () in
  let ev =
    Eval.create platform (graph "gB")
      (M.make platform (graph "gB") response.Batch.assignment)
  in
  Alcotest.(check bool) "no violations" true (Eval.feasible ev);
  Alcotest.(check bool) "finite period" true (Float.is_finite (Eval.period ev));
  (* Timing-dependent results must never enter the deterministic cache. *)
  Alcotest.(check (option reject)) "not cached" None
    (Option.map ignore
       (Service.Shard.find (Server.shard h.server) response.Batch.fingerprint));
  let s = Server.stats h.server in
  Alcotest.(check int) "counted partial" 1 s.Server.partials;
  Alcotest.(check int) "not counted solved" 0 s.Server.solved;
  Server.finish h.server

let temp_file suffix =
  let path = Filename.temp_file "cellsched_daemon" suffix in
  Sys.remove path;
  path

let cleanup paths =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

let test_shutdown_flush_warm_restart () =
  let cache_path = temp_file ".json" in
  Fun.protect ~finally:(fun () -> cleanup [ cache_path; Cache.temp_path cache_path ])
    (fun () ->
      let h = harness ~cache_path () in
      submit h ~id:"a" "gA" ~attrs:("spes=6 " ^ bb_attrs);
      Server.drain h.server;
      let first = Option.get (reply_of h "a").Server.response in
      Alcotest.(check bool) "no flush yet (period 0)" false
        (Sys.file_exists cache_path);
      Server.shutdown h.server;
      Alcotest.(check bool) "flushed on shutdown" true
        (Sys.file_exists cache_path);
      (* A restarted daemon answers the same request from the warm
         cache, and the reply body is bitwise what batch would print. *)
      let h2 = harness ~cache_path () in
      Buffer.clear h2.out;
      submit h2 ~id:"a" "gA" ~attrs:("spes=6 " ^ bb_attrs);
      Alcotest.(check bool) "warm hit" true
        ((reply_of h2 "a").Server.status = `Hit);
      let batch_cache = Cache.load_file cache_path in
      let batch_hit =
        Engine_batch.serve_one ~view:(Cache.view batch_cache) (request ())
      in
      Alcotest.(check bool) "batch sees a hit" true
        (batch_hit.Batch.source = Batch.Hit);
      Alcotest.(check string) "daemon reply = BEGIN + batch render + END"
        ("BEGIN a ok\n" ^ Batch.render batch_hit ^ "END a\n")
        (output h2);
      let hit = Option.get (reply_of h2 "a").Server.response in
      Alcotest.(check bool) "period bitwise across restart" true
        (Int64.bits_of_float first.Batch.period
        = Int64.bits_of_float hit.Batch.period);
      Alcotest.(check bool) "assignment equal across restart" true
        (first.Batch.assignment = hit.Batch.assignment);
      Server.finish h2.server)

let test_sharded_transcript_bitwise () =
  (* The same zipfian stream through an unsharded and a 4-shard server:
     whole reply transcripts must be byte-identical. Routing is a pure
     function of the fingerprint and the engine is single-threaded, so
     partitioning the cache may never change a single reply byte. *)
  let stream =
    Service.Workload.lines ~ids:true
      (Service.Workload.generate
         {
           Service.Workload.seed = 4242;
           requests = 40;
           skew = 1.1;
           graphs = List.map (fun n -> (n, graph n)) [ "gA"; "gB"; "gC" ];
           spes = [ 4; 6 ];
           strategies = [ bb_strategy ];
         })
  in
  let run shards =
    let statuses = ref [] in
    let server =
      Server.create
        ~on_reply:(fun (r : Server.reply) -> statuses := r.Server.status :: !statuses)
        ~load_graph
        { (config ~bound:64 ()) with Server.cache_shards = shards }
    in
    let out = Buffer.create 4096 in
    List.iter
      (fun line -> Server.handle_line server ~out:(Buffer.add_string out) line)
      stream;
    Server.drain server;
    Alcotest.(check int)
      (Printf.sprintf "shards=%d: every request replied" shards)
      40
      (List.length !statuses);
    if List.mem `Rejected !statuses then
      Alcotest.failf "shards=%d: rejection under an ample bound" shards;
    Buffer.contents out
  in
  Alcotest.(check string) "transcript bitwise at shards 1 vs 4" (run 1) (run 4)

let test_verbs_and_metrics () =
  with_metrics (fun () ->
      let metrics_file = temp_file ".prom" in
      Fun.protect ~finally:(fun () -> cleanup [ metrics_file ])
        (fun () ->
          let h = harness ~metrics_file () in
          feed h "PING";
          Alcotest.(check string) "pong" "PONG\n" (output h);
          Buffer.clear h.out;
          submit h ~id:"m" "gC";
          Server.drain h.server;
          Buffer.clear h.out;
          feed h "METRICS";
          let body = output h in
          Alcotest.(check bool) "framed" true
            (String.starts_with ~prefix:"BEGIN metrics\n" body
            && String.ends_with ~suffix:"END metrics\n" body);
          let contains sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          List.iter
            (fun family ->
              Alcotest.(check bool) (family ^ " exported") true
                (contains family body))
            [
              "daemon_requests_total"; "daemon_accepted_total";
              "daemon_solved_total"; "daemon_inflight"; "daemon_reply_seconds";
            ];
          Buffer.clear h.out;
          feed h "QUIT";
          Alcotest.(check string) "bye" "BYE\n" (output h);
          Alcotest.(check bool) "quit requests shutdown" true
            (Server.shutdown_requested h.server);
          Server.shutdown h.server;
          Alcotest.(check bool) "metrics file written" true
            (Sys.file_exists metrics_file);
          let text = In_channel.with_open_bin metrics_file In_channel.input_all in
          Alcotest.(check bool) "metrics file has daemon families" true
            (contains "daemon_accepted_total" text)))

let test_trace_verb () =
  let h = harness () in
  submit h ~id:"t1" "gA";
  Server.drain h.server;
  (* A solved request's tree covers every serving stage, parents first. *)
  let spans = trace_spans h "t1" in
  check_well_parented spans;
  Alcotest.(check bool) "non-trivial tree" true (List.length spans >= 4);
  Alcotest.(check bool) "root span" true (List.mem_assoc "/request" spans);
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " stage present") true
        (List.mem_assoc ("/request/" ^ stage) spans))
    [ "queue"; "solve"; "reply" ];
  Alcotest.(check bool) "cache probe present" true
    (List.mem_assoc "/request/cache" spans
    || List.mem_assoc "/request/cache@dispatch" spans);
  let root = List.assoc "/request" spans in
  Alcotest.(check bool) "root status" true (contains "status=solved" root);
  Alcotest.(check bool) "root slo" true (contains "slo_met=true" root);
  List.iter
    (fun (path, rest) ->
      Alcotest.(check bool) (path ^ " has a duration") true
        (contains "dur_ms=" rest))
    spans;
  (* A hit's tree is just probe + reply under the root, marked as a hit. *)
  submit h ~id:"t2" "gA";
  let spans2 = trace_spans h "t2" in
  check_well_parented spans2;
  Alcotest.(check bool) "hit cache probe" true
    (List.mem_assoc "/request/cache" spans2);
  Alcotest.(check bool) "hit has no solve stage" false
    (List.mem_assoc "/request/solve" spans2);
  Alcotest.(check bool) "hit status" true
    (contains "status=hit" (List.assoc "/request" spans2));
  (* Unknown and evicted ids get a plain ERROR, not a frame. *)
  Buffer.clear h.out;
  feed h "TRACE nosuch";
  Alcotest.(check string) "unknown id"
    "ERROR nosuch unknown or evicted trace id\n" (output h);
  Server.finish h.server

let test_trace_deadline () =
  let h = harness () in
  (* The 1 us budget expires before dispatch: the trace must say which
     stage ate it — the solve span carries the deadline_hit marker. *)
  feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 id=p9" bb_attrs);
  Server.drain h.server;
  let spans = trace_spans h "p9" in
  check_well_parented spans;
  let root = List.assoc "/request" spans in
  Alcotest.(check bool) "partial status on the root" true
    (contains "status=partial" root);
  Alcotest.(check bool) "slo missed on the root" true
    (contains "slo_met=false" root);
  let solve = List.assoc "/request/solve" spans in
  Alcotest.(check bool) "deadline hit on the solve stage" true
    (contains "deadline_hit=true" solve);
  Alcotest.(check bool) "solve marked partial" true
    (contains "partial=true" solve);
  Server.finish h.server

let test_slo_metrics () =
  with_metrics (fun () ->
      (* Zero the process-wide registry so the per-band counts below are
         exact; handles stay registered (reset keeps them live). *)
      Obs.Metrics.reset Obs.Metrics.default;
      let h = harness () in
      feed h (Printf.sprintf "gA spes=6 %s deadline=60000 prio=2 id=s1" bb_attrs);
      feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 prio=-1 id=s2" bb_attrs);
      submit h ~id:"s3" "gC";  (* no deadline counts as met, normal band *)
      Server.drain h.server;
      Buffer.clear h.out;
      feed h "METRICS";
      let body = output h in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " present") true (contains sub body))
        [
          "daemon_slo_met_total{band=\"high\"} 1";
          "daemon_slo_met_total{band=\"normal\"} 1";
          "daemon_slo_missed_total{band=\"low\"} 1";
          "daemon_slo_missed_total{band=\"high\"} 0";
          "daemon_deadline_slack_ms_bucket";
          "daemon_stage_seconds_bucket{stage=\"solve\"";
          "daemon_stage_seconds_bucket{stage=\"queue\"";
          "daemon_stage_seconds_bucket{stage=\"reply\"";
        ];
      (* Slack observed only for the two finite deadlines. *)
      Alcotest.(check bool) "slack count is 2" true
        (contains "daemon_deadline_slack_ms_count 2" body);
      Server.finish h.server)

(* Each submitted request is canonicalised exactly once on every
   dispatch path — inline hits, queued misses, duplicates that queue
   behind their twin and hit at dispatch (or wait deferred in fiber
   mode), and warm replays. *)
let test_one_key_per_request () =
  with_metrics (fun () ->
      let keys = Obs.Metrics.counter "svc_canonical_keys_total" in
      let labels = [ "gA"; "gB"; "gA"; "gC"; "gB"; "gA" ] in
      List.iter
        (fun (mode, cfg) ->
          let server = Server.create ~load_graph cfg in
          let out = Buffer.create 1024 in
          let before = Obs.Metrics.Counter.value keys in
          for pass = 1 to 2 do
            List.iteri
              (fun i label ->
                Server.handle_line server ~out:(Buffer.add_string out)
                  (Printf.sprintf "%s id=k%d.%d" label pass i))
              labels;
            Server.drain server
          done;
          let n = 2 * List.length labels in
          Alcotest.(check int) (mode ^ ": one key per request") n
            (Obs.Metrics.Counter.value keys - before);
          let replies =
            List.length
              (List.filter
                 (String.starts_with ~prefix:"END k")
                 (String.split_on_char '\n' (Buffer.contents out)))
          in
          Alcotest.(check int) (mode ^ ": every request replied") n replies;
          Server.finish server)
        [
          ("inline", config ());
          ("pool", config ~concurrency:2 ());
          ( "fibers",
            { (config ()) with Server.fibers = true; max_inflight = 4 } );
        ])

let test_pool_matches_inline () =
  let ids = [ "x1"; "x2"; "x3"; "x4" ] in
  let labels = [ "gA"; "gB"; "gC"; "gB" ] in
  let spes = [ 4; 5; 6; 7 ] in
  let run concurrency =
    let h = harness ~concurrency ~bound:8 () in
    List.iteri
      (fun i id ->
        feed h
          (Printf.sprintf "%s spes=%d %s id=%s" (List.nth labels i)
             (List.nth spes i) bb_attrs id))
      ids;
    Server.drain h.server;
    Server.finish h.server;
    List.map
      (fun id -> (id, Batch.render (Option.get (reply_of h id).Server.response)))
      ids
  in
  let inline = run 1 and pooled = run 2 in
  List.iter2
    (fun (id, a) (_, b) ->
      Alcotest.(check string) (id ^ " bitwise equal across pool sizes") a b)
    inline pooled

(* ====================================================================== *)
(* Serve loops                                                            *)
(* ====================================================================== *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let count_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let test_serve_pipe () =
  with_metrics (fun () ->
      let input_path = temp_file ".in" and output_path = temp_file ".out" in
      Fun.protect ~finally:(fun () -> cleanup [ input_path; output_path ])
        (fun () ->
          let lines =
            [
              "PING";
              Printf.sprintf "gA spes=5 %s id=e1" bb_attrs;
              Printf.sprintf "gA spes=5 %s id=e2" bb_attrs;  (* dup -> hit *)
              "broken line=";
              Printf.sprintf "gC spes=4 %s id=e3" bb_attrs;
            ]
          in
          Out_channel.with_open_bin input_path (fun oc ->
              List.iter (fun l -> output_string oc (l ^ "\n")) lines);
          let input = Unix.openfile input_path [ Unix.O_RDONLY ] 0 in
          let output =
            Unix.openfile output_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
          in
          let t =
            Fun.protect
              ~finally:(fun () -> Unix.close input; Unix.close output)
              (fun () ->
                Server.serve_fd ~load_graph (config ~bound:8 ()) ~input ~output)
          in
          let s = Server.stats t in
          Alcotest.(check int) "requests" 4 s.Server.received;
          Alcotest.(check int) "replies" 4 s.Server.replies;
          Alcotest.(check int) "hit" 1 s.Server.hits;
          Alcotest.(check int) "solved" 2 s.Server.solved;
          Alcotest.(check int) "error" 1 s.Server.errors;
          let out = read_file output_path in
          Alcotest.(check bool) "pong first" true
            (String.starts_with ~prefix:"PONG\n" out);
          Alcotest.(check int) "framed replies" 3 (count_sub "BEGIN e" out);
          Alcotest.(check int) "error reply" 1 (count_sub "ERROR " out)))

(* Drive a forked socket server: connect, run [dialogue], then stop the
   child with [stop] (QUIT or a signal) and return (captured bytes,
   child exit status). The child runs concurrency=1, so no domains are
   alive at fork time in that process. *)
let with_socket_server ?cache_path ~stop dialogue =
  let dir = temp_file ".d" in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "daemon.sock" in
  let was = Obs.Metrics.enabled () in
  match Unix.fork () with
  | 0 ->
      (try ignore (Server.serve_socket ~load_graph (config ?cache_path ()) ~path)
       with _ -> ());
      Unix._exit 0
  | pid ->
      Obs.Metrics.set_enabled was;
      let result =
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            (try Sys.remove path with Sys_error _ -> ());
            (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()))
          (fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while
              (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline
            do
              Unix.sleepf 0.02
            done;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
              (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX path);
                let send s =
                  ignore (Unix.write_substring fd s 0 (String.length s))
                in
                let buf = Buffer.create 1024 in
                let chunk = Bytes.create 4096 in
                let read_until pred =
                  let deadline = Unix.gettimeofday () +. 20. in
                  while
                    (not (pred (Buffer.contents buf)))
                    && Unix.gettimeofday () < deadline
                  do
                    match Unix.select [ fd ] [] [] 0.2 with
                    | [ _ ], _, _ -> (
                        match Unix.read fd chunk 0 (Bytes.length chunk) with
                        | 0 -> raise Exit
                        | n -> Buffer.add_subbytes buf chunk 0 n)
                    | _ -> ()
                  done;
                  if not (pred (Buffer.contents buf)) then
                    Alcotest.failf "socket dialogue timed out with %S"
                      (Buffer.contents buf)
                in
                let hangup () = Unix.shutdown fd Unix.SHUTDOWN_SEND in
                dialogue ~pid ~send ~read_until ~hangup;
                stop ~send ~pid;
                let _, status = Unix.waitpid [] pid in
                (Buffer.contents buf, status)))
      in
      result

let test_serve_socket_quit () =
  let captured, status =
    with_socket_server
      ~stop:(fun ~send ~pid:_ -> send "QUIT\n")
      (fun ~pid:_ ~send ~read_until ~hangup:_ ->
        send "PING\n";
        send (Printf.sprintf "gA spes=4 %s id=s1\n" bb_attrs);
        read_until (fun s -> count_sub "END s1\n" s = 1))
  in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "pong" true (String.starts_with ~prefix:"PONG\n" captured);
  Alcotest.(check int) "one ok frame" 1 (count_sub "BEGIN s1 ok\n" captured)

let test_serve_socket_sigterm_flush () =
  let cache_path = temp_file ".json" in
  Fun.protect ~finally:(fun () -> cleanup [ cache_path; Cache.temp_path cache_path ])
    (fun () ->
      let captured, status =
        with_socket_server ~cache_path
          ~stop:(fun ~send:_ ~pid -> Unix.kill pid Sys.sigterm)
          (fun ~pid:_ ~send ~read_until ~hangup:_ ->
            send (Printf.sprintf "gB spes=5 %s id=k1\n" bb_attrs);
            read_until (fun s -> count_sub "END k1\n" s = 1))
      in
      Alcotest.(check bool) "clean exit on SIGTERM" true
        (status = Unix.WEXITED 0);
      (* The SIGTERM flush persisted the solve; a restarted daemon must
         serve it as a hit whose body is bitwise the reply we captured. *)
      Alcotest.(check bool) "cache flushed" true (Sys.file_exists cache_path);
      let h = harness ~cache_path () in
      Buffer.clear h.out;
      submit h ~id:"k1" "gB" ~attrs:(Printf.sprintf "spes=5 %s" bb_attrs);
      Alcotest.(check bool) "warm hit after SIGTERM restart" true
        ((reply_of h "k1").Server.status = `Hit);
      (* The batch render block between "BEGIN k1 ..." and "END k1". *)
      let extract s =
        let start =
          match String.index_opt s '\n' with
          | Some i -> i + 1
          | None -> Alcotest.fail "no frame"
        in
        let fin =
          let marker = "END k1\n" in
          let rec find i =
            if i + String.length marker > String.length s then
              Alcotest.fail "no END"
            else if String.sub s i (String.length marker) = marker then i
            else find (i + 1)
          in
          find start
        in
        String.sub s start (fin - start)
      in
      let live_body = extract captured in
      let hit_body = extract (output h) in
      let strip_source s =
        String.concat "\n"
          (List.filter
             (fun l -> not (String.starts_with ~prefix:"source:" l))
             (String.split_on_char '\n' s))
      in
      Alcotest.(check string) "bitwise identical mapping across restart"
        (strip_source live_body) (strip_source hit_body);
      Server.finish h.server)

(* Both loops follow one end-of-input rule: an unterminated final line
   goes to the engine at EOF, where admission may order it ahead of
   queued work, and every request is answered before the connection
   closes. One byte stream, whose last line outranks the queued one,
   must give the same transcript through a pipe and through a socket
   the client half-closes. The pipe loop finds the whole file, EOF
   included, on its first reads; the socket server is stopped while the
   client sends and half-closes, so that it too finds the bytes and the
   EOF together, whatever the scheduler does. Otherwise a loaded host
   can let it start the queued line before the half-close arrives, and
   the final line has nothing left to overtake. *)
let test_eof_rule_one_transcript () =
  let stream =
    Printf.sprintf "gA spes=4 %s id=a\ngB spes=5 %s id=b\ngC spes=6 %s prio=5 id=c"
      bb_attrs bb_attrs bb_attrs
  in
  let piped =
    with_metrics (fun () ->
        let input_path = temp_file ".in" and output_path = temp_file ".out" in
        Fun.protect ~finally:(fun () -> cleanup [ input_path; output_path ])
          (fun () ->
            Out_channel.with_open_bin input_path (fun oc ->
                output_string oc stream);
            let input = Unix.openfile input_path [ Unix.O_RDONLY ] 0 in
            let output =
              Unix.openfile output_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
            in
            Fun.protect
              ~finally:(fun () -> Unix.close input; Unix.close output)
              (fun () ->
                ignore (Server.serve_fd ~load_graph (config ()) ~input ~output));
            read_file output_path))
  in
  let socketed, _ =
    with_socket_server
      ~stop:(fun ~send:_ ~pid -> Unix.kill pid Sys.sigterm)
      (fun ~pid ~send ~read_until ~hangup ->
        Unix.kill pid Sys.sigstop;
        (* Returns once the server has stopped. *)
        ignore (Unix.waitpid [ Unix.WUNTRACED ] pid);
        send stream;
        hangup ();
        Unix.kill pid Sys.sigcont;
        read_until (fun s -> count_sub "END " s = 3))
  in
  let position sub s =
    let m = String.length sub in
    let rec go i = if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "the final line overtakes the queued one" true
    (position "BEGIN c " piped < position "BEGIN b " piped);
  Alcotest.(check string) "pipe transcript = socket transcript" piped socketed

(* Pipelined misses over a pipe the client holds open: each reply must
   follow its solve, not the loop's 50 ms select timeout — the inline
   engine runs queued work without waiting for input, and a completing
   fiber wakes the pooled loop. Eight small solves take a few ms each;
   one timeout per reply would take 8 x 50 ms. *)
let test_pipelined_replies_prompt () =
  List.iter
    (fun (mode, cfg) ->
      with_metrics (fun () ->
          let in_r, in_w = Unix.pipe ~cloexec:true ()
          and out_r, out_w = Unix.pipe ~cloexec:true () in
          let server =
            Domain.spawn (fun () ->
                ignore (Server.serve_fd ~load_graph cfg ~input:in_r ~output:out_w))
          in
          let lines =
            String.concat ""
              (List.init 8 (fun i ->
                   Printf.sprintf "%s spes=%d %s id=p%d\n"
                     (List.nth [ "gA"; "gB"; "gC" ] (i mod 3))
                     (4 + (i / 3)) bb_attrs i))
          in
          let t0 = Unix.gettimeofday () in
          ignore (Unix.write_substring in_w lines 0 (String.length lines));
          let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
          while
            count_sub "END p" (Buffer.contents buf) < 8
            && Unix.gettimeofday () -. t0 < 10.
          do
            match Unix.select [ out_r ] [] [] 0.1 with
            | [ _ ], _, _ ->
                Buffer.add_subbytes buf chunk 0
                  (Unix.read out_r chunk 0 (Bytes.length chunk))
            | _ -> ()
          done;
          let elapsed = Unix.gettimeofday () -. t0 in
          Unix.close in_w;
          Domain.join server;
          List.iter Unix.close [ in_r; out_r; out_w ];
          Alcotest.(check int) (mode ^ ": eight ok replies") 8
            (count_sub " ok\n" (Buffer.contents buf));
          if elapsed > 0.2 then
            Alcotest.failf "%s: eight pipelined replies took %.0f ms" mode
              (elapsed *. 1000.)))
    [
      ("inline", config ());
      ("fibers", { (config ()) with Server.fibers = true });
    ]

(* The wake-up pipe belongs to the engine: finish closes it. *)
let test_wake_pipe_closed () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 1000 do
    Server.finish
      (Server.create ~load_graph { (config ()) with Server.fibers = true })
  done;
  Alcotest.(check int) "open fds after 1000 create/finish cycles" before
    (open_fds ())

(* The serve loops' line framing: however the byte stream is cut into
   reads, the engine sees the lines of the uncut stream, an unterminated
   final line included. One case in four streams a single long line. *)
let chunked_lines_match =
  QCheck.Test.make ~count:500
    ~name:"line framing: chunked stream = uncut stream"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Rng.create (abs seed) in
      let long = Support.Rng.int rng 4 = 0 in
      let s =
        String.init (Support.Rng.int rng 400) (fun _ ->
            if (not long) && Support.Rng.int rng 8 = 0 then '\n'
            else Char.chr (Char.code 'a' + Support.Rng.int rng 3))
      in
      let s = if long && Support.Rng.int rng 2 = 0 then s ^ "\n" else s in
      let rec cut i =
        if i >= String.length s then []
        else
          let n = min (String.length s - i) (1 + Support.Rng.int rng 40) in
          String.sub s i n :: cut (i + n)
      in
      let want =
        match List.rev (String.split_on_char '\n' s) with
        | "" :: lines | lines -> List.rev lines
      in
      let split = Server.For_testing.split_lines in
      split (cut 0) = want && split [ s ] = want)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          qt request_roundtrip;
          Alcotest.test_case "verbs" `Quick test_parse_verbs;
          Alcotest.test_case "TRACE parse + framing" `Quick test_parse_trace;
          Alcotest.test_case "hostile lines" `Quick test_parse_hostile;
          Alcotest.test_case "error flattening" `Quick
            test_render_error_flattens;
          Alcotest.test_case "reply framing" `Quick test_reply_framing;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound covers queued + in-flight" `Quick
            test_admission_bound;
          Alcotest.test_case "priority then FIFO" `Quick
            test_admission_priority;
          Alcotest.test_case "invalid arguments" `Quick test_admission_invalid;
          qt admission_lexicographic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reject at the bound" `Quick test_reject_at_bound;
          Alcotest.test_case "hits bypass admission" `Quick
            test_hits_bypass_admission;
          Alcotest.test_case "queued duplicate becomes a hit" `Quick
            test_duplicate_becomes_hit_at_dispatch;
          Alcotest.test_case "deadline expiry yields a feasible partial"
            `Quick test_deadline_partial_feasible;
          Alcotest.test_case "shutdown flush + bitwise warm restart" `Quick
            test_shutdown_flush_warm_restart;
          Alcotest.test_case "verbs + daemon_* metrics" `Quick
            test_verbs_and_metrics;
          Alcotest.test_case "TRACE returns the span tree" `Quick
            test_trace_verb;
          Alcotest.test_case "expired deadline shows up in the trace" `Quick
            test_trace_deadline;
          Alcotest.test_case "SLO accounting by priority band" `Quick
            test_slo_metrics;
          Alcotest.test_case "sharded cache keeps the transcript bitwise"
            `Quick test_sharded_transcript_bitwise;
        ] );
      (* Socket tests fork, and OCaml 5 forbids Unix.fork once any domain
         has ever been spawned in the process, so they must run before the
         pool differential test. *)
      ( "serve",
        [
          Alcotest.test_case "pipe fds end to end" `Quick test_serve_pipe;
          Alcotest.test_case "one EOF rule: pipe = socket transcript" `Quick
            test_eof_rule_one_transcript;
          qt chunked_lines_match;
          Alcotest.test_case "socket: PING/solve/QUIT" `Quick
            test_serve_socket_quit;
          Alcotest.test_case "socket: SIGTERM flushes, restart is bitwise"
            `Quick test_serve_socket_sigterm_flush;
          (* These two start domains, after which the process may no
             longer fork: they run after the socket tests. *)
          Alcotest.test_case "pipelined replies wake the loop" `Quick
            test_pipelined_replies_prompt;
          Alcotest.test_case "finish closes the wake-up pipe" `Quick
            test_wake_pipe_closed;
        ] );
      ( "pool",
        [
          Alcotest.test_case "one canonical key per request" `Quick
            test_one_key_per_request;
          Alcotest.test_case "pool replies bitwise equal inline" `Quick
            test_pool_matches_inline;
        ] );
    ]
