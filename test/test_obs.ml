(* Tests for the observability layer: histogram bucket edges,
   snapshot/reset semantics, the Chrome trace_event JSON shape and its
   exact bytes, a simulator trace that keeps every counter sample, and
   the transparency property — enabling metrics or tracing must not
   change any scheduling or simulation result, bitwise. *)

module M = Obs.Metrics
module Ev = Obs.Events
module P = Cell.Platform
module G = Streaming.Graph

(* --- a minimal JSON parser (validation only) ------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some (('"' | '\\' | '/') as c) ->
                Buffer.add_char buf c;
                advance ();
                go ()
            | Some ('b' | 'f' | 'n' | 'r' | 't') ->
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> fail "bad \\u escape"
                done;
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else Obj (members [])
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else Arr (elements [])
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> fail "unexpected character"
    and members acc =
      skip_ws ();
      let k = string_lit () in
      skip_ws ();
      expect ':';
      let v = value () in
      skip_ws ();
      match peek () with
      | Some ',' ->
          advance ();
          members ((k, v) :: acc)
      | Some '}' ->
          advance ();
          List.rev ((k, v) :: acc)
      | _ -> fail "expected ',' or '}'"
    and elements acc =
      let v = value () in
      skip_ws ();
      match peek () with
      | Some ',' ->
          advance ();
          elements (v :: acc)
      | Some ']' ->
          advance ();
          List.rev (v :: acc)
      | _ -> fail "expected ',' or ']'"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj kvs -> ( try Some (List.assoc k kvs) with Not_found -> None)
    | _ -> None
end

(* --- histogram buckets ---------------------------------------------------- *)

let test_histogram_buckets () =
  let r = M.create () in
  let h = M.histogram ~registry:r ~buckets:[| 1.; 2.; 4. |] "h" in
  (* Upper bounds are inclusive: an observation equal to a bound lands in
     that bound's bucket, one epsilon above spills into the next. *)
  List.iter (M.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.5; 100. ];
  let buckets = M.Histogram.buckets h in
  Alcotest.(check int) "bucket count" 4 (Array.length buckets);
  let counts = Array.map snd buckets in
  Alcotest.(check (array int)) "per-bucket" [| 2; 2; 1; 2 |] counts;
  Alcotest.(check (float 0.)) "le=1" 1. (fst buckets.(0));
  Alcotest.(check (float 0.)) "le=2" 2. (fst buckets.(1));
  Alcotest.(check (float 0.)) "le=4" 4. (fst buckets.(2));
  Alcotest.(check bool) "overflow bound" true (fst buckets.(3) = infinity);
  Alcotest.(check int) "count" 7 (M.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 113.5 (M.Histogram.sum h)

let test_log_buckets () =
  let b = M.Histogram.log_buckets () in
  Alcotest.(check int) "default count" 36 (Array.length b);
  Alcotest.(check (float 1e-12)) "lo" 1e-6 b.(0);
  (* Three buckets per decade: the ratio of consecutive bounds is 10^(1/3). *)
  let ratio = b.(1) /. b.(0) in
  Alcotest.(check (float 1e-9)) "factor" (Float.pow 10. (1. /. 3.)) ratio;
  (* Three per decade from 1e-6: bound 27 sits at 1e-6 * 10^9 = 1 ks. *)
  Alcotest.(check (float 1e-3)) "1ks at index 27" 1e3 b.(27);
  Array.iteri
    (fun i bound -> if i > 0 then assert (bound > b.(i - 1)))
    b

(* --- snapshot / reset ----------------------------------------------------- *)

let test_snapshot_reset () =
  let r = M.create () in
  let c = M.counter ~registry:r ~help:"c" "c_total" in
  let g = M.gauge ~registry:r "g" in
  let fam v = M.counter_family ~registry:r "f_total" ~labels:[ "pe" ] [ v ] in
  M.Counter.add c 3;
  M.Gauge.set g 2.5;
  M.Counter.inc (fam "SPE0");
  M.Counter.inc (fam "SPE0");
  M.Counter.inc (fam "SPE1");
  let snap = M.snapshot r in
  Alcotest.(check (list string))
    "registration order" [ "c_total"; "g"; "f_total" ]
    (List.map (fun f -> f.M.name) snap);
  let f_fam = List.nth snap 2 in
  Alcotest.(check (list string)) "label names" [ "pe" ] f_fam.M.label_names;
  let sample labels =
    match List.assoc labels f_fam.M.samples with
    | M.Counter_v v -> v
    | _ -> Alcotest.fail "expected counter sample"
  in
  Alcotest.(check int) "SPE0" 2 (sample [ "SPE0" ]);
  Alcotest.(check int) "SPE1" 1 (sample [ "SPE1" ]);
  (match List.assoc [] (List.nth snap 0).M.samples with
  | M.Counter_v 3 -> ()
  | _ -> Alcotest.fail "c_total should be 3");
  (* Re-registration by name returns the live handle. *)
  M.Counter.inc (M.counter ~registry:r "c_total");
  Alcotest.(check int) "idempotent handle" 4 (M.Counter.value c);
  (* Reusing a name with another kind is an error. *)
  (match M.gauge ~registry:r "c_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  (* Reset zeroes values but keeps handles registered and live. *)
  M.reset r;
  Alcotest.(check int) "counter reset" 0 (M.Counter.value c);
  Alcotest.(check (float 0.)) "gauge reset" 0. (M.Gauge.value g);
  Alcotest.(check int) "family reset" 0 (M.Counter.value (fam "SPE0"));
  M.Counter.inc c;
  Alcotest.(check int) "live after reset" 1 (M.Counter.value c);
  Alcotest.(check int)
    "families survive reset" 3
    (List.length (M.snapshot r))

let test_multidomain_hammer () =
  (* Four domains hammer one counter, one gauge, one histogram and one
     shared family while the main domain snapshots concurrently: no
     update may be lost and registration must be safe from any domain. *)
  let r = M.create () in
  let c = M.counter ~registry:r "hammer_total" in
  let g = M.gauge ~registry:r "hammer_gauge" in
  let h = M.histogram ~registry:r ~buckets:[| 0.5 |] "hammer_hist" in
  let domains = 4 and per = 25_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              M.Counter.inc c;
              M.Gauge.add g 1.;
              M.Histogram.observe h (float_of_int (i land 1));
              if i land 1023 = 0 then
                (* concurrent (idempotent) registration *)
                M.Counter.inc
                  (M.counter_family ~registry:r "hammer_fam_total"
                     ~labels:[ "d" ]
                     [ string_of_int d ])
            done))
  in
  for _ = 1 to 50 do
    ignore (M.snapshot r)
  done;
  List.iter Domain.join ds;
  let total = domains * per in
  Alcotest.(check int) "no lost counter increment" total (M.Counter.value c);
  Alcotest.(check (float 0.)) "no lost gauge add" (float_of_int total)
    (M.Gauge.value g);
  Alcotest.(check int) "no lost observation" total (M.Histogram.count h);
  (* i land 1 alternates 1,0,...: half the observations are 1. *)
  Alcotest.(check (float 0.)) "histogram sum" (float_of_int (total / 2))
    (M.Histogram.sum h);
  List.iter
    (fun (_, i) ->
      Alcotest.(check int) "family child per domain" (per / 1024)
        (M.Counter.value
           (M.counter_family ~registry:r "hammer_fam_total" ~labels:[ "d" ]
              [ string_of_int i ])))
    (List.init domains (fun i -> ((), i)))

let test_export_parses () =
  let r = M.create () in
  let c = M.counter ~registry:r ~help:"with \"quotes\" and \\ back" "c_total" in
  M.Counter.inc c;
  M.Histogram.observe (M.histogram ~registry:r "h_seconds") 0.01;
  M.Gauge.set (M.gauge ~registry:r "g") Float.nan;
  let j = Json.parse (M.to_json r) in
  (match Json.member "families" j with
  | Some (Json.Arr fams) -> Alcotest.(check int) "3 families" 3 (List.length fams)
  | _ -> Alcotest.fail "families array missing");
  (* Prometheus text: one TYPE line per family, cumulative buckets. *)
  let prom = M.to_prometheus r in
  let contains needle =
    let nl = String.length needle and hl = String.length prom in
    let rec go i = i + nl <= hl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "missing %S" needle)
    [ "# TYPE c_total counter"; "h_seconds_bucket{le=\"+Inf\"}"; "h_seconds_count 1" ]

(* One rule picks every metrics file's format (batch/map --metrics and
   serve --metrics-file alike): Prometheus text for .prom, JSON for any
   other path. *)
let test_file_format_rule () =
  let r = M.create () in
  M.Counter.inc (M.counter ~registry:r "fmt_total");
  List.iter
    (fun (path, want, name) ->
      Alcotest.(check string) (path ^ " is " ^ name) (want r)
        (M.to_file_format path r))
    [
      ("m.prom", M.to_prometheus, "Prometheus text");
      ("dir.json/m.json", M.to_json, "JSON");
      ("m.txt", M.to_json, "JSON");
      ("m.prom.txt", M.to_json, "JSON");
    ]

(* --- Chrome trace JSON shape ---------------------------------------------- *)

let check_chrome_shape json_text ~expect_events =
  let j = Json.parse json_text in
  let evs =
    match Json.member "traceEvents" j with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  if expect_events then
    Alcotest.(check bool) "has events" true (List.length evs > 0);
  List.iter
    (fun e ->
      let ph =
        match Json.member "ph" e with
        | Some (Json.Str ph) -> ph
        | _ -> Alcotest.fail "ph missing"
      in
      (match Json.member "ts" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "ts missing");
      (match Json.member "pid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "pid missing");
      match ph with
      | "X" -> (
          (* Complete events carry a non-negative duration. *)
          match Json.member "dur" e with
          | Some (Json.Num d) when d >= 0. -> ()
          | _ -> Alcotest.fail "X event without dur")
      | "C" | "M" -> ()
      | other -> Alcotest.failf "unexpected phase %S" other)
    evs;
  evs

let json_str key e =
  match Json.member key e with Some (Json.Str v) -> v | _ -> ""

let collect write =
  let out = Buffer.create 4096 in
  write (Buffer.add_buffer out);
  Buffer.contents out

let chrome_json evs =
  collect (fun sink -> Ev.write_chrome_json sink (List.to_seq evs))

let trace_chrome platform trace =
  collect (fun sink -> Simulator.Trace.write_chrome sink platform trace)

let test_chrome_json_handmade () =
  let evs =
    check_chrome_shape ~expect_events:true
      (chrome_json
         [
           Ev.thread_name_event ~tid:2 "SPE1";
           {
             Ev.ts = 0.;
             name = "slot";
             cat = "compute";
             pid = 1;
             tid = 2;
             phase = Ev.Complete 0.25;
             args = [ ("k", Ev.Int 1); ("ok", Ev.Bool true) ];
           };
           {
             Ev.ts = 0.5;
             name = "queue";
             cat = "";
             pid = 1;
             tid = 0;
             phase = Ev.Counter;
             args = [ ("v", Ev.Float 1.5) ];
           };
         ])
  in
  (* Events come out in list order; an empty category reads "default". *)
  Alcotest.(check (list string)) "list order"
    [ "thread_name"; "slot"; "queue" ] (List.map (json_str "name") evs);
  Alcotest.(check (list string)) "phases" [ "M"; "X"; "C" ]
    (List.map (json_str "ph") evs);
  Alcotest.(check string) "default category" "default"
    (json_str "cat" (List.nth evs 2));
  (* ts is rescaled to microseconds. *)
  let tss =
    List.filter_map
      (fun e ->
        match Json.member "ts" e with Some (Json.Num t) -> Some t | _ -> None)
      evs
  in
  Alcotest.(check bool) "microseconds" true (List.mem 500000. tss)

let daggen ~seed shape =
  Daggen.Generator.generate ~rng:(Support.Rng.create seed) ~shape
    ~costs:Daggen.Generator.default_costs

let traced_run platform g ~instances =
  let mapping = Cellsched.Heuristics.greedy_cpu platform g in
  let trace = Simulator.Trace.create () in
  let m = Simulator.Runtime.run ~trace platform g mapping ~instances in
  (trace, m)

let phase_count evs ph =
  List.length (List.filter (fun e -> json_str "ph" e = ph) evs)

let test_chrome_json_from_simulation () =
  let platform = P.make ~n_ppe:1 ~n_spe:4 () in
  let trace, m =
    traced_run platform ~instances:50
      (daggen ~seed:11
         { Daggen.Generator.n = 12; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 })
  in
  Alcotest.(check int) "completed" 50 m.Simulator.Runtime.instances;
  let evs =
    check_chrome_shape ~expect_events:true
      (trace_chrome platform trace)
  in
  (* Metadata naming each PE lane, one X span per recorded
     compute/transfer, and the runtime's counter samples. *)
  Alcotest.(check int) "X = trace spans"
    (List.length (Simulator.Trace.spans trace))
    (phase_count evs "X");
  Alcotest.(check int) "one lane name per PE" (P.n_pes platform)
    (phase_count evs "M");
  Alcotest.(check bool) "counter samples present" true (phase_count evs "C" > 0)

(* The graph of [generate --seed 7] (the CLI defaults) emits 104
   counter samples per instance under greedy-cpu on a QS22 with 8 SPEs,
   so 700 instances emit about 72,800: more than the 65,536 a bounded
   buffer used to keep. Every transfer must still have its DMA-queue
   and buffer-occupancy sample, and the counter tracks must start with
   the run, not near its end. *)
let test_chrome_json_keeps_every_sample () =
  let platform = P.qs22 ~n_spe:8 () in
  let trace, m =
    traced_run platform ~instances:700
      (Streaming.Ccr.scale_to ~target:0.775
         (daggen ~seed:7
            { Daggen.Generator.n = 50; fat = 0.3; density = 0.4; regularity = 0.6; jump = 2 }))
  in
  let evs =
    check_chrome_shape ~expect_events:true
      (trace_chrome platform trace)
  in
  let ts e = match Json.member "ts" e with Some (Json.Num t) -> t | _ -> nan in
  let counters = List.filter (fun e -> json_str "ph" e = "C") evs in
  Alcotest.(check bool) "more samples than 65,536" true
    (List.length counters > 65_536);
  let named p =
    List.length (List.filter (fun e -> p (json_str "name" e)) counters)
  in
  let transfers = m.Simulator.Runtime.transfers in
  Alcotest.(check int) "one dma_in sample per transfer" transfers
    (named (String.starts_with ~prefix:"dma_in["));
  Alcotest.(check int) "one buffer_occupancy sample per transfer" transfers
    (named (String.equal "buffer_occupancy"));
  let first_transfer =
    List.find (fun e -> json_str "ph" e = "X" && json_str "cat" e = "transfer") evs
  in
  Alcotest.(check bool) "first sample no later than the first transfer" true
    (ts (List.hd counters) <= ts first_transfer)

(* --- histogram quantiles --------------------------------------------------- *)

let test_histogram_quantile () =
  (* Hand-built non-cumulative buckets: 10 in (0,1], 10 in (1,2], none
     in (2,4], 5 overflow — 25 observations total. *)
  let buckets = [| (1., 10); (2., 10); (4., 0); (infinity, 5) |] in
  let q = M.histogram_quantile buckets in
  Alcotest.(check (float 1e-9)) "q0 at first lower edge" 0. (q 0.);
  Alcotest.(check (float 1e-9)) "q0.2 interpolates" 0.5 (q 0.2);
  Alcotest.(check (float 1e-9)) "median" 1.25 (q 0.5);
  Alcotest.(check (float 1e-9)) "q0.8 at bucket top" 2. (q 0.8);
  (* Ranks landing in the overflow bucket report its lower edge. *)
  Alcotest.(check (float 1e-9)) "q1 clamps to overflow lower edge" 4. (q 1.);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (M.histogram_quantile [| (1., 0); (infinity, 0) |] 0.5));
  (match q (-0.1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative quantile accepted");
  (match q 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile above 1 accepted");
  (* Monotone in q — the property the bench's p50 <= p95 <= p99 rests on. *)
  let prev = ref neg_infinity in
  for i = 0 to 100 do
    let v = q (float_of_int i /. 100.) in
    if v < !prev then Alcotest.failf "quantile not monotone at %d%%" i;
    prev := v
  done;
  (* The live-histogram wrapper agrees with the bucket-level estimator. *)
  let r = M.create () in
  let h = M.histogram ~registry:r ~buckets:[| 1.; 2.; 4. |] "hq" in
  List.iter (M.Histogram.observe h) [ 0.5; 0.6; 1.5; 3.0 ];
  Alcotest.(check (float 1e-9))
    "wrapper matches buckets"
    (M.histogram_quantile (M.Histogram.buckets h) 0.5)
    (M.Histogram.quantile h 0.5)

(* --- Prometheus exposition under hostile labels and help ------------------- *)

let test_prometheus_hostile_labels () =
  let r = M.create () in
  let child =
    M.counter_family ~registry:r ~help:"bad \\ help\nsecond line"
      "hostile_total" ~labels:[ "who" ]
  in
  M.Counter.inc (child [ "a\"b\\c\nd" ]);
  M.Counter.inc (child [ "plain" ]);
  let prom = M.to_prometheus r in
  let count_sub needle =
    let nl = String.length needle and hl = String.length prom in
    let rec go i acc =
      if i + nl > hl then acc
      else go (i + 1) (if String.sub prom i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  (* Label values escape backslash, double quote and newline. *)
  Alcotest.(check int) "escaped label value" 1
    (count_sub "hostile_total{who=\"a\\\"b\\\\c\\nd\"} 1");
  Alcotest.(check int) "plain sibling" 1
    (count_sub "hostile_total{who=\"plain\"} 1");
  (* HELP escapes backslash and newline but never the double quote. *)
  Alcotest.(check int) "escaped help" 1
    (count_sub "# HELP hostile_total bad \\\\ help\\nsecond line\n");
  (* TYPE and HELP appear once per family, not once per child. *)
  Alcotest.(check int) "one TYPE line" 1 (count_sub "# TYPE hostile_total");
  Alcotest.(check int) "one HELP line" 1 (count_sub "# HELP hostile_total");
  (* A raw newline in a label value must never produce a raw newline in
     the exposition — every line stays parseable. *)
  Alcotest.(check int) "no unescaped newline mid-sample" 0
    (count_sub "a\"b\\c\nd")

(* --- spans ----------------------------------------------------------------- *)

module Sp = Obs.Span

let test_span_identity () =
  let col = Sp.collector () in
  let root = Sp.root col ~trace:"t1" in
  let v =
    Sp.with_span root "request" (fun ctx ->
        Sp.with_span ctx ~attrs:[ ("n", Sp.Int 3) ] "solve" (fun ctx ->
            Sp.record ctx "leaf";
            17))
  in
  Alcotest.(check int) "value threaded through" 17 v;
  let spans = Sp.spans col in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check (list string)) "sorted parents first"
    [ "/request"; "/request/solve"; "/request/solve/leaf" ]
    (List.map (fun s -> s.Sp.path) spans);
  let by_path p = List.find (fun s -> s.Sp.path = p) spans in
  let req = by_path "/request" and solve = by_path "/request/solve" in
  Alcotest.(check bool) "root has parent 0" true (Int64.equal req.Sp.parent 0L);
  Alcotest.(check bool) "child parent is parent's id" true
    (Int64.equal solve.Sp.parent req.Sp.id);
  Alcotest.(check bool) "grandchild parent is child's id" true
    (Int64.equal (by_path "/request/solve/leaf").Sp.parent solve.Sp.id);
  Alcotest.(check bool) "ids never 0" true
    (List.for_all (fun s -> not (Int64.equal s.Sp.id 0L)) spans);
  (match solve.Sp.attrs with
  | [ ("n", Sp.Int 3) ] -> ()
  | _ -> Alcotest.fail "attrs lost");
  Alcotest.(check bool) "timestamps ordered" true
    (List.for_all (fun s -> s.Sp.t_stop >= s.Sp.t_start) spans);
  (* Identity is content, not allocation order: an identical second run
     produces the same ids; a different trace produces different ones. *)
  let ids_of trace =
    let c = Sp.collector () in
    Sp.with_span (Sp.root c ~trace) "request" (fun ctx ->
        Sp.with_span ctx "solve" (fun _ -> ()));
    List.map (fun s -> (s.Sp.path, s.Sp.id)) (Sp.spans c)
  in
  Alcotest.(check bool) "same trace, same ids" true
    (List.assoc "/request/solve" (ids_of "t1") = solve.Sp.id);
  Alcotest.(check bool) "different trace, different ids" true
    (List.assoc "/request/solve" (ids_of "t2") <> solve.Sp.id);
  (* The null context is free and inert. *)
  Alcotest.(check bool) "null inactive" false (Sp.active Sp.null);
  Alcotest.(check bool) "live ctx active" true (Sp.active root);
  Sp.with_span Sp.null "x" (fun ctx ->
      Alcotest.(check bool) "null child inactive" false (Sp.active ctx));
  Sp.record Sp.null "y";
  Alcotest.(check int) "count" 3 (Sp.count col);
  Sp.clear col;
  Alcotest.(check int) "clear empties" 0 (Sp.count col)

let test_span_exception () =
  let col = Sp.collector () in
  (match
     Sp.with_span (Sp.root col ~trace:"t") "boom" (fun _ -> failwith "x")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match Sp.spans col with
  | [ s ] ->
      Alcotest.(check string) "span recorded" "/boom" s.Sp.path;
      Alcotest.(check bool) "raised attr" true
        (List.mem ("raised", Sp.Bool true) s.Sp.attrs)
  | _ -> Alcotest.fail "expected exactly the raised span"

let test_span_multidomain () =
  (* Four domains record under one collector through a shared context;
     the merged stream must be complete and well-parented, and its
     (path, id, parent) skeleton independent of interleaving. *)
  let col = Sp.collector () in
  Sp.with_span (Sp.root col ~trace:"md") "request" (fun ctx ->
      let ds =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to 24 do
                  Sp.with_span ctx
                    (Printf.sprintf "w%d:%d" d i)
                    (fun c -> Sp.record c "inner")
                done))
      in
      List.iter Domain.join ds);
  let spans = Sp.spans col in
  Alcotest.(check int) "all spans collected" 201 (List.length spans);
  let ids = List.map (fun s -> s.Sp.id) spans in
  Alcotest.(check bool) "well-parented" true
    (List.for_all
       (fun s -> Int64.equal s.Sp.parent 0L || List.mem s.Sp.parent ids)
       spans);
  let paths = List.map (fun s -> s.Sp.path) spans in
  Alcotest.(check bool) "merge point sorts by path" true
    (paths = List.sort compare paths)

let test_span_chrome_json () =
  let col = Sp.collector () in
  Sp.with_span (Sp.root col ~trace:"cj") "request" (fun ctx ->
      Sp.with_span ctx
        ~attrs:[ ("nodes", Sp.Int 7); ("gap", Sp.Float 0.05) ]
        "solve"
        (fun _ -> ()));
  let evs =
    check_chrome_shape ~expect_events:true
      (Sp.to_chrome_json (Sp.spans col))
  in
  Alcotest.(check int) "one event per span" 2 (List.length evs);
  let args e =
    match Json.member "args" e with
    | Some (Json.Obj kvs) -> kvs
    | _ -> Alcotest.fail "args missing"
  in
  Alcotest.(check bool) "every event carries its path and trace" true
    (List.for_all
       (fun e ->
         let a = args e in
         List.mem_assoc "path" a
         && List.assoc "trace" a = Json.Str "cj")
       evs);
  (* Timestamps are rebased: the earliest event starts at 0. *)
  let tss =
    List.filter_map
      (fun e ->
        match Json.member "ts" e with Some (Json.Num t) -> Some t | _ -> None)
      evs
  in
  Alcotest.(check (float 1e-6)) "rebased to zero" 0.
    (List.fold_left Float.min infinity tss);
  (* The flat rendering (the TRACE verb body) lists parents first. *)
  let flat = Sp.render_flat (Sp.spans col) in
  (match String.split_on_char '\n' flat with
  | first :: second :: _ ->
      Alcotest.(check bool) "parent line first" true
        (String.starts_with ~prefix:"span /request dur_ms=" first);
      Alcotest.(check bool) "child line second" true
        (String.starts_with ~prefix:"span /request/solve dur_ms=" second);
      Alcotest.(check bool) "attrs rendered" true
        (String.ends_with ~suffix:"nodes=7 gap=0.05" second)
  | _ -> Alcotest.fail "render_flat too short");
  (* The tree rendering indents two spaces per depth. *)
  (match String.split_on_char '\n' (Sp.render_tree (Sp.spans col)) with
  | first :: second :: _ ->
      Alcotest.(check bool) "root unindented" true
        (String.starts_with ~prefix:"request " first);
      Alcotest.(check bool) "child indented" true
        (String.starts_with ~prefix:"  solve " second)
  | _ -> Alcotest.fail "render_tree too short")

(* Byte-for-byte pin of the span export, hostile strings included: a
   quote, a backslash and control bytes in names, paths, the trace id
   and attributes, plus a non-finite float and a negative duration. *)
let test_span_chrome_golden () =
  let span ~name ~path ~t_start ~t_stop attrs =
    { Sp.trace = "gold\"en"; id = Int64.of_int (Hashtbl.hash path);
      parent = 0L; name; path; t_start; t_stop; attrs }
  in
  let spans =
    [
      span ~name:"re\"q\\\x01" ~path:"/re\"q\\\x01" ~t_start:100.25
        ~t_stop:100.75
        [ ("nodes", Sp.Int 4821); ("ok", Sp.Bool false) ];
      span ~name:"solve" ~path:"/re\"q\\\x01/solve" ~t_start:100.5
        ~t_stop:100.4
        [ ("gap", Sp.Float 0.05); ("bound", Sp.Float infinity);
          ("why", Sp.String "tab\there\nq\"\\\x1f") ];
    ]
  in
  Alcotest.(check string) "exact bytes"
    {|{"traceEvents":[{"name":"re\"q\\\u0001","cat":"span","ph":"X","ts":0.000,"dur":500000.000,"pid":0,"tid":0,"args":{"path":"/re\"q\\\u0001","trace":"gold\"en","nodes":4821,"ok":false}},{"name":"solve","cat":"span","ph":"X","ts":250000.000,"dur":0.000,"pid":0,"tid":0,"args":{"path":"/re\"q\\\u0001/solve","trace":"gold\"en","gap":0.050000000000000003,"bound":null,"why":"tab\there\nq\"\\\u001f"}}],"displayTimeUnit":"ms"}|}
    (Sp.to_chrome_json spans)

(* --- span-stream determinism across pool sizes ----------------------------- *)

(* The span-determinism contract: for the same request list, every
   request's span tree — paths, parentage (content-derived ids), names,
   attrs; timestamps excluded — is identical whether the engine solves
   inline or as fibers on pools of 1, 2 or 4 workers. Uses the
   portfolio strategy: its span set is structural (entrants by name),
   unlike the B&B phase-B subtree family whose task *set* is
   timing-dependent by design. *)
let spans_deterministic_across_pools =
  QCheck.Test.make ~count:5 ~name:"span stream identical at pools 1/2/4"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let requests =
        List.init 3 (fun i ->
            let rng = Support.Rng.create ((seed * 7) + i + 5_000_000) in
            let g =
              Daggen.Generator.generate ~rng
                ~shape:
                  { Daggen.Generator.n = 10 + i; fat = 0.5; density = 0.4;
                    regularity = 0.5; jump = 2 }
                ~costs:Daggen.Generator.default_costs
            in
            {
              Service.Request.label = Printf.sprintf "g%d" i;
              platform = P.make ~n_ppe:1 ~n_spe:4 ();
              graph = g;
              strategy = Service.Request.Portfolio { seed = 24301; restarts = 2 };
              deadline_ms = None;
              prio = 0;
            })
      in
      (* A duplicate of the first request exercises the in-stream
         duplicate path (a dispatch-time hit: no solve span). *)
      let requests = requests @ [ List.hd requests ] in
      let run (concurrency, fibers) =
        let server, _ =
          Engine_batch.run ~concurrency ~fibers ~trace:true requests
        in
        (* The TRACE body, one "span <path> dur_ms=<t> <attrs>" line per
           span: drop the duration, keep everything else. *)
        List.concat
          (List.mapi
             (fun i _ ->
               let buf = Buffer.create 1024 in
               Daemon.Server.handle_line server ~out:(Buffer.add_string buf)
                 (Printf.sprintf "TRACE %d" i);
               String.split_on_char '\n' (Buffer.contents buf)
               |> List.filter_map (fun line ->
                      match String.split_on_char ' ' line with
                      | "span" :: path :: _dur :: attrs ->
                          Some (String.concat " " (path :: attrs))
                      | _ -> None))
             requests)
      in
      let inline = run (1, false) in
      List.iter
        (fun size ->
          if run (size, true) <> inline then
            QCheck.Test.fail_reportf "span trees diverged at pool %d" size)
        [ 1; 2; 4 ];
      (* Sanity: the trees are non-trivial — a request root per request
         and one solve per distinct request. *)
      let count path =
        List.length
          (List.filter
             (fun l -> List.hd (String.split_on_char ' ' l) = path)
             inline)
      in
      if count "/request" <> 4 then
        QCheck.Test.fail_reportf "expected 4 request roots, got %d"
          (count "/request");
      if count "/request/solve" <> 3 then
        QCheck.Test.fail_reportf "expected 3 solve spans, got %d"
          (count "/request/solve");
      true)

(* --- transparency: metrics on = metrics off, bitwise ---------------------- *)

let with_metrics_on f =
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled false; M.reset M.default) f

let search_result platform g m0 =
  let m = Cellsched.Heuristics.local_search platform g m0 in
  let ev = Cellsched.Eval.create platform g m in
  (Cellsched.Mapping.to_array m, Int64.bits_of_float (Cellsched.Eval.period ev))

let metrics_transparent =
  QCheck.Test.make ~count:25 ~name:"enabling metrics changes no result"
    QCheck.(pair (int_bound 100_000) (int_range 6 16))
    (fun (seed, n) ->
      let n = max 6 n and seed = abs seed in
      let rng = Support.Rng.create (seed + 31_000_000) in
      let g =
        Daggen.Generator.generate ~rng
          ~shape:
            { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
          ~costs:Daggen.Generator.default_costs
      in
      let platform = P.make ~n_ppe:1 ~n_spe:4 () in
      let m0 = Cellsched.Heuristics.greedy_mem platform g in
      let base_map, base_period = search_result platform g m0 in
      let on_map, on_period =
        with_metrics_on (fun () -> search_result platform g m0)
      in
      if base_map <> on_map then
        QCheck.Test.fail_reportf "local search diverged under metrics";
      if base_period <> on_period then
        QCheck.Test.fail_reportf "period bits diverged under metrics";
      (* The simulator too: counters and a trace recording spans and
         samples must not perturb the discrete-event timeline. *)
      let sim () =
        let r = Simulator.Runtime.run platform g m0 ~instances:60 in
        ( Array.map Int64.bits_of_float r.Simulator.Runtime.completion_times,
          r.Simulator.Runtime.transfers )
      in
      let base_sim = sim () in
      let on_sim =
        with_metrics_on (fun () ->
            let trace = Simulator.Trace.create () in
            let r = Simulator.Runtime.run ~trace platform g m0 ~instances:60 in
            ( Array.map Int64.bits_of_float r.Simulator.Runtime.completion_times,
              r.Simulator.Runtime.transfers ))
      in
      if base_sim <> on_sim then
        QCheck.Test.fail_reportf "simulation diverged under metrics/trace";
      true)

(* --- the obs command's two forms ---------------------------------------------

   [cellsched obs] is a command group whose default term maps and
   simulates a graph. Options before the graph and the graph first are
   the same request: both exit 0 and dump the same deterministic solver
   counters. *)

let cli = Filename.concat ".." (Filename.concat "bin" "cellsched_cli.exe")

let run_cli args =
  let out = Filename.temp_file "cellsched_obs" ".out" in
  let code =
    Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:out)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let counter_value text name =
  match Support.Json.parse text with
  | Error m -> Alcotest.failf "obs output is not JSON: %s" m
  | Ok json ->
      let module J = Support.Json in
      let families =
        Option.value ~default:[]
          (Option.bind (J.member "families" json) J.to_list)
      in
      let family =
        List.find_opt
          (fun f -> Option.bind (J.member "name" f) J.to_str = Some name)
          families
      in
      Option.bind family (fun f ->
          match Option.bind (J.member "samples" f) J.to_list with
          | Some [ s ] -> Option.bind (J.member "value" s) J.to_float
          | _ -> None)

let test_obs_graph_first () =
  let graph = Filename.temp_file "cellsched_obs" ".stream" in
  let code, _ =
    run_cli [ "generate"; "-n"; "12"; "--seed"; "3"; "-o"; graph ]
  in
  Alcotest.(check int) "generate exits 0" 0 code;
  let options = [ "-s"; "lp-round"; "-n"; "200" ] in
  let first_code, first = run_cli (("obs" :: graph :: options)) in
  let last_code, last = run_cli (("obs" :: options) @ [ graph ]) in
  Sys.remove graph;
  Alcotest.(check int) ("obs GRAPH OPTIONS exits 0: " ^ first) 0 first_code;
  Alcotest.(check int) "obs OPTIONS GRAPH exits 0" 0 last_code;
  List.iter
    (fun name ->
      match (counter_value first name, counter_value last name) with
      | Some a, Some b -> Alcotest.(check (float 0.)) name b a
      | _ -> Alcotest.failf "%s missing from the obs output" name)
    [ "lp_simplex_pivots_total"; "search_eval_probes_total" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_buckets;
          Alcotest.test_case "log-scale default buckets" `Quick
            test_log_buckets;
          Alcotest.test_case "snapshot and reset" `Quick test_snapshot_reset;
          Alcotest.test_case "multi-domain hammer" `Quick
            test_multidomain_hammer;
          Alcotest.test_case "JSON and Prometheus exports" `Quick
            test_export_parses;
          Alcotest.test_case "one file-format rule" `Quick
            test_file_format_rule;
          Alcotest.test_case "histogram quantile estimation" `Quick
            test_histogram_quantile;
          Alcotest.test_case "Prometheus hostile labels and help" `Quick
            test_prometheus_hostile_labels;
        ] );
      ( "events",
        [
          Alcotest.test_case "Chrome JSON shape (handmade)" `Quick
            test_chrome_json_handmade;
          Alcotest.test_case "Chrome JSON shape (simulation)" `Quick
            test_chrome_json_from_simulation;
          Alcotest.test_case "simulation keeps every counter sample" `Quick
            test_chrome_json_keeps_every_sample;
        ] );
      ( "spans",
        [
          Alcotest.test_case "identity, parentage and contexts" `Quick
            test_span_identity;
          Alcotest.test_case "raised attribute on exception" `Quick
            test_span_exception;
          Alcotest.test_case "multi-domain collection" `Quick
            test_span_multidomain;
          Alcotest.test_case "Chrome JSON and renderings" `Quick
            test_span_chrome_json;
          Alcotest.test_case "Chrome JSON exact bytes" `Quick
            test_span_chrome_golden;
          qt spans_deterministic_across_pools;
        ] );
      ("transparency", [ qt metrics_transparent ]);
      ( "cli",
        [
          Alcotest.test_case "obs takes the graph first or last" `Quick
            test_obs_graph_first;
        ] );
    ]
