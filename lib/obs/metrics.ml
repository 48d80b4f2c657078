(* Domain-safety: every metric value lives in an [Atomic.t] (plain
   [incr]/[fetch_and_add] for ints, retry-CAS for float accumulation),
   so concurrent updates from multiple domains never lose increments.
   Registration and traversal share a per-registry mutex because
   [Hashtbl] is not safe under concurrent mutation; hot paths hoist
   handles, so the lock is off the increment path. A multi-field
   histogram observation is not one atomic transaction — a snapshot
   racing an [observe] can see [count] without the matching [sum] —
   which is acceptable for monitoring output and documented in the
   interface. *)

module Counter = struct
  type t = { c : int Atomic.t }

  let inc t = Atomic.incr t.c

  let add t n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add t.c n)

  let value t = Atomic.get t.c
end

module Gauge = struct
  type t = { g : float Atomic.t }

  let set t v = Atomic.set t.g v

  let rec add t v =
    let cur = Atomic.get t.g in
    if not (Atomic.compare_and_set t.g cur (cur +. v)) then add t v

  let value t = Atomic.get t.g
end

module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing upper bounds *)
    counts : int Atomic.t array;  (* length bounds + 1; last = overflow *)
    sum : float Atomic.t;
    n : int Atomic.t;
  }

  let rec add_sum t v =
    let cur = Atomic.get t.sum in
    if not (Atomic.compare_and_set t.sum cur (cur +. v)) then add_sum t v

  let observe t v =
    let nb = Array.length t.bounds in
    (* Binary search for the first bound >= v. *)
    let lo = ref 0 and hi = ref nb in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    Atomic.incr t.counts.(!lo);
    add_sum t v;
    Atomic.incr t.n

  let count t = Atomic.get t.n
  let sum t = Atomic.get t.sum

  let buckets t =
    Array.init (Array.length t.counts) (fun i ->
        ( (if i < Array.length t.bounds then t.bounds.(i) else infinity),
          Atomic.get t.counts.(i) ))

  let log_buckets ?(lo = 1e-6) ?(factor = 10. ** (1. /. 3.)) ?(count = 36) () =
    if not (lo > 0.) then invalid_arg "Metrics.log_buckets: lo must be > 0";
    if not (factor > 1.) then invalid_arg "Metrics.log_buckets: factor must be > 1";
    if count <= 0 then invalid_arg "Metrics.log_buckets: count must be > 0";
    Array.init count (fun i -> lo *. (factor ** float_of_int i))

  (* Quantile estimate from non-cumulative buckets: cumulative walk to
     the bucket holding rank [q * total], then linear interpolation
     between its edges. The first bucket's lower edge is unknown, so we
     use 0 when its bound is positive (durations) and the bound itself
     otherwise; the overflow bucket has no upper edge, so it reports its
     lower one. Monotone in [q] by construction. *)
  let quantile_of_buckets buckets q =
    if not (q >= 0. && q <= 1.) then
      invalid_arg "Metrics.histogram_quantile: q must be in [0, 1]";
    let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
    if total = 0 then Float.nan
    else begin
      let target = q *. float_of_int total in
      let result = ref Float.nan in
      let cum = ref 0 in
      (try
         Array.iteri
           (fun i (ub, n) ->
             let prev = !cum in
             cum := !cum + n;
             if n > 0 && float_of_int !cum >= target then begin
               let lower =
                 if i = 0 then
                   let b0 = fst buckets.(0) in
                   if b0 > 0. then 0. else b0
                 else fst buckets.(i - 1)
               in
               (if Float.is_finite ub then
                  let frac =
                    Float.max 0. ((target -. float_of_int prev) /. float_of_int n)
                  in
                  result := lower +. (frac *. (ub -. lower))
                else result := lower);
               raise Exit
             end)
           buckets
       with Exit -> ());
      !result
    end

  let quantile t q = quantile_of_buckets (buckets t) q
end

let histogram_quantile = Histogram.quantile_of_buckets

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type kind = K_counter | K_gauge | K_histogram of float array

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_labels : string list;
  children : (string list, metric) Hashtbl.t;
  mutable child_order : string list list;  (* reversed first-use order *)
}

type t = {
  lock : Mutex.t;  (* guards both hashtables and the order lists *)
  families : (string, family) Hashtbl.t;
  mutable order : string list;  (* reversed registration order *)
}

let create () =
  { lock = Mutex.create (); families = Hashtbl.create 32; order = [] }

let default = create ()

let locked registry f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram _ -> "histogram"

let same_kind a b =
  match (a, b) with
  | K_counter, K_counter | K_gauge, K_gauge -> true
  | K_histogram x, K_histogram y -> x = y
  | _ -> false

let check_buckets name bounds =
  let nb = Array.length bounds in
  if nb = 0 then invalid_arg (name ^ ": histogram needs at least one bucket");
  for i = 1 to nb - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg (name ^ ": bucket bounds must be strictly increasing")
  done

(* Call with [registry.lock] held. *)
let family_locked registry ~help ~kind ~labels name =
  match Hashtbl.find_opt registry.families name with
  | Some f ->
      if not (same_kind f.f_kind kind) || f.f_labels <> labels then
        invalid_arg
          (Printf.sprintf
             "Metrics: %s re-registered with a different kind or labels" name);
      f
  | None ->
      (match kind with
      | K_histogram bounds -> check_buckets name bounds
      | _ -> ());
      let f =
        {
          f_name = name;
          f_help = help;
          f_kind = kind;
          f_labels = labels;
          children = Hashtbl.create 4;
          child_order = [];
        }
      in
      Hashtbl.replace registry.families name f;
      registry.order <- name :: registry.order;
      f

let fresh_metric = function
  | K_counter -> M_counter { Counter.c = Atomic.make 0 }
  | K_gauge -> M_gauge { Gauge.g = Atomic.make 0. }
  | K_histogram bounds ->
      M_histogram
        {
          Histogram.bounds;
          counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
          n = Atomic.make 0;
        }

(* Call with the registry lock held. *)
let child_locked f values =
  if List.length values <> List.length f.f_labels then
    invalid_arg
      (Printf.sprintf "Metrics: %s expects %d label values" f.f_name
         (List.length f.f_labels));
  match Hashtbl.find_opt f.children values with
  | Some m -> m
  | None ->
      let m = fresh_metric f.f_kind in
      Hashtbl.replace f.children values m;
      f.child_order <- values :: f.child_order;
      m

let register registry ~help ~kind ~labels name values =
  locked registry (fun () ->
      child_locked (family_locked registry ~help ~kind ~labels name) values)

let as_counter = function M_counter c -> c | _ -> assert false
let as_gauge = function M_gauge g -> g | _ -> assert false
let as_histogram = function M_histogram h -> h | _ -> assert false

let counter ?(registry = default) ?(help = "") name =
  as_counter (register registry ~help ~kind:K_counter ~labels:[] name [])

let gauge ?(registry = default) ?(help = "") name =
  as_gauge (register registry ~help ~kind:K_gauge ~labels:[] name [])

let histogram ?(registry = default) ?(help = "") ?buckets name =
  let bounds =
    match buckets with Some b -> b | None -> Histogram.log_buckets ()
  in
  as_histogram
    (register registry ~help ~kind:(K_histogram bounds) ~labels:[] name [])

let counter_family ?(registry = default) ?(help = "") name ~labels values =
  as_counter (register registry ~help ~kind:K_counter ~labels name values)

let gauge_family ?(registry = default) ?(help = "") name ~labels values =
  as_gauge (register registry ~help ~kind:K_gauge ~labels name values)

let histogram_family ?(registry = default) ?(help = "") ?buckets name ~labels
    values =
  let bounds =
    match buckets with Some b -> b | None -> Histogram.log_buckets ()
  in
  as_histogram
    (register registry ~help ~kind:(K_histogram bounds) ~labels name values)

(* --- snapshot and export ------------------------------------------------ *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : float; count : int; buckets : (float * int) array }

type family_snapshot = {
  name : string;
  help : string;
  kind : string;
  label_names : string list;
  samples : (string list * value) list;
}

let sample_of = function
  | M_counter c -> Counter_v (Counter.value c)
  | M_gauge g -> Gauge_v (Gauge.value g)
  | M_histogram h ->
      Histogram_v
        { sum = Histogram.sum h; count = Histogram.count h;
          buckets = Histogram.buckets h }

let snapshot registry =
  locked registry (fun () ->
      List.rev_map
        (fun name ->
          let f = Hashtbl.find registry.families name in
          {
            name = f.f_name;
            help = f.f_help;
            kind = kind_name f.f_kind;
            label_names = f.f_labels;
            samples =
              List.rev_map
                (fun values ->
                  (values, sample_of (Hashtbl.find f.children values)))
                f.child_order;
          })
        registry.order)

let reset registry =
  locked registry (fun () ->
      Hashtbl.iter
        (fun _ f ->
          Hashtbl.iter
            (fun _ -> function
              | M_counter c -> Atomic.set c.Counter.c 0
              | M_gauge g -> Atomic.set g.Gauge.g 0.
              | M_histogram h ->
                  Array.iter (fun c -> Atomic.set c 0) h.Histogram.counts;
                  Atomic.set h.Histogram.sum 0.;
                  Atomic.set h.Histogram.n 0)
            f.children)
        registry.families)

(* --- JSON --------------------------------------------------------------- *)

(* A quoted JSON string literal. *)
let json_str s =
  let buf = Buffer.create (String.length s + 2) in
  Support.Json.escape_string buf s;
  Buffer.contents buf

let json_float v =
  if Float.is_nan v then "null"
  else if v = infinity then "\"+Inf\""
  else if v = neg_infinity then "\"-Inf\""
  else Printf.sprintf "%.17g" v

let to_json registry =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"families\":[";
  let first_f = ref true in
  List.iter
    (fun (f : family_snapshot) ->
      if not !first_f then Buffer.add_char buf ',';
      first_f := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"kind\":\"%s\",\"help\":%s,\"labels\":[%s],\"samples\":["
           (json_str f.name) f.kind (json_str f.help)
           (String.concat "," (List.map json_str f.label_names)));
      let first_s = ref true in
      List.iter
        (fun (values, v) ->
          if not !first_s then Buffer.add_char buf ',';
          first_s := false;
          Buffer.add_string buf
            (Printf.sprintf "{\"label_values\":[%s],"
               (String.concat "," (List.map json_str values)));
          (match v with
          | Counter_v c -> Buffer.add_string buf (Printf.sprintf "\"value\":%d" c)
          | Gauge_v g ->
              Buffer.add_string buf
                (Printf.sprintf "\"value\":%s" (json_float g))
          | Histogram_v { sum; count; buckets } ->
              Buffer.add_string buf
                (Printf.sprintf "\"sum\":%s,\"count\":%d,\"buckets\":[%s]"
                   (json_float sum) count
                   (String.concat ","
                      (Array.to_list
                         (Array.map
                            (fun (le, n) ->
                              Printf.sprintf "{\"le\":%s,\"count\":%d}"
                                (json_float le) n)
                            buckets)))));
          Buffer.add_char buf '}')
        f.samples;
      Buffer.add_string buf "]}")
    (snapshot registry);
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* --- Prometheus text exposition ----------------------------------------- *)

(* The text exposition has two distinct escaping rules: HELP text
   escapes only backslash and newline, while quoted label values also
   escape the double quote. Sharing one escaper would either corrupt
   label values or add a spurious backslash before quotes in HELP. *)
let prom_escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels names values =
  match names with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map2
             (fun n v -> Printf.sprintf "%s=\"%s\"" n (prom_escape_label v))
             names values)
      ^ "}"

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let to_prometheus registry =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f : family_snapshot) ->
      if f.help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" f.name (prom_escape_help f.help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name f.kind);
      List.iter
        (fun (values, v) ->
          match v with
          | Counter_v c ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" f.name
                   (prom_labels f.label_names values)
                   c)
          | Gauge_v g ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" f.name
                   (prom_labels f.label_names values)
                   (prom_float g))
          | Histogram_v { sum; count; buckets } ->
              let cumulative = ref 0 in
              Array.iter
                (fun (le, n) ->
                  cumulative := !cumulative + n;
                  let labels =
                    prom_labels (f.label_names @ [ "le" ])
                      (values @ [ prom_float le ])
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" f.name labels !cumulative))
                buckets;
              let plain = prom_labels f.label_names values in
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" f.name plain (prom_float sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" f.name plain count))
        f.samples)
    (snapshot registry);
  Buffer.contents buf

let to_file_format path =
  if Filename.check_suffix path ".prom" then to_prometheus else to_json
