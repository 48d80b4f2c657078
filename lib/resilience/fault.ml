module P = Cell.Platform

type kind = Fail_stop | Slowdown of float | Link_degrade of float

type fault = { pe : int; kind : kind; start : float; finish : float }

type plan = fault list

let fail_stop ~pe ~at = { pe; kind = Fail_stop; start = at; finish = infinity }

let slowdown ~pe ~factor ~from_ ~until =
  { pe; kind = Slowdown factor; start = from_; finish = until }

let link_degrade ~pe ~factor ~from_ ~until =
  { pe; kind = Link_degrade factor; start = from_; finish = until }

let same_kind a b =
  match (a, b) with
  | Fail_stop, Fail_stop -> true
  | Slowdown _, Slowdown _ -> true
  | Link_degrade _, Link_degrade _ -> true
  | _ -> false

let validate platform plan =
  let check f =
    if f.pe < 0 || f.pe >= P.n_pes platform then
      invalid_arg (Printf.sprintf "Fault.validate: PE %d out of range" f.pe);
    if f.start < 0. then invalid_arg "Fault.validate: negative onset";
    if not (f.finish > f.start) then
      invalid_arg "Fault.validate: empty fault interval";
    match f.kind with
    | Fail_stop ->
        if f.finish <> infinity then
          invalid_arg "Fault.validate: fail-stop must last forever"
    | Slowdown factor | Link_degrade factor ->
        if factor < 1. then invalid_arg "Fault.validate: factor below 1"
  in
  List.iter check plan;
  (* The simulator keeps one current factor per PE and kind, so two faults
     of the same kind may not overlap on one PE. *)
  let rec overlaps = function
    | [] -> ()
    | f :: rest ->
        List.iter
          (fun g ->
            if
              f.pe = g.pe && same_kind f.kind g.kind && f.start < g.finish
              && g.start < f.finish
            then
              invalid_arg
                (Printf.sprintf
                   "Fault.validate: overlapping faults of one kind on PE %d"
                   f.pe))
          rest;
        overlaps rest
  in
  overlaps plan

let sorted plan =
  List.sort
    (fun a b ->
      match compare a.start b.start with 0 -> compare a.pe b.pe | c -> c)
    plan

let shift offset plan =
  List.filter_map
    (fun f ->
      if f.finish <= offset then None
      else if f.kind = Fail_stop && f.start <= offset then
        (* Already fired: the dead PE was masked out of the platform. *)
        None
      else
        Some
          {
            f with
            start = Float.max 0. (f.start -. offset);
            finish = f.finish -. offset;
          })
    plan

let mask ~alive ~remap plan =
  List.filter_map
    (fun f -> if alive f.pe then Some { f with pe = remap f.pe } else None)
    plan

let random_campaign ~rng ?(n_fail_stops = 1) ?(n_slowdowns = 1)
    ?(n_degrades = 1) ?(max_factor = 4.0) platform ~horizon =
  if horizon <= 0. then invalid_arg "Fault.random_campaign: horizon";
  if n_fail_stops < 0 || n_slowdowns < 0 || n_degrades < 0 then
    invalid_arg "Fault.random_campaign: negative fault count";
  if max_factor < 1.5 then invalid_arg "Fault.random_campaign: max_factor";
  let spes = Array.of_list (P.spes platform) in
  if n_fail_stops > Array.length spes then
    invalid_arg "Fault.random_campaign: more fail-stops than SPEs";
  (* Distinct fail-stop victims: shuffle the SPEs, take a prefix. *)
  Support.Rng.shuffle rng spes;
  let fails =
    List.init n_fail_stops (fun i ->
        fail_stop ~pe:spes.(i) ~at:(Support.Rng.float rng horizon))
  in
  let interval () =
    let span = Support.Rng.float_in rng (0.05 *. horizon) (0.5 *. horizon) in
    let from_ = Support.Rng.float rng horizon in
    (from_, from_ +. span)
  in
  let transient mk n =
    (* Retry draws that would overlap an existing same-kind fault on the
       same PE; the plan stays valid and the stream of draws stays
       deterministic. *)
    let acc = ref [] in
    let attempts = ref 0 in
    while List.length !acc < n && !attempts < 1000 * (n + 1) do
      incr attempts;
      let pe = Support.Rng.int rng (P.n_pes platform) in
      let factor = Support.Rng.float_in rng 1.5 max_factor in
      let from_, until = interval () in
      let f = mk ~pe ~factor ~from_ ~until in
      let clash =
        List.exists
          (fun g ->
            g.pe = f.pe && same_kind g.kind f.kind && f.start < g.finish
            && g.start < f.finish)
          !acc
      in
      if not clash then acc := f :: !acc
    done;
    List.rev !acc
  in
  let slows = transient slowdown n_slowdowns in
  let degrades = transient link_degrade n_degrades in
  let plan = sorted (fails @ slows @ degrades) in
  validate platform plan;
  plan

let pp_fault platform ppf f =
  match f.kind with
  | Fail_stop ->
      Format.fprintf ppf "%s fail-stop at %.4fs"
        (P.pe_name platform f.pe)
        f.start
  | Slowdown factor ->
      Format.fprintf ppf "%s x%.2f slower over [%.4fs, %.4fs)"
        (P.pe_name platform f.pe)
        factor f.start f.finish
  | Link_degrade factor ->
      Format.fprintf ppf "%s interface bw /%.2f over [%.4fs, %.4fs)"
        (P.pe_name platform f.pe)
        factor f.start f.finish

let pp platform ppf plan =
  match plan with
  | [] -> Format.fprintf ppf "no faults"
  | plan ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_fault platform) ppf
        (sorted plan)
