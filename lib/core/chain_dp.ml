module G = Streaming.Graph
module P = Cell.Platform

let chain_order g =
  (* Follow the unique successor chain from the unique source. *)
  match G.sources g with
  | [ source ] ->
      let n = G.n_tasks g in
      let rec follow k acc count =
        if count > n then None
        else
          match G.succs g k with
          | [] -> Some (List.rev (k :: acc))
          | [ next ] -> follow next (k :: acc) (count + 1)
          | _ :: _ :: _ -> None
      in
      (match follow source [] 1 with
      | Some order when List.length order = n ->
          if List.for_all (fun k -> List.length (G.preds g k) <= 1) order then
            Some (Array.of_list order)
          else None
      | _ -> None)
  | _ -> None

let is_chain g = G.n_tasks g > 0 && chain_order g <> None

(* DP feasibility check for a candidate period [t]: minimum PPE work of the
   whole chain using at most [max_intervals] SPE intervals, each interval
   respecting compute <= t and memory <= budget. Returns the optimal
   choices for reconstruction. *)
type choice = On_ppe | Interval_from of int

let dp_run ~w_ppe ~w_spe ~mem ~budget ~max_intervals t =
  let n = Array.length w_ppe in
  let inf = infinity in
  (* dp.(i).(s): min PPE work of the first i tasks using s intervals. *)
  let dp = Array.make_matrix (n + 1) (max_intervals + 1) inf in
  let choices = Array.make_matrix (n + 1) (max_intervals + 1) On_ppe in
  for s = 0 to max_intervals do
    dp.(0).(s) <- 0.
  done;
  for i = 0 to n - 1 do
    for s = 0 to max_intervals do
      if dp.(i).(s) < inf then begin
        (* Task i on the PPE. *)
        let ppe = dp.(i).(s) +. w_ppe.(i) in
        if ppe < dp.(i + 1).(s) then begin
          dp.(i + 1).(s) <- ppe;
          choices.(i + 1).(s) <- On_ppe
        end;
        (* An SPE interval [i .. j-1]. *)
        if s < max_intervals then begin
          let work = ref 0. and memory = ref 0. in
          let j = ref i in
          let continue_ = ref true in
          while !continue_ && !j < n do
            work := !work +. w_spe.(!j);
            memory := !memory +. mem.(!j);
            if !work <= t +. 1e-12 && !memory <= budget +. 1e-9 then begin
              incr j;
              if dp.(i).(s) < dp.(!j).(s + 1) then begin
                dp.(!j).(s + 1) <- dp.(i).(s);
                choices.(!j).(s + 1) <- Interval_from i
              end
            end
            else continue_ := false
          done
        end
      end
    done
  done;
  (dp, choices)

let reconstruct ~choices ~order ~spes assignment best_s n =
  let rec walk i s spe_idx =
    if i > 0 then
      match choices.(i).(s) with
      | On_ppe ->
          assignment.(order.(i - 1)) <- 0;
          walk (i - 1) s spe_idx
      | Interval_from start ->
          let spe = List.nth spes spe_idx in
          for pos = start to i - 1 do
            assignment.(order.(pos)) <- spe
          done;
          walk start (s - 1) (spe_idx + 1)
  in
  walk n best_s 0

let solve platform g =
  match chain_order g with
  | None -> None
  | Some order ->
      let n = Array.length order in
      let footprint = (G.flat g).G.footprint in
      let w_ppe =
        Array.map
          (fun k -> (G.task g k).Streaming.Task.w_ppe /. platform.P.ppe_speedup)
          order
      in
      let w_spe = Array.map (fun k -> (G.task g k).Streaming.Task.w_spe) order in
      let mem = Array.map (fun k -> footprint.(k)) order in
      let budget = float_of_int (P.spe_memory_budget platform) in
      let max_intervals = List.length (P.spes platform) in
      let spes = P.spes platform in
      let feasible t =
        let dp, _ = dp_run ~w_ppe ~w_spe ~mem ~budget ~max_intervals t in
        Array.exists (fun v -> v <= t +. 1e-12) dp.(n)
      in
      (* The PPE-only mapping is always feasible, so the optimum lies in
         (0, sum w_ppe]. *)
      let hi = ref (Array.fold_left ( +. ) 0. w_ppe) in
      let lo = ref 0. in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if feasible mid then hi := mid else lo := mid
      done;
      let t = !hi in
      let dp, choices = dp_run ~w_ppe ~w_spe ~mem ~budget ~max_intervals t in
      let best_s = ref 0 in
      for s = 0 to max_intervals do
        if dp.(n).(s) <= t +. 1e-12 && dp.(n).(!best_s) > dp.(n).(s) then
          best_s := s
      done;
      if dp.(n).(!best_s) > t +. 1e-12 then
        (* Numerical corner: fall back to PPE-only. *)
        Some (Mapping.all_on_ppe platform g)
      else begin
        let assignment = Array.make n 0 in
        reconstruct ~choices ~order ~spes assignment !best_s n;
        Some (Mapping.make platform g assignment)
      end
