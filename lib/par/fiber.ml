(* Effects-based lightweight tasks over Pool; see fiber.mli for the
   scheduling and determinism contracts. *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

(* A promise is a CAS-stepped state machine: waiters accumulate (in
   reverse registration order) until the single Pending->Done
   transition, whose winner runs every waiter exactly once. *)
type 'a state =
  | Pending of ('a outcome -> unit) list
  | Done of 'a outcome

type 'a t = { pool : Pool.t; state : 'a state Atomic.t }

type _ Effect.t +=
  | Await : 'a t -> 'a outcome Effect.t
  | Yield : unit Effect.t

let pool_of ?pool () =
  match pool with
  | Some p -> p
  | None -> (
      match Pool.self () with
      | Some p -> p
      | None ->
          invalid_arg
            "Fiber.spawn: no ~pool given and the caller is not on a pool \
             domain")

let resolve (p : 'a t) (o : 'a outcome) =
  let rec settle () =
    match Atomic.get p.state with
    | Done _ -> assert false (* single producer *)
    | Pending ws as seen ->
        if Atomic.compare_and_set p.state seen (Done o) then
          (* registration order: waiters were consed on *)
          List.iter (fun w -> w o) (List.rev ws)
        else settle ()
  in
  settle ()

(* Register [w] to run with the outcome; runs it now if already done.
   [w] must be cheap and total — it executes on whichever domain
   resolves the promise. *)
let on_resolve (p : 'a t) (w : 'a outcome -> unit) =
  let rec add () =
    match Atomic.get p.state with
    | Done o -> w o
    | Pending ws as seen ->
        if not (Atomic.compare_and_set p.state seen (Pending (w :: ws))) then
          add ()
  in
  add ()

let poll (p : 'a t) =
  match Atomic.get p.state with Done o -> Some o | Pending _ -> None

(* Each fiber body runs under its own deep handler. Await suspends the
   fiber by parking its continuation as a waiter on the target promise;
   the resolver resubmits it as a fresh pool task. Yield resubmits the
   continuation immediately, sending the fiber to the back of the
   worker's FIFO deque so siblings get the domain. *)
let run_body (type a) (pool : Pool.t) (p : a t) (f : unit -> a) () =
  Effect.Deep.match_with
    (fun () ->
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    ()
    {
      retc = (fun o -> resolve p o);
      exnc =
        (fun e ->
          (* only reachable if resolve itself raised *)
          resolve p (Error (e, Printexc.get_raw_backtrace ())));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await q ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  on_resolve q (fun o ->
                      Pool.run_async pool (fun () -> Effect.Deep.continue k o)))
          | Yield ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Pool.run_async pool (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }

let spawn ?pool f =
  let pool = pool_of ?pool () in
  let p = { pool; state = Atomic.make (Pending []) } in
  Pool.run_async pool (run_body pool p f);
  p

let of_outcome = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Outside a fiber the Await perform is unhandled; fall back to a
   helping block on the pool, which is deadlock-free for pool workers
   and a spin-then-sleep wait for outside domains. *)
let block (p : 'a t) =
  Pool.help_until p.pool (fun () -> poll p <> None);
  match poll p with Some o -> o | None -> assert false

let await p =
  match poll p with
  | Some o -> of_outcome o
  | None -> (
      match Effect.perform (Await p) with
      | o -> of_outcome o
      | exception Effect.Unhandled (Await _) -> of_outcome (block p))

let yield () =
  match Effect.perform Yield with
  | () -> ()
  | exception Effect.Unhandled Yield -> ()

let yielder ~every =
  if every < 1 then invalid_arg "Fiber.yielder: every must be >= 1";
  let n = ref 0 in
  fun () ->
    incr n;
    if !n >= every then begin
      n := 0;
      yield ()
    end

let run pool f = await (spawn ~pool f)

let parallel_map ?pool f xs =
  let pool = pool_of ?pool () in
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* One join for the whole map: the last child to finish resolves
       [joined], so the caller suspends (or blocks) once, not once per
       unfinished child. The slot writes precede each child's
       decrement, and the caller reads them after seeing [joined]
       resolved. *)
    let outcomes = Array.make n None in
    let remaining = Atomic.make n in
    let joined = { pool; state = Atomic.make (Pending []) } in
    Array.iteri
      (fun i x ->
        on_resolve
          (spawn ~pool (fun () -> f x))
          (fun o ->
            outcomes.(i) <- Some o;
            if Atomic.fetch_and_add remaining (-1) = 1 then
              resolve joined (Ok ())))
      xs;
    await joined;
    (* Every fiber has finished: the lowest-index error wins, whatever
       the completion order. *)
    Array.map (function Some o -> of_outcome o | None -> assert false) outcomes
  end
