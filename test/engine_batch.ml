(* Answering a request stream the way [cellsched batch] does, for the
   suites that pin the engine's batch contracts: one [Daemon.Server],
   every request admitted up front in list order, replies collected by
   index. [serve_one] is the per-request loop the engine must agree
   with: the cache-or-solve path of one request, outside any engine. *)

module Batch = Service.Batch
module Server = Daemon.Server

let serve_one ~view r =
  match Batch.try_cache_view ~view r with
  | Some hit -> hit
  | None ->
      let assignment, period, _bound = Batch.solve_request r in
      Batch.solved_response_view ~view r (assignment, period)

(* [concurrency = 1] without [fibers] solves inline; anything else runs
   every solve as a fiber on a pool of [concurrency] domains. [trace]
   keeps each request's span tree for [TRACE <index>]. Returns the
   engine (finished) with the responses in request order. *)
let run ?(concurrency = 1) ?(fibers = false) ?(shards = 1) ?cache_entries
    ?(trace = false) requests =
  let n = List.length requests in
  let responses = Array.make n None in
  let server =
    Server.create
      ~on_reply:(fun r ->
        responses.(int_of_string r.Server.id) <- r.Server.response)
      {
        Server.default_config with
        bound = max 1 n;
        concurrency;
        fibers;
        cache_shards = shards;
        cache_entries;
        flush_period = 0.;
      }
  in
  List.iteri
    (fun i r -> Server.submit server ~out:ignore ~id:(string_of_int i) ~trace r)
    requests;
  Server.finish server;
  (server, Array.to_list (Array.map Option.get responses))

let responses ?concurrency ?fibers ?shards ?cache_entries requests =
  snd (run ?concurrency ?fibers ?shards ?cache_entries requests)

let render_all responses = String.concat "" (List.map Batch.render responses)
