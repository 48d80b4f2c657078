type t = {
  name : string;
  w_ppe : float;
  w_spe : float;
  peek : int;
  stateful : bool;
  read_bytes : float;
  write_bytes : float;
}

let make ?(peek = 0) ?(stateful = false) ?(read_bytes = 0.) ?(write_bytes = 0.)
    ~name ~w_ppe ~w_spe () =
  if name = "" then invalid_arg "Task.make: empty name";
  if w_ppe < 0. || w_spe < 0. then invalid_arg "Task.make: negative cost";
  if peek < 0 then invalid_arg "Task.make: negative peek";
  if read_bytes < 0. || write_bytes < 0. then
    invalid_arg "Task.make: negative memory traffic";
  { name; w_ppe; w_spe; peek; stateful; read_bytes; write_bytes }

let w t = function Cell.Platform.PPE -> t.w_ppe | Cell.Platform.SPE -> t.w_spe
