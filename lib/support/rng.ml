(* Splitmix64: fast, high-quality, trivially seedable. Reference:
   Steele, Lea, Flood, "Fast splittable pseudorandom number generators". *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    let v = r mod n in
    if r - v + (n - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let split t =
  let seed = int64 t in
  { state = mix seed }

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
