module B = Bigint

(* Invariant: den > 0, gcd(|num|, den) = 1, zero is 0/1. *)
type t = { n : B.t; d : B.t }

let normalize n d =
  if B.sign d = 0 then raise Division_by_zero;
  let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
  if B.sign n = 0 then { n = B.zero; d = B.one }
  else begin
    let g = B.gcd n d in
    if B.equal g B.one then { n; d }
    else { n = fst (B.divmod n g); d = fst (B.divmod d g) }
  end

let make n d = normalize n d
let zero = { n = B.zero; d = B.one }
let of_ints n d = normalize (B.of_int n) (B.of_int d)

let of_float x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> invalid_arg "Rat.of_float: not finite"
  | FP_zero -> zero
  | FP_normal | FP_subnormal ->
      (* x = m * 2^(e-53) with m an integer of at most 53 bits. *)
      let m, e = Float.frexp x in
      let mant = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
      let exp = e - 53 in
      if exp >= 0 then { n = B.shift_left (B.of_int mant) exp; d = B.one }
      else normalize (B.of_int mant) (B.shift_left B.one (-exp))

let to_float t =
  (* Euclidean division gives n = q*d + r with 0 <= r < d, so the value is
     q + r/d with a non-negative fraction, correct for negatives too. *)
  let q, r = B.divmod t.n t.d in
  let qf =
    match B.to_int_opt q with
    | Some i -> float_of_int i
    | None -> float_of_string (B.to_string q)
  in
  if B.sign r = 0 then qf
  else begin
    let scaled = fst (B.divmod (B.shift_left r 53) t.d) in
    match B.to_int_opt scaled with
    | Some i -> qf +. Float.ldexp (float_of_int i) (-53)
    | None -> qf
  end

let num t = t.n
let den t = t.d

let add a b =
  normalize (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)

let neg a = { a with n = B.neg a.n }
let sub a b = add a (neg b)
let mul a b = normalize (B.mul a.n b.n) (B.mul a.d b.d)
let inv a = normalize a.d a.n
let div a b = mul a (inv b)
let abs a = { a with n = B.abs a.n }

let compare a b = B.compare (B.mul a.n b.d) (B.mul b.n a.d)
let equal a b = compare a b = 0
let is_integer t = B.equal t.d B.one

let to_string t =
  if is_integer t then B.to_string t.n
  else B.to_string t.n ^ "/" ^ B.to_string t.d
