type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let add_value h v = Int64.mul (Int64.logxor h v) prime
let add_int h i = add_value h (Int64.of_int i)
let add_float h f = add_value h (Int64.bits_of_float f)

let add_string h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let of_string s = add_string empty s
let to_hex h = Printf.sprintf "%016Lx" h
