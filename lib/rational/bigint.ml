(* Sign-magnitude, little-endian limbs in base 2^30. Invariants: [mag] has
   no trailing (most-significant) zero limbs; [sign = 0] iff [mag] is
   empty. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int x =
  if x = 0 then zero
  else begin
    let sign = if x > 0 then 1 else -1 in
    (* min_int's magnitude overflows [abs]; go through the absolute value
       limb by limb using negative arithmetic. *)
    let rec limbs acc v =
      if v = 0 then List.rev acc
      else limbs ((-(v mod base)) :: acc) (v / base)
    in
    let v = if x > 0 then -x else x in
    normalize sign (Array.of_list (limbs [] v))
  end

let one = of_int 1

let sign t = t.sign
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec scan i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else scan (i - 1)
    in
    scan (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      !carry
      + (if i < la then a.(i) else 0)
      + if i < lb then b.(i) else 0
    in
    out.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  out

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  out

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end


let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        (* ai, b_j < 2^30, product < 2^60: fits a 63-bit int. *)
        let v = out.(i + j) + (ai * b.mag.(j)) + !carry in
        out.(i + j) <- v land mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    normalize (a.sign * b.sign) out
  end

let nbits mag =
  let n = Array.length mag in
  if n = 0 then 0
  else begin
    let top = mag.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * base_bits) + width 1
  end

let bit mag i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

(* Binary long division on magnitudes: a = q*b + r, 0 <= r < b (b <> 0).
   Invariant: r < b before each bit is pushed, so r always fits in
   [length b + 1] limbs. *)
let divmod_mag a b =
  let total = nbits a in
  let nq = max 1 ((total + base_bits - 1) / base_bits) in
  let q = Array.make nq 0 in
  let lb = Array.length b in
  let r = Array.make (lb + 1) 0 in
  (* r <- 2r + bit *)
  let push_bit bv =
    let carry = ref bv in
    for i = 0 to lb do
      let v = (r.(i) lsl 1) lor !carry in
      r.(i) <- v land mask;
      carry := v lsr base_bits
    done
  in
  let r_ge_b () =
    if r.(lb) <> 0 then true
    else begin
      let rec scan i =
        if i < 0 then true
        else if r.(i) <> b.(i) then r.(i) > b.(i)
        else scan (i - 1)
      in
      scan (lb - 1)
    end
  in
  let subtract_b () =
    let borrow = ref 0 in
    for i = 0 to lb do
      let d = r.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done
  in
  for i = total - 1 downto 0 do
    push_bit (bit a i);
    if r_ge_b () then begin
      subtract_b ();
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
  done;
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q_abs = normalize 1 qm and r_abs = normalize 1 rm in
    if a.sign > 0 then
      ((if b.sign > 0 then q_abs else neg q_abs), r_abs)
    else if r_abs.sign = 0 then
      ((if b.sign > 0 then neg q_abs else q_abs), zero)
    else begin
      let q1 = add q_abs one in
      ( (if b.sign > 0 then neg q1 else q1),
        normalize 1 (sub_mag (abs b).mag r_abs.mag) )
    end
  end

let rec gcd a b =
  let a = abs a and b = abs b in
  if b.sign = 0 then a else gcd b (snd (divmod a b))

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if t.sign = 0 || k = 0 then t
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length t.mag in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = t.mag.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land mask);
      out.(i + limb_shift + 1) <- v lsr base_bits
    done;
    normalize t.sign out
  end

let to_int_opt t =
  (* Accumulate and watch for overflow. *)
  let rec go acc i =
    if i < 0 then Some (if t.sign < 0 then -acc else acc)
    else begin
      let shifted = acc * base in
      if shifted / base <> acc || shifted < 0 then None
      else begin
        let v = shifted + t.mag.(i) in
        if v < 0 then None else go v (i - 1)
      end
    end
  in
  if t.sign = 0 then Some 0 else go 0 (Array.length t.mag - 1)

let ten9 = of_int 1_000_000_000

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let rec chunks acc v =
      if v.sign = 0 then acc
      else begin
        let q, r = divmod v ten9 in
        let digits = match to_int_opt r with Some d -> d | None -> assert false in
        chunks (digits :: acc) q
      end
    in
    match chunks [] (abs t) with
    | [] -> "0"
    | first :: rest ->
        let buf = Buffer.create 32 in
        if t.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest;
        Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative then 1 else 0 in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    match s.[i] with
    | '0' .. '9' ->
        acc := add (mul !acc ten) (of_int (Char.code s.[i] - Char.code '0'))
    | _ -> invalid_arg "Bigint.of_string: invalid character"
  done;
  if negative then neg !acc else !acc
