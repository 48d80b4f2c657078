(* Invariant: strictly increasing variable indices, non-zero coefficients. *)
type t = (int * float) list

let zero = []

let term ?(coeff = 1.) v =
  if v < 0 then invalid_arg "Expr.term: negative variable index";
  if coeff = 0. then [] else [ (v, coeff) ]

let of_list terms =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) terms in
  let rec combine = function
    | (v, c) :: (v', c') :: rest when v = v' -> combine ((v, c +. c') :: rest)
    | (v, c) :: rest ->
        if v < 0 then invalid_arg "Expr.of_list: negative variable index";
        if c = 0. then combine rest else (v, c) :: combine rest
    | [] -> []
  in
  combine sorted

let to_list t = t

let eval f t = List.fold_left (fun acc (v, c) -> acc +. (c *. f v)) 0. t

let max_var t = List.fold_left (fun acc (v, _) -> max acc v) (-1) t

let pp pp_var ppf t =
  match t with
  | [] -> Format.pp_print_string ppf "0"
  | (v0, c0) :: rest ->
      let print_term ~first (v, c) =
        if first then
          if c = 1. then Format.fprintf ppf "%a" pp_var v
          else Format.fprintf ppf "%g %a" c pp_var v
        else if c >= 0. then
          if c = 1. then Format.fprintf ppf " + %a" pp_var v
          else Format.fprintf ppf " + %g %a" c pp_var v
        else if c = -1. then Format.fprintf ppf " - %a" pp_var v
        else Format.fprintf ppf " - %g %a" (-.c) pp_var v
      in
      print_term ~first:true (v0, c0);
      List.iter (print_term ~first:false) rest
