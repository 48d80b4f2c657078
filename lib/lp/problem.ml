type var = int
type kind = Continuous | Integer
type rel = Le | Ge | Eq
type sense = Minimize | Maximize
type constr = { cname : string; expr : Expr.t; rel : rel; rhs : float }

type vinfo = { vname : string; vkind : kind; lb : float; ub : float }

type t = {
  pname : string;
  mutable vars : vinfo array;
  mutable nv : int;
  mutable constrs : constr list;  (* reversed *)
  mutable nc : int;
  mutable obj_sense : sense;
  mutable obj : Expr.t;
}

let create ?(name = "lp") () =
  {
    pname = name;
    vars = [||];
    nv = 0;
    constrs = [];
    nc = 0;
    obj_sense = Minimize;
    obj = Expr.zero;
  }

let grow t =
  let cap = Array.length t.vars in
  if t.nv = cap then begin
    let dummy = { vname = ""; vkind = Continuous; lb = 0.; ub = 0. } in
    let vars = Array.make (max 16 (2 * cap)) dummy in
    Array.blit t.vars 0 vars 0 t.nv;
    t.vars <- vars
  end

let add_var t ?(kind = Continuous) ?(lb = 0.) ?(ub = infinity) vname =
  if lb > ub then invalid_arg "Problem.add_var: lb > ub";
  grow t;
  let v = t.nv in
  t.vars.(v) <- { vname; vkind = kind; lb; ub };
  t.nv <- v + 1;
  v

let binary t name = add_var t ~kind:Integer ~lb:0. ~ub:1. name

let add_constr t ?name expr rel rhs =
  if Expr.max_var expr >= t.nv then
    invalid_arg "Problem.add_constr: expression uses an unknown variable";
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" t.nc
  in
  t.constrs <- { cname; expr; rel; rhs } :: t.constrs;
  t.nc <- t.nc + 1

let set_objective t sense expr =
  if Expr.max_var expr >= t.nv then
    invalid_arg "Problem.set_objective: expression uses an unknown variable";
  t.obj_sense <- sense;
  t.obj <- expr

let n_vars t = t.nv
let n_constrs t = t.nc

let check_var t v =
  if v < 0 || v >= t.nv then invalid_arg "Problem: variable out of range"

let var_name t v =
  check_var t v;
  t.vars.(v).vname

let lower_bound t v =
  check_var t v;
  t.vars.(v).lb

let upper_bound t v =
  check_var t v;
  t.vars.(v).ub

let bounds_arrays t =
  ( Array.init t.nv (fun v -> t.vars.(v).lb),
    Array.init t.nv (fun v -> t.vars.(v).ub) )

let integer_vars t =
  List.filter
    (fun v -> t.vars.(v).vkind = Integer)
    (List.init t.nv Fun.id)

let constraints t = Array.of_list (List.rev t.constrs)
let objective t = (t.obj_sense, t.obj)

let eval_objective t x = Expr.eval (fun v -> x.(v)) t.obj

let pp ppf t =
  let pp_var ppf v = Format.pp_print_string ppf t.vars.(v).vname in
  let sense = match t.obj_sense with Minimize -> "minimize" | Maximize -> "maximize" in
  Format.fprintf ppf "@[<v>%s: %s %a@," t.pname sense (Expr.pp pp_var) t.obj;
  let pp_rel ppf = function
    | Le -> Format.pp_print_string ppf "<="
    | Ge -> Format.pp_print_string ppf ">="
    | Eq -> Format.pp_print_string ppf "="
  in
  let pp_constr { cname; expr; rel; rhs } =
    Format.fprintf ppf "  %s: %a %a %g@," cname (Expr.pp pp_var) expr pp_rel rel
      rhs
  in
  List.iter pp_constr (List.rev t.constrs);
  for v = 0 to t.nv - 1 do
    let { vname; vkind; lb; ub } = t.vars.(v) in
    Format.fprintf ppf "  %s in [%g, %g]%s@," vname lb ub
      (match vkind with Integer -> " integer" | Continuous -> "")
  done;
  Format.fprintf ppf "@]"
