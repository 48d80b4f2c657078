type var = int
type kind = Continuous | Integer
type rel = Le | Ge | Eq
type sense = Minimize | Maximize
type constr = { cname : string; expr : Expr.t; rel : rel; rhs : float }

type view = {
  row_start : int array;
  row_var : int array;
  row_coef : float array;
  row_rel : rel array;
  row_rhs : float array;
  var_lb : float array;
  var_ub : float array;
}

(* Names are rendered when read, from a prefix and two indices per entry:
   [prefix], [prefix_i] or [prefix_i_j], an index of [no_index] being left
   out. A row added without a name has first index [unnamed] and renders
   as c<row>. *)
let no_index = -1
let unnamed = -2

(* Every array is grown by doubling; only the first [nv] variables, the
   first [nc] rows and the first [row_start.(nc)] terms are meaningful. *)
type t = {
  pname : string;
  mutable nv : int;
  mutable kind : kind array;
  mutable lb : float array;
  mutable ub : float array;
  mutable vprefix : string array;
  mutable vix : int array;  (* two per variable *)
  mutable nc : int;
  mutable row_start : int array;  (* nc + 1 entries *)
  mutable row_var : int array;
  mutable row_coef : float array;
  mutable rel : rel array;
  mutable rhs : float array;
  mutable cprefix : string array;
  mutable cix : int array;  (* two per row *)
  mutable obj_sense : sense;
  mutable obj : Expr.t;
}

let create ?(name = "lp") () =
  {
    pname = name;
    nv = 0;
    kind = [||];
    lb = [||];
    ub = [||];
    vprefix = [||];
    vix = [||];
    nc = 0;
    row_start = [| 0 |];
    row_var = [||];
    row_coef = [||];
    rel = [||];
    rhs = [||];
    cprefix = [||];
    cix = [||];
    obj_sense = Minimize;
    obj = Expr.zero;
  }

(* [a] copied into [cap] entries, [fill] padding the new tail. *)
let resize a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The next capacity for [used] entries that are all taken. *)
let next_cap used = max 16 (2 * used)

(* [a] with room for [need] entries. *)
let grow a need fill =
  if need <= Array.length a then a else resize a (max need (next_cap (Array.length a))) fill

let check_name i j =
  if i < no_index || j < no_index || (i = no_index && j <> no_index) then
    invalid_arg "Problem: a name index is negative"

let push_var t kind lb ub prefix i j =
  if lb > ub then invalid_arg "Problem.add_var: lb > ub";
  let v = t.nv in
  if v = Array.length t.kind then begin
    let cap = next_cap v in
    t.kind <- resize t.kind cap Continuous;
    t.lb <- resize t.lb cap 0.;
    t.ub <- resize t.ub cap 0.;
    t.vprefix <- resize t.vprefix cap "";
    t.vix <- resize t.vix (2 * cap) no_index
  end;
  t.kind.(v) <- kind;
  t.lb.(v) <- lb;
  t.ub.(v) <- ub;
  t.vprefix.(v) <- prefix;
  t.vix.(2 * v) <- i;
  t.vix.((2 * v) + 1) <- j;
  t.nv <- v + 1;
  v

let add_var t ?(kind = Continuous) ?(lb = 0.) ?(ub = infinity) vname =
  push_var t kind lb ub vname no_index no_index

let add_var_ij t ?(kind = Continuous) ?(lb = 0.) ?(ub = infinity) prefix i j =
  check_name i j;
  push_var t kind lb ub prefix i j

(* Stable merge sort of the terms [lo, hi) by variable, merging through
   the scratch entries from [buf] on (at least (hi - lo) / 2 + 1 of
   them); short runs are insertion sorted. A sorted run costs one
   comparison per merge. *)
let rec sort_terms (vars : int array) (coefs : float array) lo hi buf =
  if hi - lo <= 16 then
    for k = lo + 1 to hi - 1 do
      let v = vars.(k) and c = coefs.(k) in
      let p = ref k in
      while !p > lo && vars.(!p - 1) > v do
        vars.(!p) <- vars.(!p - 1);
        coefs.(!p) <- coefs.(!p - 1);
        decr p
      done;
      vars.(!p) <- v;
      coefs.(!p) <- c
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_terms vars coefs lo mid buf;
    sort_terms vars coefs mid hi buf;
    if vars.(mid - 1) > vars.(mid) then begin
      (* The left half goes to the scratch and is merged back; on a tie
         its term comes first. *)
      let nl = mid - lo in
      Array.blit vars lo vars buf nl;
      Array.blit coefs lo coefs buf nl;
      let i = ref buf and j = ref mid and k = ref lo in
      while !i < buf + nl do
        if !j < hi && vars.(!j) < vars.(!i) then begin
          vars.(!k) <- vars.(!j);
          coefs.(!k) <- coefs.(!j);
          incr j
        end
        else begin
          vars.(!k) <- vars.(!i);
          coefs.(!k) <- coefs.(!i);
          incr i
        end;
        incr k
      done
    end
  end

(* Append a row. Its terms are normalised in the term arrays' tail as
   [Expr.of_list] normalises a list: sorted stably by variable, the
   coefficients of a variable summed left to right, zero sums dropped.
   The row counts only once it is committed, so a rejected row leaves
   the problem as it was. *)
let push_row t ~who prefix i j vars coefs len rel rhs =
  if len < 0 || len > Array.length vars || len > Array.length coefs then
    invalid_arg (who ^ ": term arrays shorter than the row");
  let base = t.row_start.(t.nc) in
  (* The row, then room for the sort's scratch. *)
  let need = base + len + (len / 2) + 1 in
  t.row_var <- grow t.row_var need 0;
  t.row_coef <- grow t.row_coef need 0.;
  let rv = t.row_var and rc = t.row_coef in
  Array.blit vars 0 rv base len;
  Array.blit coefs 0 rc base len;
  sort_terms rv rc base (base + len) (base + len);
  let out = ref base and k = ref base in
  while !k < base + len do
    let v = rv.(!k) in
    if v < 0 then invalid_arg (who ^ ": negative variable index");
    let c = ref rc.(!k) in
    incr k;
    while !k < base + len && rv.(!k) = v do
      c := !c +. rc.(!k);
      incr k
    done;
    if !c <> 0. then begin
      if v >= t.nv then invalid_arg (who ^ ": expression uses an unknown variable");
      rv.(!out) <- v;
      rc.(!out) <- !c;
      incr out
    end
  done;
  let r = t.nc in
  if r = Array.length t.rel then begin
    let cap = next_cap r in
    t.row_start <- resize t.row_start (cap + 1) 0;
    t.rel <- resize t.rel cap Eq;
    t.rhs <- resize t.rhs cap 0.;
    t.cprefix <- resize t.cprefix cap "";
    t.cix <- resize t.cix (2 * cap) no_index
  end;
  t.row_start.(r + 1) <- !out;
  t.rel.(r) <- rel;
  t.rhs.(r) <- rhs;
  t.cprefix.(r) <- prefix;
  t.cix.(2 * r) <- i;
  t.cix.((2 * r) + 1) <- j;
  t.nc <- r + 1

let add_row t prefix i j vars coefs len rel rhs =
  check_name i j;
  push_row t ~who:"Problem.add_row" prefix i j vars coefs len rel rhs

let add_constr t ?name expr rel rhs =
  let terms = Expr.to_list expr in
  let vars = Array.of_list (List.map fst terms) in
  let coefs = Array.of_list (List.map snd terms) in
  let prefix, i = match name with Some n -> (n, no_index) | None -> ("", unnamed) in
  push_row t ~who:"Problem.add_constr" prefix i no_index vars coefs (Array.length vars) rel
    rhs

let set_objective t sense expr =
  if Expr.max_var expr >= t.nv then
    invalid_arg "Problem.set_objective: expression uses an unknown variable";
  t.obj_sense <- sense;
  t.obj <- expr

let n_vars t = t.nv
let n_constrs t = t.nc

let check_var t v =
  if v < 0 || v >= t.nv then invalid_arg "Problem: variable out of range"

let render prefix i j ~row =
  if i = unnamed then "c" ^ string_of_int row
  else if i = no_index then prefix
  else if j = no_index then Printf.sprintf "%s_%d" prefix i
  else Printf.sprintf "%s_%d_%d" prefix i j

let var_name t v =
  check_var t v;
  render t.vprefix.(v) t.vix.(2 * v) t.vix.((2 * v) + 1) ~row:v

let constr_name t r = render t.cprefix.(r) t.cix.(2 * r) t.cix.((2 * r) + 1) ~row:r

let lower_bound t v =
  check_var t v;
  t.lb.(v)

let upper_bound t v =
  check_var t v;
  t.ub.(v)

let bounds_arrays t = (Array.sub t.lb 0 t.nv, Array.sub t.ub 0 t.nv)

let integer_vars t =
  List.filter (fun v -> t.kind.(v) = Integer) (List.init t.nv Fun.id)

let view t =
  {
    row_start = t.row_start;
    row_var = t.row_var;
    row_coef = t.row_coef;
    row_rel = t.rel;
    row_rhs = t.rhs;
    var_lb = t.lb;
    var_ub = t.ub;
  }

let row_constr t r =
  let terms = ref [] in
  for k = t.row_start.(r + 1) - 1 downto t.row_start.(r) do
    terms := (t.row_var.(k), t.row_coef.(k)) :: !terms
  done;
  { cname = constr_name t r; expr = Expr.of_list !terms; rel = t.rel.(r); rhs = t.rhs.(r) }

let constraints t = Array.init t.nc (row_constr t)
let objective t = (t.obj_sense, t.obj)

let eval_objective t x = Expr.eval (fun v -> x.(v)) t.obj

let pp ppf t =
  let pp_var ppf v = Format.pp_print_string ppf (var_name t v) in
  let sense = match t.obj_sense with Minimize -> "minimize" | Maximize -> "maximize" in
  Format.fprintf ppf "@[<v>%s: %s %a@," t.pname sense (Expr.pp pp_var) t.obj;
  let pp_rel ppf = function
    | Le -> Format.pp_print_string ppf "<="
    | Ge -> Format.pp_print_string ppf ">="
    | Eq -> Format.pp_print_string ppf "="
  in
  for r = 0 to t.nc - 1 do
    let { cname; expr; rel; rhs } = row_constr t r in
    Format.fprintf ppf "  %s: %a %a %g@," cname (Expr.pp pp_var) expr pp_rel rel rhs
  done;
  for v = 0 to t.nv - 1 do
    Format.fprintf ppf "  %s in [%g, %g]%s@," (var_name t v) t.lb.(v) t.ub.(v)
      (match t.kind.(v) with Integer -> " integer" | Continuous -> "")
  done;
  Format.fprintf ppf "@]"
