(* One pass computes both the canonical order and the fingerprint.
   Adjacency is flattened once into CSR arrays; colours and the
   (edge size, neighbour colour) signature pairs live unboxed in [Bytes]
   (8 bytes per word) and are compared monomorphically. The FNV-1a
   arithmetic of {!Support.Fnv} is repeated here on locals: dune's dev
   profile compiles every module [-opaque], so each cross-module
   [Fnv.add_*] call would return a freshly boxed int64. Every value is
   bit-identical to the list-based formulation it replaces (the tests
   keep that formulation as an oracle). *)

let basis = 0xcbf29ce484222325L (* Support.Fnv.empty *)
let prime = 0x100000001b3L
let[@inline] mix h v = Int64.mul (Int64.logxor h v) prime

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external format_float : string -> float -> string = "caml_format_float"

(* One side (in or out) of every task's neighbourhood: entries
   [start.(v) .. start.(v+1) - 1] hold the neighbour ids and, at byte
   [8 * i] of [bits], the connecting edge's size as float bits. *)
type csr = { start : int array; nbr : int array; bits : Bytes.t }

let csr g edges_of endpoint =
  let n = Graph.n_tasks g in
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + List.length (edges_of g v)
  done;
  let nbr = Array.make start.(n) 0 and bits = Bytes.create (8 * start.(n)) in
  for v = 0 to n - 1 do
    List.iteri
      (fun i e ->
        let edge = Graph.edge g e in
        nbr.(start.(v) + i) <- endpoint edge;
        set64 bits
          (8 * (start.(v) + i))
          (Int64.bits_of_float edge.Graph.data_bytes))
      (edges_of g v)
  done;
  { start; nbr; bits }

let degree c v = c.start.(v + 1) - c.start.(v)

(* Signature pairs are 16-byte records (edge bits, colour) in [p],
   ordered exactly as polymorphic [compare] orders [int64 * int64]:
   signed, first component first. Equal pairs are identical, so any
   correct sort folds to the same hash. *)
let[@inline] pair_gt p i a b =
  let ai = get64 p (16 * i) in
  ai > a || (ai = a && get64 p ((16 * i) + 8) > b)

let[@inline] move p ~src ~dst =
  set64 p (16 * dst) (get64 p (16 * src));
  set64 p ((16 * dst) + 8) (get64 p ((16 * src) + 8))

let insertion_sort p d =
  for i = 1 to d - 1 do
    let a = get64 p (16 * i) and b = get64 p ((16 * i) + 8) in
    let j = ref (i - 1) in
    while !j >= 0 && pair_gt p !j a b do
      move p ~src:!j ~dst:(!j + 1);
      decr j
    done;
    set64 p (16 * (!j + 1)) a;
    set64 p ((16 * (!j + 1)) + 8) b
  done

(* Heapsort for wide fan-in/fan-out, where insertion sort would go
   quadratic. Slot [d] is scratch for the sift's hole. *)
let heap_sort p d =
  let sift root size =
    move p ~src:root ~dst:d;
    let a = get64 p (16 * d) and b = get64 p ((16 * d) + 8) in
    let hole = ref root and continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      if l >= size then continue := false
      else begin
        let c =
          if
            l + 1 < size
            && pair_gt p (l + 1) (get64 p (16 * l)) (get64 p ((16 * l) + 8))
          then l + 1
          else l
        in
        if pair_gt p c a b then begin
          move p ~src:c ~dst:!hole;
          hole := c
        end
        else continue := false
      end
    done;
    move p ~src:d ~dst:!hole
  in
  for root = (d / 2) - 1 downto 0 do
    sift root d
  done;
  for last = d - 1 downto 1 do
    move p ~src:0 ~dst:d;
    move p ~src:last ~dst:0;
    move p ~src:d ~dst:last;
    sift 0 last
  done

(* Load task [v]'s side of [c] into [p] as sorted pairs; returns the
   count. *)
let load_side c colors p v =
  let lo = c.start.(v) in
  let d = c.start.(v + 1) - lo in
  for i = 0 to d - 1 do
    set64 p (16 * i) (get64 c.bits (8 * (lo + i)));
    set64 p ((16 * i) + 8) (get64 colors (8 * c.nbr.(lo + i)))
  done;
  if d <= 16 then insertion_sort p d else heap_sort p d;
  d

(* Colour refinement. A task starts from a hash of every attribute but
   its name; each round it absorbs the sorted multisets of (edge size,
   neighbour colour) pairs on each side, folded separately (tags 1 and
   2) so in- and out-neighbourhoods cannot cancel. depth + 2 rounds let
   a colour absorb the whole reachable neighbourhood of its task along
   the longest path, both ways. *)
let refine g ins outs =
  let n = Graph.n_tasks g in
  let cur = ref (Bytes.create (8 * n)) in
  let next = ref (Bytes.create (8 * n)) in
  for v = 0 to n - 1 do
    let t = Graph.task g v in
    let h = mix basis (Int64.bits_of_float t.Task.w_ppe) in
    let h = mix h (Int64.bits_of_float t.Task.w_spe) in
    let h = mix h (Int64.of_int t.Task.peek) in
    let h = mix h (if t.Task.stateful then 1L else 0L) in
    let h = mix h (Int64.bits_of_float t.Task.read_bytes) in
    set64 !cur (8 * v) (mix h (Int64.bits_of_float t.Task.write_bytes))
  done;
  let max_degree = ref 0 in
  for v = 0 to n - 1 do
    max_degree := max !max_degree (max (degree ins v) (degree outs v))
  done;
  let pairs = Bytes.create (16 * (!max_degree + 1)) in
  for _ = 1 to Graph.depth g + 2 do
    let colors = !cur in
    for v = 0 to n - 1 do
      let d = load_side ins colors pairs v in
      let s = ref (mix basis 1L) in
      for i = 0 to d - 1 do
        s := mix (mix !s (get64 pairs (16 * i))) (get64 pairs ((16 * i) + 8))
      done;
      let h = mix (mix basis (get64 colors (8 * v))) !s in
      let d = load_side outs colors pairs v in
      let s = ref (mix basis 2L) in
      for i = 0 to d - 1 do
        s := mix (mix !s (get64 pairs (16 * i))) (get64 pairs ((16 * i) + 8))
      done;
      set64 !next (8 * v) (mix h !s)
    done;
    cur := !next;
    next := colors
  done;
  !cur

let order_of g ins outs =
  let colors = refine g ins outs in
  let ucmp a b =
    compare (Int64.sub a Int64.min_int) (Int64.sub b Int64.min_int)
  in
  (* Stable: tasks with equal final colours and degrees keep their input
     order (see the interface for what that does and does not
     guarantee). *)
  let cmp a b =
    let c = ucmp (get64 colors (8 * a)) (get64 colors (8 * b)) in
    if c <> 0 then c
    else
      let c = compare (degree ins a) (degree ins b) in
      if c <> 0 then c else compare (degree outs a) (degree outs b)
  in
  let ord = Array.init (Graph.n_tasks g) Fun.id in
  Array.stable_sort cmp ord;
  ord

let adjacency g =
  ( csr g Graph.in_edges (fun e -> e.Graph.src),
    csr g Graph.out_edges (fun e -> e.Graph.dst) )

(* The {!Serialize} text of the graph relabelled [t0 .. tN-1] in
   canonical order, edges sorted by (source, destination) position —
   written piece by piece to [out] rather than through a rebuilt
   [Graph], so [key] can hash it without materialising it. [%.17g]
   goes through the same C primitive [Printf] uses, so the bytes
   match. *)
let emit_text g outs ord out =
  let n = Graph.n_tasks g in
  let float f = out (format_float "%.17g" f) in
  out "# cellstream application graph\n";
  for p = 0 to n - 1 do
    let t = Graph.task g ord.(p) in
    out "task t";
    out (string_of_int p);
    out " wppe=";
    float t.Task.w_ppe;
    out " wspe=";
    float t.Task.w_spe;
    out " peek=";
    out (string_of_int t.Task.peek);
    out (if t.Task.stateful then " stateful=1 read=" else " stateful=0 read=");
    float t.Task.read_bytes;
    out " write=";
    float t.Task.write_bytes;
    out "\n"
  done;
  let pos = Array.make n 0 in
  Array.iteri (fun p id -> pos.(id) <- p) ord;
  (* (source, destination) position pairs are unique, so sorting the
     out-edge slots by them fixes the edge order. *)
  let m = Array.length outs.nbr in
  let at = Array.make m 0 in
  for v = 0 to n - 1 do
    for i = outs.start.(v) to outs.start.(v + 1) - 1 do
      at.(i) <- (pos.(v) * n) + pos.(outs.nbr.(i))
    done
  done;
  let slots = Array.init m Fun.id in
  Array.sort (fun i j -> compare (at.(i) : int) at.(j)) slots;
  Array.iter
    (fun i ->
      out "edge t";
      out (string_of_int (at.(i) / n));
      out " t";
      out (string_of_int (at.(i) mod n));
      out " data=";
      float (Int64.float_of_bits (get64 outs.bits (8 * i)));
      out "\n")
    slots

let to_string g =
  let ins, outs = adjacency g in
  let buf = Buffer.create 1024 in
  emit_text g outs (order_of g ins outs) (Buffer.add_string buf);
  Buffer.contents buf

(* Byte-wise FNV-1a of the text, as {!Support.Fnv.of_string}, folded
   piece by piece; the running hash lives unboxed in [state]. *)
let key g =
  let ins, outs = adjacency g in
  let ord = order_of g ins outs in
  let state = Bytes.create 8 in
  set64 state 0 basis;
  emit_text g outs ord (fun s ->
      let h = ref (get64 state 0) in
      for i = 0 to String.length s - 1 do
        h := mix !h (Int64.of_int (Char.code (String.unsafe_get s i)))
      done;
      set64 state 0 !h);
  (ord, get64 state 0)
