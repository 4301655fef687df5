(* Sparse LU without pivoting.  [analyse] orders the graph of A's pattern
   made symmetric by minimum degree and reads the symbolic LU off the
   same elimination: the neighbours a node still has when it is eliminated
   are its U row and its L column.  [factor] eliminates row by row through
   a dense work vector over those index arrays; [substitute] sweeps forward
   and back in the permuted order.  The symbolic part is immutable; each
   [t] owns its numeric buffers, so a solver that reuses one [t] across
   iterations allocates nothing per solve.

   Hot loops apply the Bigarray primitives directly (module alias [BA1])
   rather than through [Fvec]'s wrappers: without flambda — and dune's
   default dev profile also compiles every library with -opaque, so no
   cross-module call inlines — a call per element costs a function call
   plus float boxing, a ~5x slowdown measured on the LU inner loop. *)

module BA1 = Bigarray.Array1

exception Zero_pivot of int

type symbolic = {
  n : int;
  slots : int;
  perm : int array;  (* perm.(i): the row eliminated i-th *)
  (* Row p's entries of A, diagonal included, in aptr.(p) .. aptr.(p+1) - 1:
     each packs its column's elimination position (the high bits) with its
     value slot (the low 32), one word an entry. *)
  aptr : int array;
  aent : int array;
  (* Strict L by rows and strict U by rows, in elimination positions;
     every index list is increasing. *)
  lptr : int array;
  lidx : int array;
  uptr : int array;
  uidx : int array;
}

type t = {
  sym : symbolic;
  values : Fvec.t;
  lval : Fvec.t;
  uval : Fvec.t;
  udiag : Fvec.t;
  work : Fvec.t;  (* the factor's row accumulator, the sweeps' permuted x *)
}

(* Minimum-degree elimination of the graph over explicit adjacency lists
   (consumed), each eliminated node's neighbours gaining one another (the
   fill), with the live nodes kept in per-degree buckets: doubly linked
   lists whose heads are the next picks, ties going to the lowest node id.
   Returns the elimination order and, for each step, the neighbours left
   at that step. *)
let minimum_degree adj =
  let n = Array.length adj in
  let deg = Array.map Array.length adj in
  let head = Array.make n (-1) and next = Array.make n (-1) and prev = Array.make n (-1) in
  let unlink v =
    if prev.(v) >= 0 then next.(prev.(v)) <- next.(v) else head.(deg.(v)) <- next.(v);
    if next.(v) >= 0 then prev.(next.(v)) <- prev.(v)
  in
  let push v =
    let d = deg.(v) in
    prev.(v) <- -1;
    next.(v) <- head.(d);
    if head.(d) >= 0 then prev.(head.(d)) <- v;
    head.(d) <- v
  in
  for v = n - 1 downto 0 do
    push v
  done;
  (* mark.(v) = u: v is already in u's list while u is being updated. *)
  let mark = Array.make n (-1) in
  let order = Array.make n 0 and left = Array.make n [||] in
  let min_deg = ref 0 in
  for step = 0 to n - 1 do
    while head.(!min_deg) < 0 do
      incr min_deg
    done;
    let p = head.(!min_deg) in
    unlink p;
    let nb = Array.sub adj.(p) 0 deg.(p) in
    order.(step) <- p;
    left.(step) <- nb;
    adj.(p) <- [||];
    for t = 0 to Array.length nb - 1 do
      let u = nb.(t) in
      unlink u;
      let a =
        let a = adj.(u) and need = deg.(u) + Array.length nb in
        if need <= Array.length a then a
        else begin
          let grown = Array.make (2 * need) (-1) in
          Array.blit a 0 grown 0 deg.(u);
          grown
        end
      in
      let d = ref 0 in
      mark.(u) <- u;
      for r = 0 to deg.(u) - 1 do
        let v = Array.unsafe_get a r in
        if v <> p then begin
          Array.unsafe_set a !d v;
          incr d;
          Array.unsafe_set mark v u
        end
      done;
      for t' = 0 to Array.length nb - 1 do
        let v = Array.unsafe_get nb t' in
        if Array.unsafe_get mark v <> u then begin
          Array.unsafe_set a !d v;
          incr d
        end
      done;
      adj.(u) <- a;
      deg.(u) <- !d;
      push u;
      if !d < !min_deg then min_deg := !d
    done
  done;
  (order, left)

(* CSR offsets from per-row counts. *)
let offsets counts =
  let ptr = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun i c -> ptr.(i + 1) <- ptr.(i) + c) counts;
  ptr

(* [a] sorted, repeats dropped: an insertion sort in place, the lists
   being short. *)
let sorted_set (a : int array) =
  let k = ref 0 in
  for t = 0 to Array.length a - 1 do
    let v = a.(t) and i = ref 0 in
    while !i < !k && a.(!i) < v do
      incr i
    done;
    if !i = !k || a.(!i) <> v then begin
      Array.blit a !i a (!i + 1) (!k - !i);
      a.(!i) <- v;
      incr k
    end
  done;
  Array.sub a 0 !k

let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1

let analyse ~n ~slots ~row ~col =
  if slots > slot_mask then invalid_arg "Sparse_lu.analyse: too many slots";
  (* Count, then fill: each row's entries, with columns for now, and each
     node's neighbours in the graph of A + A^T. *)
  let count = Array.make n 0 and deg = Array.make n 0 in
  let each f =
    for s = 0 to slots - 1 do
      let i = row s in
      if i >= 0 then begin
        let j = col s in
        if i >= n || j < 0 || j >= n then
          invalid_arg
            (Printf.sprintf "Sparse_lu.analyse: entry (%d, %d) outside order %d" i j n);
        f s i j;
        count.(i) <- count.(i) + 1;
        if i <> j then begin
          deg.(i) <- deg.(i) + 1;
          deg.(j) <- deg.(j) + 1
        end
      end
    done
  in
  each (fun _ _ _ -> ());
  let aptr = offsets count in
  let aent = Array.make aptr.(n) 0 in
  let adj = Array.map (fun d -> Array.make d 0) deg in
  Array.fill count 0 n 0;
  Array.fill deg 0 n 0;
  each (fun s i j ->
      aent.(aptr.(i) + count.(i)) <- (j lsl slot_bits) lor s;
      if i <> j then begin
        adj.(i).(deg.(i)) <- j;
        adj.(j).(deg.(j)) <- i
      end);
  let perm, left = minimum_degree (Array.map sorted_set adj) in
  let pos = Array.make n 0 in
  Array.iteri (fun i p -> pos.(p) <- i) perm;
  for p = 0 to n - 1 do
    let diagonal = ref false in
    for q = aptr.(p) to aptr.(p + 1) - 1 do
      let j = aent.(q) lsr slot_bits in
      if j = p then diagonal := true;
      aent.(q) <- (pos.(j) lsl slot_bits) lor (aent.(q) land slot_mask)
    done;
    if not !diagonal then
      invalid_arg (Printf.sprintf "Sparse_lu.analyse: no diagonal entry in row %d" p)
  done;
  (* Step k's neighbours are U's row k and L's column k.  Filling L by
     rows with k upward, then U as L's transpose with rows upward, leaves
     every index list increasing. *)
  let lcount = Array.make n 0 and ucount = Array.map Array.length left in
  Array.iter (Array.iter (fun v -> lcount.(pos.(v)) <- lcount.(pos.(v)) + 1)) left;
  let lptr = offsets lcount and uptr = offsets ucount in
  let nnz = uptr.(n) in
  let lidx = Array.make nnz 0 and uidx = Array.make nnz 0 in
  let fill = Array.sub lptr 0 n in
  Array.iteri
    (fun k nb ->
      Array.iter
        (fun v ->
          let j = pos.(v) in
          lidx.(fill.(j)) <- k;
          fill.(j) <- fill.(j) + 1)
        nb)
    left;
  Array.blit uptr 0 fill 0 n;
  for i = 0 to n - 1 do
    for q = lptr.(i) to lptr.(i + 1) - 1 do
      let k = lidx.(q) in
      uidx.(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1
    done
  done;
  { n; slots; perm; aptr; aent; lptr; lidx; uptr; uidx }

let create sym =
  let nnz = sym.uptr.(sym.n) in
  {
    sym;
    values = Fvec.create sym.slots;
    lval = Fvec.create nnz;
    uval = Fvec.create nnz;
    udiag = Fvec.create sym.n;
    work = Fvec.create sym.n;
  }

let values a = a.values

(* Row i's elimination, given its L pattern [lidx.(l0 .. l1-1)]: each L
   entry k, in increasing k, becomes the multiplier work.(k) / U(k,k) and
   subtracts its multiple of U's row k.  A zero multiplier (a contact
   row's) skips its update, and so does a NaN one, which [lval] still
   records for [substitute] to spread.  A function of its own, so that its
   few live values stay in registers. *)
let eliminate (work : Fvec.t) (lval : Fvec.t) (uval : Fvec.t) (udiag : Fvec.t) lidx uptr
    uidx l0 l1 =
  for q = l0 to l1 - 1 do
    let k = Array.unsafe_get lidx q in
    let f = BA1.unsafe_get work k /. BA1.unsafe_get udiag k in
    BA1.unsafe_set lval q f;
    if f < 0.0 || f > 0.0 then
      for r = Array.unsafe_get uptr k to Array.unsafe_get uptr (k + 1) - 1 do
        let j = Array.unsafe_get uidx r in
        BA1.unsafe_set work j (BA1.unsafe_get work j -. (f *. BA1.unsafe_get uval r))
      done
  done

let factorizations = Obs.Metrics.counter "numerics.sparse_lu.factorizations"

(* Up-looking LU (IKJ): row i of A, permuted, is scattered into [work]
   over its pattern and eliminated; U on and right of the diagonal is
   then gathered out. *)
let factor a =
  Obs.Metrics.incr factorizations;
  let { sym = { n; perm; aptr; aent; lptr; lidx; uptr; uidx; _ }; values; lval; uval;
        udiag; work } = a in
  for i = 0 to n - 1 do
    let l0 = Array.unsafe_get lptr i and l1 = Array.unsafe_get lptr (i + 1) in
    let u0 = Array.unsafe_get uptr i and u1 = Array.unsafe_get uptr (i + 1) in
    for q = l0 to l1 - 1 do
      BA1.unsafe_set work (Array.unsafe_get lidx q) 0.0
    done;
    for r = u0 to u1 - 1 do
      BA1.unsafe_set work (Array.unsafe_get uidx r) 0.0
    done;
    let p = Array.unsafe_get perm i in
    for q = Array.unsafe_get aptr p to Array.unsafe_get aptr (p + 1) - 1 do
      let e = Array.unsafe_get aent q in
      BA1.unsafe_set work (e lsr slot_bits) (BA1.unsafe_get values (e land slot_mask))
    done;
    eliminate work lval uval udiag lidx uptr uidx l0 l1;
    let pivot = BA1.unsafe_get work i in
    if Float.abs pivot < 1e-300 then raise (Zero_pivot p);
    BA1.unsafe_set udiag i pivot;
    for r = u0 to u1 - 1 do
      BA1.unsafe_set uval r (BA1.unsafe_get work (Array.unsafe_get uidx r))
    done
  done

(* Permute dst into [work], solve L then U there, and permute back. *)
let substitute a ~dst =
  let { sym = { n; perm; lptr; lidx; uptr; uidx; _ }; lval; uval; udiag; work; _ } = a in
  if Fvec.length dst <> n then invalid_arg "Sparse_lu.substitute: dst length mismatch";
  for i = 0 to n - 1 do
    let s = ref (BA1.unsafe_get dst (Array.unsafe_get perm i)) in
    for q = Array.unsafe_get lptr i to Array.unsafe_get lptr (i + 1) - 1 do
      s := !s -. (BA1.unsafe_get lval q *. BA1.unsafe_get work (Array.unsafe_get lidx q))
    done;
    BA1.unsafe_set work i !s
  done;
  for i = n - 1 downto 0 do
    let s = ref (BA1.unsafe_get work i) in
    for r = Array.unsafe_get uptr i to Array.unsafe_get uptr (i + 1) - 1 do
      s := !s -. (BA1.unsafe_get uval r *. BA1.unsafe_get work (Array.unsafe_get uidx r))
    done;
    let x = !s /. BA1.unsafe_get udiag i in
    BA1.unsafe_set work i x;
    BA1.unsafe_set dst (Array.unsafe_get perm i) x
  done
