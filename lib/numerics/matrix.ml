type t = float array array

let create n m = Array.make_matrix n m 0.0

let identity n =
  let a = create n n in
  for i = 0 to n - 1 do
    a.(i).(i) <- 1.0
  done;
  a

let copy a = Array.map Array.copy a

let dims a = (Array.length a, if Array.length a = 0 then 0 else Array.length a.(0))

let mat_vec a x =
  let n, m = dims a in
  if m <> Array.length x then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init n (fun i ->
      let row = a.(i) in
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (row.(j) *. x.(j))
      done;
      !s)

let mat_mul a b =
  let n, k = dims a in
  let k', m = dims b in
  if k <> k' then invalid_arg "Matrix.mat_mul: dimension mismatch";
  let c = create n m in
  for i = 0 to n - 1 do
    for p = 0 to k - 1 do
      let aip = a.(i).(p) in
      if not (Float.equal aip 0.0) then
        for j = 0 to m - 1 do
          c.(i).(j) <- c.(i).(j) +. (aip *. b.(p).(j))
        done
    done
  done;
  c

let transpose a =
  let n, m = dims a in
  Array.init m (fun j -> Array.init n (fun i -> a.(i).(j)))

exception Singular of int

(* Doolittle LU with partial pivoting, in place: [lu]'s rows are swapped
   and overwritten with L (unit diagonal, below) and U (on and above the
   diagonal); [perm] records which input row each row came from. *)
let lu_factor_in_place lu perm =
  let n, m = dims lu in
  if n <> m || Array.length perm <> n then
    invalid_arg "Matrix.lu_factor_in_place: dimension mismatch";
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs lu.(k).(k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs lu.(i).(k) in
      if m > !pivot_mag then begin
        pivot_mag := m;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise (Singular k);
    if !pivot_row <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot_row);
      lu.(!pivot_row) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tp
    end;
    let pivot = lu.(k).(k) in
    for i = k + 1 to n - 1 do
      let f = lu.(i).(k) /. pivot in
      lu.(i).(k) <- f;
      if not (Float.equal f 0.0) then
        for j = k + 1 to n - 1 do
          lu.(i).(j) <- lu.(i).(j) -. (f *. lu.(k).(j))
        done
    done
  done

let lu_solve_into lu perm b x =
  let n = Array.length lu in
  if Array.length perm <> n || Array.length b <> n || Array.length x <> n then
    invalid_arg "Matrix.lu_solve_into: dimension mismatch";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. lu.(i).(i)
  done
