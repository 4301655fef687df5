type t = float array array

let create n m = Array.make_matrix n m 0.0

let dims a = (Array.length a, if Array.length a = 0 then 0 else Array.length a.(0))

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
