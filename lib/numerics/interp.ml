(* Annotated at [float array]: inferred at ['a array], each comparison
   would box its operands and call the polymorphic compare (LNT006). *)
let check (xs : float array) (ys : float array) name =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg (Printf.sprintf "Interp.%s: length mismatch" name);
  if n < 2 then invalid_arg (Printf.sprintf "Interp.%s: need at least 2 points" name);
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then
      invalid_arg (Printf.sprintf "Interp.%s: abscissae must be strictly increasing" name)
  done

let search (xs : float array) x =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear xs ys x =
  check xs ys "linear";
  let n = Array.length xs in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = search xs x in
    let t = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ((1.0 -. t) *. ys.(i)) +. (t *. ys.(i + 1))
  end

(* One merge walk of a sorted grid against the table, which is produced
   one sample at a time into a two-float buffer, so no sample is boxed:
   the segment [i, i + 1] only moves right, and every branch and the
   arithmetic are [linear]'s.  The last pass, at g = infinity, walks the
   rest of the table so an unsorted tail raises as [check] would. *)
let resample ~n ~sample grid =
  if n < 2 then invalid_arg "Interp.resample: need at least 2 points";
  let unsorted () = invalid_arg "Interp.resample: abscissae must be strictly increasing" in
  let m = Array.length grid in
  let out = Array.make m 0.0 in
  let xy = [| 0.0; 0.0 |] in
  sample 0 xy;
  let x0 = xy.(0) and y0 = xy.(1) in
  sample 1 xy;
  let i = ref 0 in
  let xa = ref x0 and ya = ref y0 and xb = ref xy.(0) and yb = ref xy.(1) in
  if !xb <= !xa then unsorted ();
  let prev = ref Float.neg_infinity in
  for k = 0 to m do
    let g = if k < m then grid.(k) else Float.infinity in
    if not (g >= !prev) then invalid_arg "Interp.resample: grid must be non-decreasing";
    prev := g;
    while !i < n - 2 && !xb <= g do
      incr i;
      xa := !xb;
      ya := !yb;
      sample (!i + 1) xy;
      xb := xy.(0);
      yb := xy.(1);
      if !xb <= !xa then unsorted ()
    done;
    if k < m then
      out.(k) <-
        (if g <= x0 then y0
         else if !xb <= g then !yb
         else begin
           let t = (g -. !xa) /. (!xb -. !xa) in
           ((1.0 -. t) *. !ya) +. (t *. !yb)
         end)
  done;
  out

let crossings xs ys level =
  check xs ys "crossings";
  let n = Array.length xs in
  let acc = ref [] in
  for i = 0 to n - 2 do
    let d0 = ys.(i) -. level and d1 = ys.(i + 1) -. level in
    if Float.equal d0 0.0 then acc := xs.(i) :: !acc
    else if d0 *. d1 < 0.0 then begin
      let t = d0 /. (d0 -. d1) in
      acc := (xs.(i) +. (t *. (xs.(i + 1) -. xs.(i)))) :: !acc
    end
  done;
  if Float.equal ys.(n - 1) level then acc := xs.(n - 1) :: !acc;
  List.rev !acc
