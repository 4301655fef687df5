let check xs ys name =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg (Printf.sprintf "Interp.%s: length mismatch" name);
  if n < 2 then invalid_arg (Printf.sprintf "Interp.%s: need at least 2 points" name);
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then
      invalid_arg (Printf.sprintf "Interp.%s: abscissae must be strictly increasing" name)
  done

let search xs x =
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
