type t = { slews : Numerics.Vec.t; loads : Numerics.Vec.t; values : float array array }

let check_axis name (v : float array) =
  if Array.length v < 1 then invalid_arg ("Lut.create: empty " ^ name);
  for i = 0 to Array.length v - 2 do
    if v.(i + 1) <= v.(i) then invalid_arg ("Lut.create: " ^ name ^ " not increasing")
  done

let create ~slews ~loads ~values =
  check_axis "slews" slews;
  check_axis "loads" loads;
  if Array.length values <> Array.length slews then
    invalid_arg "Lut.create: row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length loads then
        invalid_arg "Lut.create: column count mismatch")
    values;
  { slews; loads; values }

let bracket axis x =
  let n = Array.length axis in
  if n = 1 then (0, 0, 0.0)
  else begin
    let x = Float.max axis.(0) (Float.min axis.(n - 1) x) in
    let i = Numerics.Interp.search axis x in
    let t = (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)) in
    (i, i + 1, t)
  end

let eval t ~slew ~load =
  let i0, i1, ti = bracket t.slews slew in
  let j0, j1, tj = bracket t.loads load in
  let v00 = t.values.(i0).(j0) and v01 = t.values.(i0).(j1) in
  let v10 = t.values.(i1).(j0) and v11 = t.values.(i1).(j1) in
  let a = ((1.0 -. tj) *. v00) +. (tj *. v01) in
  let b = ((1.0 -. tj) *. v10) +. (tj *. v11) in
  ((1.0 -. ti) *. a) +. (ti *. b)

let slews t = Array.copy t.slews
let loads t = Array.copy t.loads
