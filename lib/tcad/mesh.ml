type t = {
  xs : Numerics.Vec.t;
  ys : Numerics.Vec.t;
  nx : int;
  ny : int;
  hx : Numerics.Vec.t;
  hy : Numerics.Vec.t;
  wx : Numerics.Vec.t;
  wy : Numerics.Vec.t;
}

let check_increasing name (v : float array) =
  for i = 0 to Array.length v - 2 do
    if v.(i + 1) <= v.(i) then
      invalid_arg (Printf.sprintf "Mesh.make: %s must be strictly increasing" name)
  done

let spacings axis = Array.init (Array.length axis - 1) (fun i -> axis.(i + 1) -. axis.(i))

let dual_widths axis =
  let n = Array.length axis in
  Array.init n (fun i ->
    let left = if i = 0 then 0.0 else 0.5 *. (axis.(i) -. axis.(i - 1)) in
    let right = if i = n - 1 then 0.0 else 0.5 *. (axis.(i + 1) -. axis.(i)) in
    left +. right)

let make ~xs ~ys =
  if Array.length xs < 3 || Array.length ys < 3 then
    invalid_arg "Mesh.make: need at least a 3 x 3 mesh";
  check_increasing "xs" xs;
  check_increasing "ys" ys;
  {
    xs;
    ys;
    nx = Array.length xs;
    ny = Array.length ys;
    hx = spacings xs;
    hy = spacings ys;
    wx = dual_widths xs;
    wy = dual_widths ys;
  }

let n_nodes m = m.nx * m.ny

let index m ~ix ~iy =
  if ix < 0 || ix >= m.nx || iy < 0 || iy >= m.ny then
    invalid_arg (Printf.sprintf "Mesh.index: (%d, %d) out of range" ix iy);
  (ix * m.ny) + iy

let dual_width_y m iy = m.wy.(iy)

let find_nearest axis v =
  let n = Array.length axis in
  let best = ref 0 and dist = ref (Float.abs (axis.(0) -. v)) in
  for i = 1 to n - 1 do
    let d = Float.abs (axis.(i) -. v) in
    if d < !dist then begin
      dist := d;
      best := i
    end
  done;
  !best

let find_ix m x = find_nearest m.xs x
