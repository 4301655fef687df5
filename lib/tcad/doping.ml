type profile =
  | Uniform of float
  | Gaussian2d of { peak : float; x0 : float; y0 : float; sigma_x : float; sigma_y : float }
  | Source_drain of {
      peak : float;
      junction : float;
      side : [ `Source | `Drain ];
      lateral_sigma : float;
      sy : float;
      flat_to_junction : float;
    }

let uniform n = Uniform n
let gaussian2d ~peak ~x0 ~y0 ~sigma_x ~sigma_y = Gaussian2d { peak; x0; y0; sigma_x; sigma_y }

(* The vertical straggle sy is chosen so the profile falls from [peak] to
   [background] at depth [xj]; the lateral Gaussian's flat region is placed
   so the *surface* profile equals [background] exactly at [junction], which
   pins the metallurgical channel length irrespective of the straggle. *)
let source_drain ~peak ~junction ~side ~xj ~background ~lateral_sigma =
  if peak <= background then invalid_arg "Doping.source_drain: peak must exceed background";
  let decades = sqrt (log (peak /. background)) in
  Source_drain
    { peak; junction; side; lateral_sigma; sy = xj /. decades;
      flat_to_junction = lateral_sigma *. decades }

(* A profile's value at one point, inlined into the node loop of
   [sum_into], where no float leaves the loop and so none is boxed. *)
let[@inline] at profile x y =
  match profile with
  | Uniform n -> n
  | Gaussian2d { peak; x0; y0; sigma_x; sigma_y } ->
    let dx = (x -. x0) /. sigma_x in
    let dy = (y -. y0) /. sigma_y in
    peak *. exp (-0.5 *. ((dx *. dx) +. (dy *. dy)))
  | Source_drain { peak; junction; side; lateral_sigma; sy; flat_to_junction } ->
    let lateral_distance =
      match side with
      | `Source -> Float.max 0.0 (x -. (junction -. flat_to_junction))
      | `Drain -> Float.max 0.0 (junction +. flat_to_junction -. x)
    in
    let u = lateral_distance /. lateral_sigma in
    let v = y /. sy in
    peak *. exp (-.(v *. v)) *. exp (-.(u *. u))

(* Nodes are [k = ix * ny + iy] (Mesh.index). *)
let sum_into (mesh : Mesh.t) (dst : Field.t) profiles =
  if Field.length dst <> Mesh.n_nodes mesh then invalid_arg "Doping.sum_into: size mismatch";
  Field.fill dst 0.0;
  let ny = mesh.Mesh.ny in
  List.iter
    (fun profile ->
      for ix = 0 to mesh.Mesh.nx - 1 do
        for iy = 0 to ny - 1 do
          let k = (ix * ny) + iy in
          dst.{k} <- dst.{k} +. at profile mesh.Mesh.xs.(ix) mesh.Mesh.ys.(iy)
        done
      done)
    profiles
