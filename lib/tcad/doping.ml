type profile = x:float -> y:float -> float

let uniform n ~x:_ ~y:_ = n
let sum profiles ~x ~y = List.fold_left (fun acc p -> acc +. p ~x ~y) 0.0 profiles

let gaussian2d ~peak ~x0 ~y0 ~sigma_x ~sigma_y ~x ~y =
  let dx = (x -. x0) /. sigma_x in
  let dy = (y -. y0) /. sigma_y in
  peak *. exp (-0.5 *. ((dx *. dx) +. (dy *. dy)))

(* The vertical straggle sy is chosen so the profile falls from [peak] to
   [background] at depth [xj]; the lateral Gaussian's flat region is placed
   so the *surface* profile equals [background] exactly at [junction], which
   pins the metallurgical channel length irrespective of the straggle. *)
let source_drain ~peak ~junction ~side ~xj ~background ~lateral_sigma ~x ~y =
  if peak <= background then invalid_arg "Doping.source_drain: peak must exceed background";
  let decades = sqrt (log (peak /. background)) in
  let sy = xj /. decades in
  let flat_to_junction = lateral_sigma *. decades in
  let lateral_distance =
    match side with
    | `Source -> Float.max 0.0 (x -. (junction -. flat_to_junction))
    | `Drain -> Float.max 0.0 (junction +. flat_to_junction -. x)
  in
  let u = lateral_distance /. lateral_sigma in
  let v = y /. sy in
  peak *. exp (-.(v *. v)) *. exp (-.(u *. u))
