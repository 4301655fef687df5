let geometric a b ~h0 ~ratio =
  if h0 <= 0.0 then invalid_arg "Grid.geometric: h0 must be positive";
  if ratio < 1.0 then invalid_arg "Grid.geometric: ratio must be >= 1";
  let rec collect x h acc =
    if x >= b -. (1e-6 *. h0) then List.rev (b :: acc)
    else collect (x +. h) (h *. ratio) (x :: acc)
  in
  Array.of_list (collect a h0 [])

(* Target spacing at x: h_min near any centre, growing linearly with distance
   at slope g until h_max.  Integrate dx/h(x) by stepping. *)
let refined_around a b ~centers ~h_min ~h_max =
  if h_min <= 0.0 || h_max < h_min then invalid_arg "Grid.refined_around: bad spacings";
  if b <= a then invalid_arg "Grid.refined_around: empty interval";
  let growth = 0.35 in
  let target x =
    let d =
      List.fold_left (fun acc c -> Float.min acc (Float.abs (x -. c))) infinity centers
    in
    Float.min h_max (h_min +. (growth *. d))
  in
  let rec collect x acc =
    let h = target x in
    let x' = x +. h in
    if x' >= b -. (0.3 *. h) then List.rev (b :: acc) else collect x' (x' :: acc)
  in
  Array.of_list (collect a [ a ])

let spacings xs = Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i))
