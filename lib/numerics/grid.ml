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

let concat_unique g1 g2 =
  let all = Array.to_list g1 @ Array.to_list g2 in
  let sorted = List.sort compare all in
  let span =
    match (sorted, List.rev sorted) with
    | lo :: _, hi :: _ -> hi -. lo
    | _, _ -> 0.0
  in
  let eps = 1e-9 *. Float.max span 1e-30 in
  let rec dedup = function
    | x :: y :: rest when y -. x < eps -> dedup (x :: rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  Array.of_list (dedup sorted)

let midpoints xs =
  Array.init (Array.length xs - 1) (fun i -> 0.5 *. (xs.(i) +. xs.(i + 1)))

let spacings xs = Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i))
