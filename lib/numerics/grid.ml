let geometric a b ~h0 ~ratio =
  if h0 <= 0.0 then invalid_arg "Grid.geometric: h0 must be positive";
  if ratio < 1.0 then invalid_arg "Grid.geometric: ratio must be >= 1";
  let rec collect x h acc =
    if x >= b -. (1e-6 *. h0) then List.rev (b :: acc)
    else collect (x +. h) (h *. ratio) (x :: acc)
  in
  Array.of_list (collect a h0 [])

(* Target spacing at x: h_min near any centre, growing linearly with
   distance at slope 0.35 until h_max.  Integrate dx/h(x) by stepping from
   [a]: each step's end is a line, and the step that lands within 0.3 h of
   [b] ends on [b] instead.  Writes the lines into [out] as far as it
   reaches and returns their count, so [refined_around] walks twice, once
   to size the array and once to fill it, and builds no list. *)
let walk_refined out a b centers h_min h_max =
  let growth = 0.35 in
  let n = ref 1 and x = ref a and finished = ref false in
  if Array.length out > 0 then out.(0) <- a;
  while not !finished do
    let d = ref infinity in
    for j = 0 to Array.length centers - 1 do
      d := Float.min !d (Float.abs (!x -. centers.(j)))
    done;
    let h = Float.min h_max (h_min +. (growth *. !d)) in
    let x' = !x +. h in
    finished := x' >= b -. (0.3 *. h);
    if !n < Array.length out then out.(!n) <- (if !finished then b else x');
    incr n;
    x := x'
  done;
  !n

let refined_around a b ~centers ~h_min ~h_max =
  if h_min <= 0.0 || h_max < h_min then invalid_arg "Grid.refined_around: bad spacings";
  if b <= a then invalid_arg "Grid.refined_around: empty interval";
  let out = Array.make (walk_refined [||] a b centers h_min h_max) a in
  ignore (walk_refined out a b centers h_min h_max : int);
  out

let spacings xs = Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i))
