(* Pure sweep-box planner.  No solver calls here: the server maps the
   groups onto Exec and Tcad.Extract; this module only decides which
   requests share a run and at which grid indices each answer lives. *)

type box = { rid : int; vd : float; vg_min : float; vg_max : float; points : int }

type group = { vd : float; grid : float array; members : (int * int array) list }

let grid_of_box b =
  if b.points < 2 then
    invalid_arg (Printf.sprintf "Coalesce.grid_of_box: points = %d, need >= 2" b.points);
  if not (Float.is_finite b.vg_min && Float.is_finite b.vg_max) then
    invalid_arg
      (Printf.sprintf "Coalesce.grid_of_box: vg_min = %g, vg_max = %g, need finite"
         b.vg_min b.vg_max);
  if b.vg_min >= b.vg_max then
    invalid_arg
      (Printf.sprintf "Coalesce.grid_of_box: vg_min = %g, vg_max = %g, need vg_min < vg_max"
         b.vg_min b.vg_max);
  Numerics.Vec.linspace b.vg_min b.vg_max b.points

(* Transitively merge boxes whose [vg] ranges overlap or touch.  Input
   boxes all share one [vd]. *)
let clusters boxes =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.vg_min b.vg_min with
        | 0 -> Float.compare a.vg_max b.vg_max
        | c -> c)
      boxes
  in
  match sorted with
  | [] -> []
  | first :: rest ->
    let finish cur acc = List.rev cur :: acc in
    let rec go cur cur_max acc = function
      | [] -> finish cur acc
      | b :: tl ->
        if b.vg_min <= cur_max then go (b :: cur) (Float.max cur_max b.vg_max) acc tl
        else go [ b ] b.vg_max (finish cur acc) tl
    in
    List.rev (go [ first ] first.vg_max [] rest)

(* Sorted union of member grids, deduplicated by value.  Every member
   point appears in the union verbatim (same bits), so index lookup by
   binary search is exact. *)
let union_grid grids =
  let all = Array.concat grids in
  Array.sort Float.compare all;
  let out = ref [] in
  let count = ref 0 in
  Array.iter
    (fun v ->
      match !out with
      | prev :: _ when Float.compare prev v = 0 -> ()
      | _ ->
        out := v :: !out;
        incr count)
    all;
  let grid = Array.make !count 0.0 in
  List.iteri (fun i v -> grid.(!count - 1 - i) <- v) !out;
  grid

let index_in grid v =
  let lo = ref 0 and hi = ref (Array.length grid - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Float.compare grid.(mid) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let plan boxes =
  (* Group by bit-equal vd so a P-vs-N sign flip or a -0. never lands two
     different biases in one run. *)
  let by_vd : (int64, box list ref) Hashtbl.t = Hashtbl.create 8 in
  let vd_order = ref [] in
  List.iter
    (fun (b : box) ->
      let bits = Int64.bits_of_float b.vd in
      match Hashtbl.find_opt by_vd bits with
      | Some l -> l := b :: !l
      | None ->
        Hashtbl.add by_vd bits (ref [ b ]);
        vd_order := b.vd :: !vd_order)
    boxes;
  let vds = List.sort compare (List.rev !vd_order) in
  List.concat_map
    (fun vd ->
      let boxes = List.rev !(Hashtbl.find by_vd (Int64.bits_of_float vd)) in
      List.map
        (fun cluster ->
          let grids = List.map grid_of_box cluster in
          let grid = union_grid grids in
          let members =
            List.map2
              (fun b g -> (b.rid, Array.map (fun v -> index_in grid v) g))
              cluster grids
          in
          { vd; grid; members })
        (clusters boxes))
    vds
