type series = { name : string; points : (float * float) array }

let markers = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let width = 64
let height = 18

let render ?(x_label = "") ?(y_label = "") ~title series =
  let all_points = List.concat_map (fun s -> Array.to_list s.points) series in
  if List.is_empty all_points then invalid_arg "Plot.render: no points";
  let xs = List.map fst all_points and ys = List.map snd all_points in
  let fold f = function [] -> 0.0 | h :: t -> List.fold_left f h t in
  let x0 = fold Float.min xs and x1 = fold Float.max xs in
  let y0 = fold Float.min ys and y1 = fold Float.max ys in
  let xspan = if x1 = x0 then 1.0 else x1 -. x0 in
  let yspan = if y1 = y0 then 1.0 else y1 -. y0 in
  let grid = Array.make_matrix height width ' ' in
  List.iteri
    (fun si s ->
      let marker = markers.(si mod Array.length markers) in
      Array.iter
        (fun (x, y) ->
          let cx = int_of_float ((x -. x0) /. xspan *. float_of_int (width - 1)) in
          let cy = int_of_float ((y -. y0) /. yspan *. float_of_int (height - 1)) in
          let row = height - 1 - cy in
          if row >= 0 && row < height && cx >= 0 && cx < width then grid.(row).(cx) <- marker)
        s.points)
    series;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%11.4g +" y1);
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i row ->
      let label =
        if i = height / 2 && y_label <> "" then Printf.sprintf "%11s |" y_label
        else String.make 11 ' ' ^ " |"
      in
      Buffer.add_string buf label;
      Buffer.add_string buf (String.init width (fun j -> row.(j)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (Printf.sprintf "%11.4g +%s" y0 (String.make width '-'));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%12s%-14.4g%*s%14.4g  %s" "" x0 (width - 28) "" x1 x_label);
  Buffer.add_char buf '\n';
  List.iteri
    (fun si s ->
      Buffer.add_string buf
        (Printf.sprintf "  %c %s\n" markers.(si mod Array.length markers) s.name))
    series;
  Buffer.contents buf
