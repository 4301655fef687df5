type geometry = {
  width : float;
  thickness : float;
  spacing : float;
  ild_thickness : float;
}

let geometry_for_node node_nm =
  if node_nm <= 0 then invalid_arg "Wire.geometry_for_node: bad node";
  let w = Physics.Constants.nm (float_of_int node_nm) in
  { width = w; thickness = 1.8 *. w; spacing = w; ild_thickness = w }

let rho_bulk = 17.2e-9
let mean_free_path = 39e-9

let resistivity g =
  if g.width <= 0.0 then invalid_arg "Wire.resistivity: bad geometry";
  rho_bulk *. (1.0 +. (mean_free_path /. g.width))

let resistance_per_length g = resistivity g /. (g.width *. g.thickness)

let capacitance_per_length g =
  let eps = 3.0 *. Physics.Constants.eps0 in
  (* Two vertical parallel-plate components (to the layers above/below) and
     two lateral coupling components to the neighbours. *)
  let vertical = 2.0 *. eps *. g.width /. g.ild_thickness in
  let lateral = 2.0 *. eps *. g.thickness /. g.spacing in
  vertical +. lateral

let rc_per_length2 g = resistance_per_length g *. capacitance_per_length g
