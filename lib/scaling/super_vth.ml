type selected = {
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
}

(* Every selection runs under the default model calibration. *)
let cal = Device.Params.default_calibration

let cm3 = Physics.Constants.per_cm3

let select_node (node : Roadmap.node) =
  let base =
    {
      Device.Params.node_nm = node.Roadmap.nm;
      lpoly = node.Roadmap.lpoly;
      tox = node.Roadmap.tox;
      nsub = cm3 1e18;
      np_halo = 0.0;
      vdd = node.Roadmap.vdd;
      xj = None;
      overlap = None;
    }
  in
  (* Fig. 1(c): the leakage constraint is active at the delay optimum, so
     the doping pair is pinned by I_off at the nominal supply. *)
  let phys =
    Doping_fit.solve_for_ioff ~base ~ioff_vdd:node.Roadmap.vdd
      ~target:node.Roadmap.ileak_max ()
  in
  { node; phys; pair = Circuits.Inverter.pair_of_physical ~cal phys }

let all () = Exec.map select_node Roadmap.nodes
