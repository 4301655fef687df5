(* One netlist element, resolved at build time: everything bias-independent
   (conductances, prepared device coefficients) is computed once. *)
type stamp =
  | Conductance of { plus : int; minus : int; g : float }
  | Companion of int
  | Injection of { plus : int; minus : int; amps : float }
  | Mosfet of {
      sign : float;  (** +1 for an N-channel device, -1 for a P-channel one *)
      coeffs : Device.Iv_model.coeffs;
      width : float;
      drain : int;
      gate : int;
      source : int;
    }

type system = {
  stamps : stamp array;
  n_nodes : int;
  vsources : (string * int * int * Netlist.waveform) array;
  caps : (int * int * float) array;
  n : int;
}

let build circuit =
  let n_nodes = Netlist.n_nodes circuit in
  let vsources = Array.of_list (Netlist.voltage_sources circuit) in
  let caps = Array.of_list (Netlist.capacitors circuit) in
  let cap_index = ref 0 in
  let mosfet sign { Netlist.dev; width; drain; gate; source } =
    Some (Mosfet { sign; coeffs = Device.Iv_model.prepare dev; width; drain; gate; source })
  in
  let stamps =
    Netlist.elements circuit
    |> List.filter_map (function
         | Netlist.Resistor { plus; minus; ohms } ->
           Some (Conductance { plus; minus; g = 1.0 /. ohms })
         | Netlist.Capacitor _ ->
           let idx = !cap_index in
           incr cap_index;
           Some (Companion idx)
         | Netlist.Current_source { plus; minus; amps } -> Some (Injection { plus; minus; amps })
         | Netlist.Voltage_source _ -> None
         | Netlist.Nmos m -> mosfet 1.0 m
         | Netlist.Pmos m -> mosfet (-1.0) m)
    |> Array.of_list
  in
  { stamps; n_nodes; vsources; caps; n = n_nodes - 1 + Array.length vsources }

let size s = s.n
let n_caps s = Array.length s.caps

let voltage _s x node = if node = 0 then 0.0 else x.(node - 1)

let source_index s name =
  let rec find i =
    if i >= Array.length s.vsources then begin
      let known =
        s.vsources |> Array.to_list |> List.map (fun (nm, _, _, _) -> nm)
        |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Mna: no voltage source named %S (known: %s)" name
           (if known = "" then "<none>" else known))
    end
    else begin
      let nm, _, _, _ = s.vsources.(i) in
      if String.equal nm name then s.n_nodes - 1 + i else find (i + 1)
    end
  in
  find 0

let source_current s x name = x.(source_index s name)

type cap_companion = { geq : float; ieq : float }

let cap_voltage s x i =
  let p, m, _ = s.caps.(i) in
  voltage s x p -. voltage s x m

let cap_farads s i =
  let _, _, c = s.caps.(i) in
  c

let node_count s = s.n_nodes

let gmin = 1e-12

let assemble s ~time ?(source_scale = 1.0) ?(overrides = []) ?caps ~x ~f ~jac () =
  let n = s.n in
  if Array.length x <> n || Array.length f <> n || Array.length jac <> n then
    invalid_arg "Mna.assemble: vector length mismatch";
  Array.fill f 0 n 0.0;
  Array.iter (fun r -> Array.fill r 0 n 0.0) jac;
  let v node = voltage s x node in
  let row node = node - 1 in
  (* KCL convention: f.(row) accumulates currents *leaving* the node. *)
  let add_current node i =
    if node <> 0 then f.(row node) <- f.(row node) +. i
  in
  let add_jac node wrt g =
    if node <> 0 && wrt <> 0 then begin
      let r = row node and c = row wrt in
      jac.(r).(c) <- jac.(r).(c) +. g
    end
  in
  (* A two-terminal branch carrying [i] from [plus] to [minus] with
     conductance [g]. *)
  let add_branch plus minus i g =
    add_current plus i;
    add_current minus (-.i);
    add_jac plus plus g;
    add_jac plus minus (-.g);
    add_jac minus minus g;
    add_jac minus plus (-.g)
  in
  (* gmin to ground stabilizes floating nodes. *)
  for nd = 1 to s.n_nodes - 1 do
    add_current nd (gmin *. v nd);
    add_jac nd nd gmin
  done;
  Array.iter
    (function
      | Conductance { plus; minus; g } -> add_branch plus minus (g *. (v plus -. v minus)) g
      | Companion idx ->
        (match caps with
         | None -> ()
         | Some companions ->
           let { geq; ieq } = companions.(idx) in
           let p, m, _ = s.caps.(idx) in
           add_branch p m ((geq *. (v p -. v m)) -. ieq) geq)
      | Injection { plus; minus; amps } ->
        let i = source_scale *. amps in
        (* Current flows from + through the external circuit to -: it leaves
           the source at -, i.e. is injected into the circuit at -. *)
        add_current plus i;
        add_current minus (-.i)
      | Mosfet { sign; coeffs; width; drain; gate; source } ->
        (* Bulk tied to source, drain/source symmetric: the terminal at the
           lower (N) or higher (P) potential acts as source.  [sign] maps a
           P-channel device onto the source-referenced magnitudes of the
           model; the conventional current into the drain terminal is
           [i_d], with partials [d_vd], [d_vg], [d_vs]. *)
        let vd = v drain and vg = v gate and vs = v source in
        let i_d, d_vd, d_vg, d_vs =
          if sign *. (vd -. vs) >= 0.0 then begin
            let i, gm, gds =
              Device.Iv_model.eval coeffs ~vgs:(sign *. (vg -. vs)) ~vds:(sign *. (vd -. vs))
            in
            (sign *. width *. i, width *. gds, width *. gm, -.width *. (gm +. gds))
          end
          else begin
            let i, gm, gds =
              Device.Iv_model.eval coeffs ~vgs:(sign *. (vg -. vd)) ~vds:(sign *. (vs -. vd))
            in
            (-.sign *. width *. i, width *. (gm +. gds), -.width *. gm, -.width *. gds)
          end
        in
        add_current drain i_d;
        add_current source (-.i_d);
        add_jac drain drain d_vd;
        add_jac drain gate d_vg;
        add_jac drain source d_vs;
        add_jac source drain (-.d_vd);
        add_jac source gate (-.d_vg);
        add_jac source source (-.d_vs))
    s.stamps;
  (* Voltage sources: branch current unknowns and voltage constraints. *)
  Array.iteri
    (fun i (name, plus, minus, wave) ->
      let k = s.n_nodes - 1 + i in
      let ibr = x.(k) in
      (* Branch current flows + -> (through source) -> -, so it leaves the
         circuit at + and enters at -. *)
      add_current plus ibr;
      add_current minus (-.ibr);
      if plus <> 0 then jac.(row plus).(k) <- jac.(row plus).(k) +. 1.0;
      if minus <> 0 then jac.(row minus).(k) <- jac.(row minus).(k) -. 1.0;
      let value =
        match List.assoc_opt name overrides with
        | Some v -> v
        | None -> Netlist.waveform_value wave time
      in
      let target = source_scale *. value in
      f.(k) <- v plus -. v minus -. target;
      if plus <> 0 then jac.(k).(row plus) <- jac.(k).(row plus) +. 1.0;
      if minus <> 0 then jac.(k).(row minus) <- jac.(k).(row minus) -. 1.0)
    s.vsources
