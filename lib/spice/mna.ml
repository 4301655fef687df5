type system = {
  circuit : Netlist.t;
  n_nodes : int;
  vsources : (string * int * int * Netlist.waveform) array;
  caps : (int * int * float) array;
  n : int;
}

let build circuit =
  let n_nodes = Netlist.n_nodes circuit in
  let vsources = Array.of_list (Netlist.voltage_sources circuit) in
  let caps = Array.of_list (Netlist.capacitors circuit) in
  { circuit; n_nodes; vsources; caps; n = n_nodes - 1 + Array.length vsources }

let size s = s.n
let n_caps s = Array.length s.caps

let voltage _s x node = if node = 0 then 0.0 else x.(node - 1)

let source_current s x name =
  let rec find i =
    if i >= Array.length s.vsources then begin
      let known =
        s.vsources |> Array.to_list |> List.map (fun (nm, _, _, _) -> nm)
        |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Mna.source_current: no voltage source named %S (known: %s)" name
           (if known = "" then "<none>" else known))
    end
    else begin
      let nm, _, _, _ = s.vsources.(i) in
      if String.equal nm name then x.(s.n_nodes - 1 + i) else find (i + 1)
    end
  in
  find 0

type cap_companion = { geq : float; ieq : float }

let cap_voltage s x i =
  let p, m, _ = s.caps.(i) in
  voltage s x p -. voltage s x m

let cap_farads s i =
  let _, _, c = s.caps.(i) in
  c

let node_count s = s.n_nodes

let source_list s = Array.to_list s.vsources

(* Current of an N-channel MOSFET with bulk tied to source, drain/source
   symmetric.  Returns (i_drain, di/dvd, di/dvg, di/dvs), where i_drain is
   conventional current into the drain terminal. *)
let nmos_current dev width ~vd ~vg ~vs =
  let eval vgs vds =
    let i = Device.Iv_model.id dev ~vgs ~vds in
    let gm = Device.Iv_model.gm dev ~vgs ~vds in
    let gds = Device.Iv_model.gds dev ~vgs ~vds in
    (i, gm, gds)
  in
  if vd >= vs then begin
    let i, gm, gds = eval (vg -. vs) (vd -. vs) in
    (width *. i, width *. gds, width *. gm, -.width *. (gm +. gds))
  end
  else begin
    (* Swap roles: the terminal at lower potential acts as source. *)
    let i, gm, gds = eval (vg -. vd) (vs -. vd) in
    (-.width *. i, width *. (gm +. gds), -.width *. gm, -.width *. gds)
  end

(* P-channel: conventional current flows source -> drain inside the device
   when vsd > 0, so it *exits* at the drain terminal; the current into the
   drain is its negative. *)
let pmos_current dev width ~vd ~vg ~vs =
  let eval vsg vsd =
    let i = Device.Iv_model.id dev ~vgs:vsg ~vds:vsd in
    let gm = Device.Iv_model.gm dev ~vgs:vsg ~vds:vsd in
    let gds = Device.Iv_model.gds dev ~vgs:vsg ~vds:vsd in
    (i, gm, gds)
  in
  if vs >= vd then begin
    let i, gm, gds = eval (vs -. vg) (vs -. vd) in
    (-.width *. i, width *. gds, width *. gm, -.width *. (gm +. gds))
  end
  else begin
    (* Terminal roles swap: the nominal drain (higher potential) sources. *)
    let i, gm, gds = eval (vd -. vg) (vd -. vs) in
    (width *. i, width *. (gm +. gds), -.width *. gm, -.width *. gds)
  end

let gmin = 1e-12

let assemble s ~time ?(source_scale = 1.0) ?(overrides = []) ?caps ~x () =
  let n = s.n in
  if Array.length x <> n then invalid_arg "Mna.assemble: unknown vector length mismatch";
  let f = Array.make n 0.0 in
  let jac = Numerics.Matrix.create n n in
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
  (* gmin to ground stabilizes floating nodes. *)
  for nd = 1 to s.n_nodes - 1 do
    add_current nd (gmin *. v nd);
    add_jac nd nd gmin
  done;
  let cap_index = ref 0 in
  List.iter
    (fun element ->
      match element with
      | Netlist.Resistor { plus; minus; ohms } ->
        let g = 1.0 /. ohms in
        let i = g *. (v plus -. v minus) in
        add_current plus i;
        add_current minus (-.i);
        add_jac plus plus g;
        add_jac plus minus (-.g);
        add_jac minus minus g;
        add_jac minus plus (-.g)
      | Netlist.Capacitor _ ->
        let idx = !cap_index in
        incr cap_index;
        (match caps with
         | None -> ()
         | Some companions ->
           let { geq; ieq } = companions.(idx) in
           let p, m, _ = s.caps.(idx) in
           let i = (geq *. (v p -. v m)) -. ieq in
           add_current p i;
           add_current m (-.i);
           add_jac p p geq;
           add_jac p m (-.geq);
           add_jac m m geq;
           add_jac m p (-.geq))
      | Netlist.Current_source { plus; minus; amps } ->
        let i = source_scale *. amps in
        (* Current flows from + through the external circuit to -: it leaves
           the source at -, i.e. is injected into the circuit at -. *)
        add_current plus i;
        add_current minus (-.i)
      | Netlist.Voltage_source _ -> ()
      | Netlist.Nmos { dev; width; drain; gate; source } ->
        let id, did_dvd, did_dvg, did_dvs =
          nmos_current dev width ~vd:(v drain) ~vg:(v gate) ~vs:(v source)
        in
        add_current drain id;
        add_current source (-.id);
        add_jac drain drain did_dvd;
        add_jac drain gate did_dvg;
        add_jac drain source did_dvs;
        add_jac source drain (-.did_dvd);
        add_jac source gate (-.did_dvg);
        add_jac source source (-.did_dvs)
      | Netlist.Pmos { dev; width; drain; gate; source } ->
        let id, did_dvd, did_dvg, did_dvs =
          pmos_current dev width ~vd:(v drain) ~vg:(v gate) ~vs:(v source)
        in
        add_current drain id;
        add_current source (-.id);
        add_jac drain drain did_dvd;
        add_jac drain gate did_dvg;
        add_jac drain source did_dvs;
        add_jac source drain (-.did_dvd);
        add_jac source gate (-.did_dvg);
        add_jac source source (-.did_dvs))
    (Netlist.elements s.circuit);
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
    s.vsources;
  (f, jac)
