type polarity = Nchannel | Pchannel

type description = {
  polarity : polarity;
  lpoly : float;
  tox : float;
  nsub : float;
  np_halo : float;
  xj : float;
  nsd : float;
  overlap : float;
  halo_depth_frac : float;
  halo_sigma_frac : float;
  gate_doping : float;
  temperature : float;
}

let default_description =
  let lpoly = Physics.Constants.nm 65.0 in
  {
    polarity = Nchannel;
    lpoly;
    tox = Physics.Constants.nm 2.1;
    nsub = Physics.Constants.per_cm3 1.52e18;
    np_halo = Physics.Constants.per_cm3 2.11e18;
    xj = 0.35 *. lpoly;
    nsd = Physics.Constants.per_cm3 1.0e20;
    overlap = 0.12 *. lpoly;
    halo_depth_frac = 0.5;
    halo_sigma_frac = 0.45;
    gate_doping = Physics.Constants.per_cm3 1.0e20;
    temperature = 300.0;
  }

(* Canonical content key over every description field. *)
let description_key (d : description) =
  Exec.Key.(
    fields "tcad_description"
      [ ("polarity", (match d.polarity with Nchannel -> "n" | Pchannel -> "p"));
        ("lpoly", float d.lpoly);
        ("tox", float d.tox);
        ("nsub", float d.nsub);
        ("np_halo", float d.np_halo);
        ("xj", float d.xj);
        ("nsd", float d.nsd);
        ("overlap", float d.overlap);
        ("halo_depth_frac", float d.halo_depth_frac);
        ("halo_sigma_frac", float d.halo_sigma_frac);
        ("gate_doping", float d.gate_doping);
        ("temperature", float d.temperature) ])

type terminal = Source | Drain | Gate | Substrate

type boundary = Interior | Ohmic of terminal | Gate_surface | Reflecting

type t = {
  desc : description;
  mesh : Mesh.t;
  net_doping : Field.t;
  total_doping : Field.t;
  boundary : boundary array;
  bmask : Field.Mask.t;
  bulk_phi : Field.t;
  mobility_n : Field.t;
  mobility_p : Field.t;
  gate_potential_offset : float;
  x_channel_mid : float;
  ni : float;
  vt : float;
}

let mask_of_boundary = function
  | Interior -> Field.Mask.interior
  | Reflecting -> Field.Mask.reflecting
  | Gate_surface -> Field.Mask.gate_surface
  | Ohmic Source -> Field.Mask.ohmic_source
  | Ohmic Drain -> Field.Mask.ohmic_drain
  | Ohmic Gate -> Field.Mask.ohmic_gate
  | Ohmic Substrate -> Field.Mask.ohmic_substrate

(* Geometry layout along x:
     [0 .. w_contact]                      source ohmic contact (top surface)
     [w_contact .. x_g0]                   source spacer (reflecting top)
     [x_g0 .. x_g1]                        gate (Robin through oxide)
     [x_g1 .. x_total - w_contact]         drain spacer
     [x_total - w_contact .. x_total]      drain ohmic contact
   The S/D metallurgical edges sit [overlap] inside the gate edges. *)
let layout d =
  let w_contact = 1.2 *. d.xj in
  let w_spacer = Float.max (1.5 *. d.xj) (0.5 *. d.lpoly) in
  let x_g0 = w_contact +. w_spacer in
  let x_g1 = x_g0 +. d.lpoly in
  let x_total = x_g1 +. w_spacer +. w_contact in
  (w_contact, x_g0, x_g1, x_total)

let depth d = Float.max (6.0 *. d.xj) (Physics.Constants.nm 80.0)

let gate_span d =
  let _, x_g0, x_g1, _ = layout d in
  (x_g0, x_g1)

(* The mesh lines [build ?nx ?ny d] puts the structure on, with its
   guards: a function of the description and the requested counts alone,
   so a key can name the mesh without building the structure. *)
let lines ?(nx = 61) ?(ny = 41) d =
  if d.lpoly <= 0.0 || d.tox <= 0.0 then invalid_arg "Structure.build: bad dimensions";
  if d.nsub <= 0.0 || d.nsd <= 0.0 then invalid_arg "Structure.build: bad dopings";
  let _, x_g0, x_g1, x_total = layout d in
  let y_total = depth d in
  (* Lateral grid refined near both gate edges (where halos and junctions
     live); vertical grid refined at the surface. *)
  let h_min_x = Float.max (d.lpoly /. 24.0) (x_total /. float_of_int (8 * nx)) in
  let h_max_x = x_total /. 12.0 in
  let xs =
    Numerics.Grid.refined_around 0.0 x_total
      ~centers:[| x_g0; 0.5 *. (x_g0 +. x_g1); x_g1 |]
      ~h_min:h_min_x ~h_max:h_max_x
  in
  let h_min_y = Float.max (y_total /. float_of_int (10 * ny)) (Physics.Constants.nm 0.35) in
  let h_max_y = y_total /. 8.0 in
  let ys =
    Numerics.Grid.refined_around 0.0 y_total ~centers:[| 0.0; d.halo_depth_frac *. d.xj |]
      ~h_min:h_min_y ~h_max:h_max_y
  in
  (xs, ys)

(* Doping fields and boundaries are functions of the description and the
   mesh.  [build ?nx ?ny] uses the requested counts only as minimum
   spacings, so two requests can build meshes with the same line counts and
   different nodes: the key names the mesh by its coordinates. *)
let key_of_lines d ~xs ~ys =
  Exec.Key.(
    fields "tcad_structure"
      [ ("desc", description_key d);
        ("xs", floats xs);
        ("ys", floats ys) ])

let key dev = key_of_lines dev.desc ~xs:dev.mesh.Mesh.xs ~ys:dev.mesh.Mesh.ys

let key_for ?nx ?ny d =
  let xs, ys = lines ?nx ?ny d in
  key_of_lines d ~xs ~ys

let build ?nx ?ny d =
  let xs, ys = lines ?nx ?ny d in
  let w_contact, x_g0, x_g1, x_total = layout d in
  let mesh = Mesh.make ~xs ~ys in
  let n = Mesh.n_nodes mesh in
  (* Doping: uniform p substrate + two acceptor halos + donor S/D wells. *)
  let source_edge = x_g0 +. d.overlap in
  let drain_edge = x_g1 -. d.overlap in
  let lateral_sigma = 0.18 *. d.xj in
  let donors =
    Doping.sum
      [
        Doping.source_drain ~peak:d.nsd ~junction:source_edge ~side:`Source ~xj:d.xj
          ~background:d.nsub ~lateral_sigma;
        Doping.source_drain ~peak:d.nsd ~junction:drain_edge ~side:`Drain ~xj:d.xj
          ~background:d.nsub ~lateral_sigma;
      ]
  in
  let halo_y = d.halo_depth_frac *. d.xj in
  let halo_sigma = d.halo_sigma_frac *. d.xj in
  let acceptors =
    Doping.sum
      [
        Doping.uniform d.nsub;
        Doping.gaussian2d ~peak:d.np_halo ~x0:source_edge ~y0:halo_y ~sigma_x:halo_sigma
          ~sigma_y:halo_sigma;
        Doping.gaussian2d ~peak:d.np_halo ~x0:drain_edge ~y0:halo_y ~sigma_x:halo_sigma
          ~sigma_y:halo_sigma;
      ]
  in
  let net_doping = Field.create n in
  let total_doping = Field.create n in
  (* [donors]/[acceptors] above are written for the N-channel layout (donor
     wells in an acceptor body); a P-channel device is its exact mirror, so
     the net doping simply flips sign. *)
  let sign = match d.polarity with Nchannel -> 1.0 | Pchannel -> -1.0 in
  for k = 0 to n - 1 do
    let x, y = Mesh.coords mesh k in
    let nd = donors ~x ~y and na = acceptors ~x ~y in
    Field.set net_doping k (sign *. (nd -. na));
    Field.set total_doping k (nd +. na)
  done;
  (* Boundary classification. *)
  let boundary = Array.make n Interior in
  let nxm = mesh.Mesh.nx and nym = mesh.Mesh.ny in
  for ix = 0 to nxm - 1 do
    let x = xs.(ix) in
    (* Top surface. *)
    let k_top = Mesh.index mesh ~ix ~iy:0 in
    boundary.(k_top) <-
      (if x <= w_contact then Ohmic Source
       else if x >= x_total -. w_contact then Ohmic Drain
       else if x >= x_g0 && x <= x_g1 then Gate_surface
       else Reflecting);
    (* Bottom: substrate contact. *)
    boundary.(Mesh.index mesh ~ix ~iy:(nym - 1)) <- Ohmic Substrate
  done;
  for iy = 1 to nym - 2 do
    boundary.(Mesh.index mesh ~ix:0 ~iy) <- Reflecting;
    boundary.(Mesh.index mesh ~ix:(nxm - 1) ~iy) <- Reflecting
  done;
  let bmask = Field.Mask.create n in
  for k = 0 to n - 1 do
    Field.Mask.set bmask k (mask_of_boundary boundary.(k))
  done;
  (* Precomputed charge-neutral potentials: the equilibrium initial guess
     and the built-in part of every ohmic Dirichlet value. *)
  let bulk_phi =
    Field.init n (fun k ->
        Physics.Silicon.bulk_potential_of_net_doping ~t:d.temperature (Field.get net_doping k))
  in
  let mobility_n =
    Field.init n (fun k ->
        Physics.Mobility.channel ~t:d.temperature Physics.Mobility.Electron
          (Field.get total_doping k))
  in
  let mobility_p =
    Field.init n (fun k ->
        Physics.Mobility.channel ~t:d.temperature Physics.Mobility.Hole
          (Field.get total_doping k))
  in
  (* n+ poly for the N-channel device, p+ poly for the P-channel mirror. *)
  let gate_potential_offset =
    sign *. Physics.Silicon.fermi_potential ~t:d.temperature d.gate_doping
  in
  {
    desc = d;
    mesh;
    net_doping;
    total_doping;
    boundary;
    bmask;
    bulk_phi;
    mobility_n;
    mobility_p;
    gate_potential_offset;
    x_channel_mid = 0.5 *. (x_g0 +. x_g1);
    ni = Physics.Silicon.intrinsic_density d.temperature;
    vt = Physics.Constants.thermal_voltage d.temperature;
  }

let effective_channel_length dev =
  let mesh = dev.mesh in
  let nxm = mesh.Mesh.nx in
  (* Walk the surface row, find sign changes of net doping. *)
  let sign_changes = ref [] in
  for ix = 0 to nxm - 2 do
    let k0 = Mesh.index mesh ~ix ~iy:0 in
    let k1 = Mesh.index mesh ~ix:(ix + 1) ~iy:0 in
    let d0 = Field.get dev.net_doping k0 and d1 = Field.get dev.net_doping k1 in
    if d0 *. d1 < 0.0 then begin
      let t = d0 /. (d0 -. d1) in
      let x = mesh.Mesh.xs.(ix) +. (t *. (mesh.Mesh.xs.(ix + 1) -. mesh.Mesh.xs.(ix))) in
      sign_changes := x :: !sign_changes
    end
  done;
  match List.rev !sign_changes with
  | x_left :: rest ->
    let x_right = List.fold_left (fun _ x -> x) x_left rest in
    x_right -. x_left
  | [] -> 0.0
