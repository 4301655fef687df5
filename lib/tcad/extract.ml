type sweep = { vd : float; vgs : Numerics.Vec.t; ids : Numerics.Vec.t }

let warm_start_counter = Obs.Metrics.counter "tcad.extract.warm_start"
let warm_fallback_counter = Obs.Metrics.counter "tcad.extract.warm_fallback"

(* Magnitude-based sweeps: for a P-channel device the applied gate and drain
   biases are negated internally, so callers reason in |V| for both
   polarities (the convention of every plot in the paper). *)
let sign_of dev =
  match dev.Structure.desc.Structure.polarity with
  | Structure.Nchannel -> 1.0
  | Structure.Pchannel -> -1.0

(* Warm-started continuation step: speculatively jump straight from the
   previous bias point's state to [target] (no ramping).  If the jump fails
   to converge, fall back to a cold start — a fresh ramp from the sweep's
   equilibrium [anchor] with the full iteration budget — and count the
   fallback so sweeps that silently degrade to cold solves show up in the
   metrics.  [max_warm_gummel] bounds only the speculative attempt. *)
let advance ?tol ?max_gummel ?max_warm_gummel ~warm ~scratch ~anchor dev prev target =
  if not warm then Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:anchor target
  else begin
    let warm_budget = match max_warm_gummel with Some _ as b -> b | None -> max_gummel in
    match
      Gummel.gummel_at ?tol ?max_gummel:warm_budget ~quiet:true ~scratch dev ~from:prev target
    with
    | s ->
      Obs.Metrics.incr warm_start_counter;
      s
    | exception Gummel.No_convergence _ ->
      Obs.Metrics.incr warm_fallback_counter;
      Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:anchor target
  end

(* Shared Id-Vg core over an arbitrary strictly-increasing gate grid.
   [anchor] is the equilibrium state cold starts ramp from; [seed] is the
   state warm continuation enters the sweep plane from (the anchor for a
   standalone sweep, the previous plane's entry state inside
   [characterize]).  Returns the sweep and the entry state so the next Vd
   plane can continue from it. *)
let check_grid vgs =
  let points = Array.length vgs in
  if points < 2 then
    invalid_arg (Printf.sprintf "Extract.id_vg: points = %d, need >= 2" points);
  for i = 0 to points - 2 do
    if vgs.(i + 1) <= vgs.(i) then
      invalid_arg
        (Printf.sprintf "Extract.id_vg: vgs.(%d) = %g >= vgs.(%d) = %g, grid must be strictly increasing"
           i vgs.(i) (i + 1) vgs.(i + 1))
  done

let id_vg_on ~vgs ~warm ?tol ?max_gummel ?max_warm_gummel ~scratch ~anchor ~seed dev ~vd
    =
  check_grid vgs;
  let points = Array.length vgs in
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:[ ("vd", Obs.Trace.F vd); ("points", Obs.Trace.I points) ]
    "extract.id_vg"
  @@ fun () ->
  let sign = sign_of dev in
  let ids = Array.make points 0.0 in
  let first_target =
    { Poisson.zero_bias with Poisson.drain = sign *. vd; gate = sign *. vgs.(0) }
  in
  (* Plane entry: ramped continuation from the seed state (which is the
     plain cold start when [seed = anchor]). *)
  let start =
    Gummel.solve_at ?tol ?max_gummel ~scratch dev
      ~from:(if warm then seed else anchor)
      first_target
  in
  if warm then begin
    ids.(0) <- start.Gummel.drain_current;
    let state = ref start in
    for i = 1 to points - 1 do
      let target = { !state.Gummel.biases with Poisson.gate = sign *. vgs.(i) } in
      state :=
        advance ?tol ?max_gummel ?max_warm_gummel ~warm ~scratch ~anchor dev !state target;
      ids.(i) <- !state.Gummel.drain_current
    done
  end
  else
    (* Cold reference path: every point restarts from equilibrium. *)
    for i = 0 to points - 1 do
      let target = { first_target with Poisson.gate = sign *. vgs.(i) } in
      let s = Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:anchor target in
      ids.(i) <- s.Gummel.drain_current
    done;
  ({ vd; vgs; ids }, start)

(* Linspace convenience over the arbitrary-grid core; the [points] guard
   runs before [linspace] so the caller sees the offending value instead
   of a degenerate step division. *)
let id_vg_from ~vg_min ~vg_max ~points ~warm ?tol ?max_gummel ?max_warm_gummel ~scratch
    ~anchor ~seed dev ~vd =
  if points < 2 then
    invalid_arg (Printf.sprintf "Extract.id_vg: points = %d, need >= 2" points);
  let vgs = Numerics.Vec.linspace vg_min vg_max points in
  id_vg_on ~vgs ~warm ?tol ?max_gummel ?max_warm_gummel ~scratch ~anchor ~seed dev ~vd

let id_vg ?(vg_min = 0.0) ?(vg_max = 0.9) ?(points = 19) ?(warm = true) ?tol ?max_gummel
    ?max_warm_gummel dev ~vd =
  if points < 2 then
    invalid_arg (Printf.sprintf "Extract.id_vg: points = %d, need >= 2" points);
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  fst
    (id_vg_from ~vg_min ~vg_max ~points ~warm ?tol ?max_gummel ?max_warm_gummel ~scratch
       ~anchor:eq ~seed:eq dev ~vd)

let id_vg_at ?tol ?max_gummel dev ~vd ~vgs =
  check_grid vgs;
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  fst
    (id_vg_on ~vgs:(Array.copy vgs) ~warm:true ?tol ?max_gummel ~scratch
       ~anchor:eq ~seed:eq dev ~vd)

(* Output characteristic: sweep the drain at fixed gate bias. *)
type output_sweep = { vg : float; vds : Numerics.Vec.t; ids : Numerics.Vec.t }

let id_vd ?(vd_min = 0.0) ?(vd_max = 0.6) ?(points = 13) ?(warm = true) ?tol ?max_gummel dev
    ~vg =
  if points < 2 then
    invalid_arg (Printf.sprintf "Extract.id_vd: points = %d, need >= 2" points);
  if vd_min >= vd_max then
    invalid_arg
      (Printf.sprintf "Extract.id_vd: vd_min = %g, vd_max = %g, need vd_min < vd_max"
         vd_min vd_max);
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:[ ("vg", Obs.Trace.F vg); ("points", Obs.Trace.I points) ]
    "extract.id_vd"
  @@ fun () ->
  let sign = sign_of dev in
  let vds = Numerics.Vec.linspace vd_min vd_max points in
  let ids = Array.make points 0.0 in
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  let first_target =
    { Poisson.zero_bias with Poisson.gate = sign *. vg; drain = sign *. vd_min }
  in
  let start = Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:eq first_target in
  if warm then begin
    ids.(0) <- start.Gummel.drain_current;
    let state = ref start in
    for i = 1 to points - 1 do
      let target = { !state.Gummel.biases with Poisson.drain = sign *. vds.(i) } in
      state :=
        advance ?tol ?max_gummel ~warm ~scratch ~anchor:eq dev !state target;
      ids.(i) <- !state.Gummel.drain_current
    done
  end
  else
    for i = 0 to points - 1 do
      let target = { first_target with Poisson.drain = sign *. vds.(i) } in
      let s = Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:eq target in
      ids.(i) <- s.Gummel.drain_current
    done;
  { vg; vds; ids }

(* Gate charge per metre of width: the oxide field integrated over the gate
   footprint. *)
let gate_charge dev (state : Gummel.state) =
  let mesh = dev.Structure.mesh in
  let cox = Physics.Constants.eps_ox /. dev.Structure.desc.Structure.tox in
  let gate_pot =
    state.Gummel.biases.Poisson.gate +. dev.Structure.gate_potential_offset
  in
  let total = ref 0.0 in
  for ix = 0 to mesh.Mesh.nx - 1 do
    let k = Mesh.index mesh ~ix ~iy:0 in
    match dev.Structure.boundary.(k) with
    | Structure.Gate_surface ->
      total :=
        !total
        +. (cox *. (gate_pot -. Field.get state.Gummel.psi k) *. Mesh.dual_width_x mesh ix)
    | Structure.Interior | Structure.Reflecting | Structure.Ohmic _ -> ()
  done;
  !total

let gate_capacitance dev ~vg ~vd =
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:[ ("vg", Obs.Trace.F vg); ("vd", Obs.Trace.F vd) ]
    "extract.gate_capacitance"
  @@ fun () ->
  let dv = 5e-3 in
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  let s_hi =
    Gummel.solve_at ~scratch dev ~from:eq
      { Poisson.zero_bias with Poisson.drain = vd; gate = vg +. dv }
  in
  (* The second bias point is 2 dv away: a warm jump from the first. *)
  let s_lo =
    advance ~warm:true ~scratch ~anchor:eq dev s_hi
      { s_hi.Gummel.biases with Poisson.gate = vg -. dv }
  in
  (gate_charge dev s_hi -. gate_charge dev s_lo) /. (2.0 *. dv)

type cut = {
  positions : Numerics.Vec.t;
  psi : Numerics.Vec.t;
  n : Numerics.Vec.t;
  p : Numerics.Vec.t;
  net_doping : Numerics.Vec.t;
}

let vertical_cut dev (state : Gummel.state) ~x =
  let mesh = dev.Structure.mesh in
  let ix = Mesh.find_ix mesh x in
  let ny = mesh.Mesh.ny in
  let take field = Array.init ny (fun iy -> Field.get field ((ix * ny) + iy)) in
  {
    positions = Array.copy mesh.Mesh.ys;
    psi = take state.Gummel.psi;
    n = take state.Gummel.n;
    p = take state.Gummel.p;
    net_doping = take dev.Structure.net_doping;
  }

let log10 x = log x /. log 10.0

let subthreshold_slope ?i_lo ?i_hi (sweep : sweep) =
  (* Default window: a 2.5-decade band starting a factor of 3 above the
     lowest simulated current, which sits safely inside weak inversion
     whatever the absolute current level of the device. *)
  let i_min = Array.fold_left Float.min infinity sweep.ids in
  let i_lo = match i_lo with Some v -> v | None -> 3.0 *. i_min in
  let i_hi = match i_hi with Some v -> v | None -> i_lo *. (10.0 ** 2.5) in
  let pairs =
    Array.to_list (Array.mapi (fun i vg -> (vg, sweep.ids.(i))) sweep.vgs)
    |> List.filter (fun (_, id) -> id >= i_lo && id <= i_hi)
  in
  if List.length pairs < 3 then
    failwith
      (Printf.sprintf "Extract.subthreshold_slope: only %d points in window [%g, %g] A/m"
         (List.length pairs) i_lo i_hi);
  let vgs = Array.of_list (List.map fst pairs) in
  let logs = Array.of_list (List.map (fun (_, id) -> log10 id) pairs) in
  let slope, _ = Numerics.Stats.linear_regression logs vgs in
  slope

let current_at (sweep : sweep) vg =
  let logs = Array.map (fun id -> log10 (Float.max id 1e-300)) sweep.ids in
  10.0 ** Numerics.Interp.linear sweep.vgs logs vg

let threshold_voltage (sweep : sweep) =
  (* The constant-current criterion: 0.1 A/m, i.e. 100 nA/um. *)
  let target = log10 1e-1 in
  let logs = Array.map (fun id -> log10 (Float.max id 1e-300)) sweep.ids in
  match Numerics.Interp.crossings sweep.vgs logs target with
  | v :: _ -> v
  | [] -> failwith "Extract.threshold_voltage: criterion outside the swept range"

let dibl ~low ~high =
  let vth_low = threshold_voltage low and vth_high = threshold_voltage high in
  (vth_low -. vth_high) /. (high.vd -. low.vd)

type characteristics = {
  ss : float;
  vth_lin : float;
  vth_sat : float;
  dibl : float;
  ioff : float;
  ion_sub : float;
  on_off_ratio_sub : float;
  leff : float;
}

(* A full characterization is three Id-Vg sweeps — dozens of ramped Gummel
   solves — and depends only on the device description and the supply, so
   two sweep points sharing a device solve the TCAD system exactly once. *)
let characterize_memo : characteristics Exec.Memo.t =
  Exec.Memo.create ~name:"tcad.characterize" ()

let characterize ?(vdd = 0.9) dev =
  Obs.Trace.with_span ~cat:"tcad" ~attrs:[ ("vdd", Obs.Trace.F vdd) ] "extract.characterize"
  @@ fun () ->
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  let vg_max = Float.max vdd 0.9 in
  let plane = id_vg_from ~vg_min:0.0 ~vg_max ~points:19 ~warm:true ~scratch ~anchor:eq dev in
  (* One equilibrium serves all three Vd planes; each plane's entry state
     continues from the previous plane's, in ascending drain bias. *)
  let sweep_lin, entry_lin = plane ~seed:eq ~vd:0.05 in
  let sweep_sub, entry_sub = plane ~seed:entry_lin ~vd:0.25 in
  let sweep_sat, _ = plane ~seed:entry_sub ~vd:vdd in
  let ss = subthreshold_slope sweep_lin in
  let vth_lin = threshold_voltage sweep_lin in
  let vth_sat = threshold_voltage sweep_sat in
  let ioff = current_at sweep_sat 0.0 in
  let ion_sub = current_at sweep_sub 0.25 in
  let ioff_sub = current_at sweep_sub 0.0 in
  {
    ss;
    vth_lin;
    vth_sat;
    dibl = dibl ~low:sweep_lin ~high:sweep_sat;
    ioff;
    ion_sub;
    on_off_ratio_sub = ion_sub /. Float.max ioff_sub 1e-300;
    leff = Structure.effective_channel_length dev;
  }

let characterize_cached ?(vdd = 0.9) dev =
  (* The mesh dimensions are part of the key: [Structure.build] accepts
     resolution overrides, and a coarser solve is a different result. *)
  let key =
    Exec.Key.(
      fields "characterize"
        [ ("desc", Structure.description_key dev.Structure.desc);
          ("nx", int dev.Structure.mesh.Mesh.nx);
          ("ny", int dev.Structure.mesh.Mesh.ny);
          ("vdd", float vdd) ])
  in
  Exec.Memo.find_or_compute characterize_memo ~key (fun () -> characterize ~vdd dev)

(* --- persistent-tier codecs -------------------------------------------

   Fixed-layout float vectors through Store.floats_codec, with a version
   tag so a record written by an older layout decodes as a miss instead
   of a shifted field.  Every float crosses the boundary as its IEEE-754
   bits, so restarted daemons answer bit-identically to the cold
   compute. *)

module Store = Exec.Store

let tagged tag (codec : float array Store.codec) =
  {
    Store.encode = (fun a -> tag ^ ":" ^ codec.Store.encode a);
    decode =
      (fun s ->
        let tl = String.length tag in
        if String.length s > tl + 1 && String.sub s 0 tl = tag && s.[tl] = ':' then
          codec.Store.decode (String.sub s (tl + 1) (String.length s - tl - 1))
        else None);
  }

let characteristics_codec : characteristics Store.codec =
  let floats = tagged "chars/1" Store.floats_codec in
  {
    Store.encode =
      (fun c ->
        floats.Store.encode
          [| c.ss; c.vth_lin; c.vth_sat; c.dibl; c.ioff; c.ion_sub;
             c.on_off_ratio_sub; c.leff |]);
    decode =
      (fun s ->
        match floats.Store.decode s with
        | Some [| ss; vth_lin; vth_sat; dibl; ioff; ion_sub; on_off_ratio_sub; leff |] ->
          Some { ss; vth_lin; vth_sat; dibl; ioff; ion_sub; on_off_ratio_sub; leff }
        | Some _ | None -> None);
  }

let sweep_codec : sweep Store.codec =
  let floats = tagged "sweep/1" Store.floats_codec in
  {
    Store.encode =
      (fun s ->
        let n = Array.length s.vgs in
        floats.Store.encode
          (Array.init ((2 * n) + 1) (fun i ->
               if i = 0 then s.vd
               else if i <= n then s.vgs.(i - 1)
               else s.ids.(i - n - 1))));
    decode =
      (fun text ->
        match floats.Store.decode text with
        | Some a when Array.length a >= 3 && (Array.length a - 1) mod 2 = 0 ->
          let n = (Array.length a - 1) / 2 in
          Some
            {
              vd = a.(0);
              vgs = Array.sub a 1 n;
              ids = Array.sub a (n + 1) n;
            }
        | Some _ | None -> None);
  }
