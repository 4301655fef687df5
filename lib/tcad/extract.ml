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

(* Warm-started continuation step: speculatively jump straight from
   [prev] — the previous bias point's state, or its extrapolation — to
   [target] (no ramping), leaving the result
   in the scratch, since the sweep keeps only its drain current and the next
   jump's start.  If the jump fails to converge, fall back to a cold start —
   a fresh ramp from the sweep's equilibrium [anchor] with the full
   iteration budget — and count the fallback so sweeps that silently
   degrade to cold solves show up in the metrics.  [max_warm_gummel] bounds
   only the speculative attempt. *)
let advance ?tol ?max_gummel ?max_warm_gummel ~scratch ~anchor dev prev target =
  let warm_budget = match max_warm_gummel with Some _ as b -> b | None -> max_gummel in
  match
    Gummel.continue_at ?tol ?max_gummel:warm_budget ~quiet:true ~scratch dev ~from:prev target
  with
  | s ->
    Obs.Metrics.incr warm_start_counter;
    s
  | exception Gummel.No_convergence _ ->
    Obs.Metrics.incr warm_fallback_counter;
    Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:anchor target

(* The terminal a sweep steps; the other one holds the sweep's fixed bias. *)
type terminal = Gate | Drain

let sweep_name = function Gate -> "Extract.id_vg" | Drain -> "Extract.id_vd"

let check_points terminal points =
  if points < 2 then
    invalid_arg (Printf.sprintf "%s: points = %d, need >= 2" (sweep_name terminal) points)

let check_grid terminal grid =
  check_points terminal (Array.length grid);
  let label = match terminal with Gate -> "vgs" | Drain -> "vds" in
  for i = 0 to Array.length grid - 2 do
    if grid.(i + 1) <= grid.(i) then
      invalid_arg
        (Printf.sprintf "%s: %s.(%d) = %g >= %s.(%d) = %g, grid must be strictly increasing"
           (sweep_name terminal) label i grid.(i) label (i + 1) grid.(i + 1))
  done

(* The one sweep core: drain currents over a strictly increasing [grid] of
   the swept terminal, the other terminal held at [fixed].  [anchor] is the
   equilibrium state cold starts ramp from; [seed] is the state warm
   continuation enters the sweep plane from (the anchor for a standalone
   sweep, the previous plane's entry state inside [characterize]).
   [stop ids n] is asked after each solved point from the second on, with
   [ids]'s first [n] entries solved: [true] ends the sweep there, so the
   currents returned are a prefix of the grid's, at least 2 long.
   Returns the currents and the entry state so the next plane can
   continue from it. *)
let sweep_plane terminal ~warm ?tol ?max_gummel ?max_warm_gummel ~stop ~scratch ~anchor ~seed
    dev ~fixed grid =
  let points = Array.length grid in
  let sign = sign_of dev in
  let span, held, held_bias =
    match terminal with
    | Gate -> ("extract.id_vg", "vd", { Poisson.zero_bias with Poisson.drain = sign *. fixed })
    | Drain -> ("extract.id_vd", "vg", { Poisson.zero_bias with Poisson.gate = sign *. fixed })
  in
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:[ (held, Obs.Trace.F fixed); ("points", Obs.Trace.I points) ]
    span
  @@ fun () ->
  let at (biases : Poisson.biases) v =
    match terminal with
    | Gate -> { biases with Poisson.gate = sign *. v }
    | Drain -> { biases with Poisson.drain = sign *. v }
  in
  let first_target = at held_bias grid.(0) in
  let ids = Array.make points 0.0 in
  (* Plane entry: ramped continuation from the seed state (which is the
     plain cold start when [seed = anchor]). *)
  let start =
    Gummel.solve_at ?tol ?max_gummel ~scratch dev
      ~from:(if warm then seed else anchor)
      first_target
  in
  (* [solve i] fills [ids.(i)], the points before it already solved. *)
  let solve =
    if warm then begin
      ids.(0) <- start.Gummel.drain_current;
      Poisson.forget scratch;
      Gummel.remember scratch ~at:grid.(0) start;
      let state = ref start in
      fun i ->
        let from = Gummel.predict scratch dev ~from:!state ~at:grid.(i) in
        state :=
          advance ?tol ?max_gummel ?max_warm_gummel ~scratch ~anchor dev from
            (at !state.Gummel.biases grid.(i));
        Gummel.remember scratch ~at:grid.(i) !state;
        ids.(i) <- !state.Gummel.drain_current
    end
    else begin
      (* Cold reference path: every point restarts from equilibrium. *)
      let cold i =
        let target = at first_target grid.(i) in
        let s = Gummel.solve_at ?tol ?max_gummel ~scratch dev ~from:anchor target in
        ids.(i) <- s.Gummel.drain_current
      in
      cold 0;
      cold
    end
  in
  solve 1;
  let solved = ref 2 in
  while !solved < points && not (stop ids !solved) do
    solve !solved;
    incr solved
  done;
  ((if !solved = points then ids else Array.sub ids 0 !solved), start)

(* A standalone sweep: its grid checked before any solve, one equilibrium
   as both anchor and seed, every grid point solved. *)
let sweep terminal ~warm ?tol ?max_gummel ?max_warm_gummel dev ~fixed grid =
  check_grid terminal grid;
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  fst
    (sweep_plane terminal ~warm ?tol ?max_gummel ?max_warm_gummel
       ~stop:(fun _ _ -> false)
       ~scratch ~anchor:eq ~seed:eq dev ~fixed grid)

(* The [points] guard runs before [linspace] so the caller sees the
   offending value instead of linspace's own error. *)
let id_vg ?(vg_min = 0.0) ?(vg_max = 0.9) ?(points = 19) ?(warm = true) ?tol ?max_gummel
    ?max_warm_gummel dev ~vd =
  check_points Gate points;
  let vgs = Numerics.Vec.linspace vg_min vg_max points in
  { vd; vgs; ids = sweep Gate ~warm ?tol ?max_gummel ?max_warm_gummel dev ~fixed:vd vgs }

let id_vg_at dev ~vd ~vgs =
  let vgs = Array.copy vgs in
  { vd; vgs; ids = sweep Gate ~warm:true dev ~fixed:vd vgs }

(* Output characteristic: sweep the drain at fixed gate bias. *)
type output_sweep = { vg : float; vds : Numerics.Vec.t; ids : Numerics.Vec.t }

let id_vd ?(vd_min = 0.0) ?(vd_max = 0.6) ?(points = 13) ?(warm = true) ?tol ?max_gummel dev
    ~vg =
  check_points Drain points;
  if vd_min >= vd_max then
    invalid_arg
      (Printf.sprintf "Extract.id_vd: vd_min = %g, vd_max = %g, need vd_min < vd_max"
         vd_min vd_max);
  let vds = Numerics.Vec.linspace vd_min vd_max points in
  { vg; vds; ids = sweep Drain ~warm ?tol ?max_gummel dev ~fixed:vg vds }

let log10 x = log x /. log 10.0

(* The subthreshold-slope window over the first [n] currents of [ids]: a
   2.5-decade band starting a factor of 3 above the lowest of them, which
   sits safely inside weak inversion whatever the absolute current level
   of the device. *)
let slope_window ids n =
  let i_min = ref infinity in
  for i = 0 to n - 1 do
    i_min := Float.min !i_min ids.(i)
  done;
  let i_lo = 3.0 *. !i_min in
  (i_lo, i_lo *. (10.0 ** 2.5))

(* The constant-current V_th criterion: 0.1 A/m, i.e. 100 nA/um. *)
let vth_current = 1e-1

let subthreshold_slope (sweep : sweep) =
  let i_lo, i_hi = slope_window sweep.ids (Array.length sweep.ids) in
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
  let target = log10 vth_current in
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

(* A characterization is three Id-Vg planes — a few dozen warm jumps and
   ramped Gummel solves on a mesh — and depends only on the device
   description and the supply, so two sweep points sharing a device solve
   the TCAD system exactly once. *)
let characterize_memo : characteristics Exec.Memo.t =
  Exec.Memo.create ~name:"tcad.characterize" ()

let characterize ?(vdd = 0.9) dev =
  Obs.Trace.with_span ~cat:"tcad" ~attrs:[ ("vdd", Obs.Trace.F vdd) ] "extract.characterize"
  @@ fun () ->
  let scratch = Poisson.make_scratch dev in
  let eq = Gummel.equilibrium ~scratch dev in
  let vg_max = Float.max vdd 0.9 in
  let vgs = Numerics.Vec.linspace 0.0 vg_max 19 in
  (* Each plane stops at the first solved point past what its readers
     need.  They then see the same S_S window, first V_th crossing and
     interpolation interval as on the whole grid, so every figure keeps
     its bits on one premise: a plane's current keeps rising past its
     stop.  It does on every shipped device, whose characterizations
     test/golden/tcad_serve_bits.txt pins (DESIGN.md, invariant 5). *)
  let above_vth ids n = ids.(n - 1) > vth_current in
  let stop_lin ids n = above_vth ids n && ids.(n - 1) > snd (slope_window ids n) in
  let stop_sub _ n = vgs.(n - 1) > 0.25 in
  (* One equilibrium serves all three Vd planes; each plane's entry state
     continues from the previous plane's, in ascending drain bias. *)
  let plane ~seed ~stop vd =
    let ids, entry =
      sweep_plane Gate ~warm:true ~stop ~scratch ~anchor:eq ~seed dev ~fixed:vd vgs
    in
    ({ vd; vgs = Array.sub vgs 0 (Array.length ids); ids }, entry)
  in
  let sweep_lin, entry_lin = plane ~seed:eq ~stop:stop_lin 0.05 in
  let sweep_sub, entry_sub = plane ~seed:entry_lin ~stop:stop_sub 0.25 in
  let sweep_sat, _ = plane ~seed:entry_sub ~stop:above_vth vdd in
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

(* The key names the structure by its description and mesh lines
   ([Structure.key_for], the same string as [Structure.key] of the built
   structure), so a hit builds nothing: only a miss pays for the doping
   fields, boundaries and mobilities. *)
let characterize_key ?nx ?ny ?(vdd = 0.9) desc =
  Exec.Key.(
    fields "characterize_mesh" [ ("dev", Structure.key_for ?nx ?ny desc); ("vdd", float vdd) ])

(* The serve daemon's name for a sweep: the table once lived in the
   server, and its records keep the prefix. *)
let sweep_key ?nx ?ny desc ~vd vgs =
  Exec.Key.(
    fields "serve.idvg_mesh"
      [ ("dev", Structure.key_for ?nx ?ny desc);
        ("vd", float vd);
        ("vgs", floats ~bracketed:false vgs) ])

(* --- persistent-tier codecs -------------------------------------------

   Fixed-layout float vectors through Store.floats_codec, with a version
   tag so a record written by an older layout decodes as a miss instead
   of a shifted field.  Every float crosses the boundary as its IEEE-754
   bits, so restarted daemons answer bit-identically to the cold
   compute. *)

module Store = Exec.Store

let characteristics_codec : characteristics Store.codec =
  let floats = Store.tagged "chars/1" Store.floats_codec in
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
  let floats = Store.tagged "sweep/1" Store.floats_codec in
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
