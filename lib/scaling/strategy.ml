type kind = Super_vth | Sub_vth

let kind_name = function Super_vth -> "super-Vth" | Sub_vth -> "sub-Vth"

(* The one strategy-name table: the CLI's --strategy, the daemon's
   "strategy" field, memo keys and trace attributes all read it. *)
let keys = [ (Super_vth, "super"); (Sub_vth, "sub") ]

let kinds = List.map fst keys

let kind_key kind = List.assoc kind keys

let kind_of_key s = List.find_map (fun (k, name) -> if name = s then Some k else None) keys

(* A selection is a pure function of the strategy, the node and the model
   calibration both strategies select under (the default one), so that
   triple keys it: a repeated query costs one key and one lookup instead
   of a doping fit or a walk over the sub-V_th L_poly grid.  The
   calibration's part of the key is rendered once.  Both tables keyed by
   [selection_key] hold at most one entry per (kind, node): 2 x 5. *)
let default_calibration_key = Device.Params.calibration_key Device.Params.default_calibration

let selection_key kind node =
  Exec.Key.fields "select"
    [ ("kind", kind_key kind); ("node", Roadmap.node_key node); ("cal", default_calibration_key) ]

let select_memo : (Device.Params.physical * Circuits.Inverter.pair) Exec.Memo.t =
  Exec.Memo.create ~name:"scaling.select" ()

(* The persistent tier's layout of a selection: the physical parameters
   alone, each float as its IEEE-754 bits and each optional length behind
   a 0/1 presence flag.  Decoding rebuilds the pair with the call both
   strategies select with, so a restarted daemon's pair is bit-identical
   to the computed one. *)
let selection_codec : (Device.Params.physical * Circuits.Inverter.pair) Exec.Store.codec =
  let floats = Exec.Store.tagged "select/1" Exec.Store.floats_codec in
  let opt = function None -> [| 0.0; 0.0 |] | Some x -> [| 1.0; x |] in
  let of_opt flag x =
    if Float.equal flag 0.0 then Some None else if Float.equal flag 1.0 then Some (Some x) else None
  in
  {
    Exec.Store.encode =
      (fun ((p : Device.Params.physical), _) ->
        floats.Exec.Store.encode
          (Array.concat
             [ [| float_of_int p.node_nm; p.lpoly; p.tox; p.nsub; p.np_halo; p.vdd |];
               opt p.xj;
               opt p.overlap ]));
    decode =
      (fun s ->
        match floats.Exec.Store.decode s with
        | Some [| nm; lpoly; tox; nsub; np_halo; vdd; xj_flag; xj; ov_flag; ov |]
          when Float.is_integer nm -> (
          match (of_opt xj_flag xj, of_opt ov_flag ov) with
          | Some xj, Some overlap ->
            let phys =
              { Device.Params.node_nm = int_of_float nm; lpoly; tox; nsub; np_halo; vdd; xj; overlap }
            in
            Some (phys, Circuits.Inverter.pair_of_physical ~cal:Device.Params.default_calibration phys)
          | _ -> None)
        | Some _ | None -> None);
  }

let select kind node =
  Exec.Memo.find_or_compute select_memo ~key:(selection_key kind node) (fun () ->
      match kind with
      | Super_vth ->
        let s = Super_vth.select_node node in
        (s.Super_vth.phys, s.Super_vth.pair)
      | Sub_vth ->
        let s = Sub_vth.select_node node in
        (s.Sub_vth.phys, s.Sub_vth.pair))

let resolve ~node ~strategy =
  match Roadmap.find node with
  | exception Not_found ->
    Error
      (Printf.sprintf "unknown node %d (known: %s)" node
         (String.concat ", "
            (List.map (fun n -> string_of_int n.Roadmap.nm) Roadmap.nodes_with_130)))
  | n -> (
    match kind_of_key strategy with
    | None ->
      Error
        (Printf.sprintf "unknown strategy %S (%s)" strategy
           (String.concat " or " (List.map snd keys)))
    | Some kind ->
      let phys, pair = select kind n in
      Ok (n, kind, phys, pair))

type evaluation = {
  kind : kind;
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  ss : float;
  vth_sat : float;
  ioff_nominal : float;
  ion_sub : float;
  on_off_sub : float;
  snm_sub : float;
  delay_sub : float;
  energy_factor : float;
  delay_factor : float;
  vmin : float;
  energy_at_vmin : float;
}

let sub_vdd = 0.25

(* A full evaluation is the expensive half of every sweep point: a SPICE
   VTC + SNM solve and the V_min energy search.  It is a pure function of
   the selected device, so it shares the selection's key, and experiments
   sharing a node share the solve. *)
let evaluate_memo : evaluation Exec.Memo.t = Exec.Memo.create ~name:"scaling.evaluate" ()

(* The full identifying inputs of an evaluation, parameters and compact
   pair included, for the fingerprint the audit compares. *)
let evaluation_key kind node (phys : Device.Params.physical)
    (pair : Circuits.Inverter.pair) =
  Exec.Key.fields "evaluate"
    [ ("kind", kind_key kind);
      ("node", Roadmap.node_key node);
      ("phys", Device.Params.physical_key phys);
      ("nfet", Device.Compact.key pair.Circuits.Inverter.nfet);
      ("pfet", Device.Compact.key pair.Circuits.Inverter.pfet) ]

let evaluate_uncached kind node phys pair =
  Obs.Trace.with_span ~cat:"scaling"
    ~attrs:[ ("kind", Obs.Trace.S (kind_key kind)); ("node_nm", Obs.Trace.I node.Roadmap.nm) ]
    "strategy.evaluate"
  @@ fun () ->
  let sizing = Circuits.Inverter.balanced_sizing () in
  let nfet = pair.Circuits.Inverter.nfet in
  (* The SPICE engine's VTC carries the DIBL-driven output-conductance loss
     that dominates the SNM scaling trend; the analytic Eq. 3 route treats
     V_th as bias-independent and misses most of it. *)
  let snm =
    match Analysis.Snm.inverter ~engine:`Spice pair ~sizing ~vdd:sub_vdd with
    | margins -> margins.Analysis.Snm.snm
    | exception Failure _ -> 0.0
  in
  let vmin_result = Analysis.Energy.vmin ~sizing pair in
  {
    kind;
    node;
    phys;
    pair;
    ss = nfet.Device.Compact.ss;
    vth_sat = Device.Iv_model.threshold_const_current nfet ~vds:node.Roadmap.vdd;
    ioff_nominal = Device.Iv_model.ioff nfet ~vdd:node.Roadmap.vdd;
    ion_sub = Device.Iv_model.ion nfet ~vdd:sub_vdd;
    on_off_sub = Device.Iv_model.on_off_ratio nfet ~vdd:sub_vdd;
    snm_sub = snm;
    delay_sub = Analysis.Delay.eq5 pair ~sizing ~vdd:sub_vdd;
    energy_factor = Analysis.Metrics.energy_factor pair ~sizing;
    delay_factor = Analysis.Metrics.delay_factor ~ioff_vdd:sub_vdd pair ~sizing;
    vmin = vmin_result.Analysis.Energy.vmin;
    energy_at_vmin = vmin_result.Analysis.Energy.e_min;
  }

(* Bit-exact content fingerprint of an evaluation, for the audit's
   schedule-perturbation diff: two fingerprints are equal iff every float
   field carries the same IEEE-754 bits.  The embedded evaluation_key
   covers the identifying inputs (kind/node/parameters). *)
let evaluation_fingerprint (e : evaluation) =
  Exec.Key.(
    fields "evaluation"
      [ ("id", evaluation_key e.kind e.node e.phys e.pair);
        ("ss", float e.ss);
        ("vth_sat", float e.vth_sat);
        ("ioff_nominal", float e.ioff_nominal);
        ("ion_sub", float e.ion_sub);
        ("on_off_sub", float e.on_off_sub);
        ("snm_sub", float e.snm_sub);
        ("delay_sub", float e.delay_sub);
        ("energy_factor", float e.energy_factor);
        ("delay_factor", float e.delay_factor);
        ("vmin", float e.vmin);
        ("energy_at_vmin", float e.energy_at_vmin) ])

let evaluate kind node =
  Exec.Memo.find_or_compute evaluate_memo ~key:(selection_key kind node) (fun () ->
      let phys, pair = select kind node in
      evaluate_uncached kind node phys pair)

let trajectory ?(with_130 = false) kind =
  let nodes = if with_130 then Roadmap.nodes_with_130 else Roadmap.nodes in
  Exec.map (evaluate kind) nodes
