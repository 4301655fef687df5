type physical = {
  node_nm : int;
  lpoly : float;
  tox : float;
  nsub : float;
  np_halo : float;
  vdd : float;
  xj : float option;
  overlap : float option;
}

type calibration = {
  xj_fraction : float;
  overlap_fraction : float;
  k_halo : float;
  k_body : float;
  k_sce : float;
  k_lambda : float;
  lambda_xj_exp : float;
  halo_sce_exp : float;
  ss_offset : float;
  k_vth_sce : float;
  k_dibl : float;
  vth_offset : float;
  mu_factor : float;
  fringe_cap : float;
  load_factor : float;
}

let default_calibration =
  {
    xj_fraction = 0.35;
    overlap_fraction = 0.12;
    k_halo = 0.98;
    k_body = 1.0;
    k_sce = 0.40;
    k_lambda = 5.0;
    lambda_xj_exp = 0.5;
    halo_sce_exp = 0.0;
    ss_offset = 0.0;
    k_vth_sce = 0.55;
    k_dibl = 1.0;
    vth_offset = 0.0;
    mu_factor = 2.5;
    fringe_cap = 0.6e-9;
    load_factor = 1.6;
  }

type polarity = Nfet | Pfet

(* Shadow tracing of parameter-field reads.

   The memo-soundness auditor must know which fields a cached computation
   *actually* consumed, to cross-check them against the fields its
   [Exec.Key] encodes: a field that is read but not keyed is a stale-cache
   hazard.  Model code reads fields through the [read_*] accessors below;
   when a trace is active each access records its field name.  Tracing is
   meant for the (sequential) audit pass — when inactive the accessors cost
   one ref read. *)
module Trace = struct
  let lock = Mutex.create ()
  let active : (string, unit) Hashtbl.t option ref = ref None

  let record field =
    match !active with
    | None -> ()
    | Some _ ->
      Mutex.lock lock;
      (match !active with
       | Some tbl -> Hashtbl.replace tbl field ()
       | None -> ());
      Mutex.unlock lock

  let collect f =
    Mutex.lock lock;
    let saved = !active in
    let tbl = Hashtbl.create 32 in
    active := Some tbl;
    Mutex.unlock lock;
    let restore () =
      Mutex.lock lock;
      active := saved;
      Mutex.unlock lock
    in
    let v = try f () with e -> restore (); raise e in
    restore ();
    let reads = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
    (v, reads)
end

let read_lpoly p = Trace.record "lpoly"; p.lpoly
let read_tox p = Trace.record "tox"; p.tox
let read_nsub p = Trace.record "nsub"; p.nsub
let read_np_halo p = Trace.record "np_halo"; p.np_halo
let read_xj p = Trace.record "xj"; p.xj
let read_overlap p = Trace.record "overlap"; p.overlap

let read_xj_fraction c = Trace.record "xj_fraction"; c.xj_fraction
let read_overlap_fraction c = Trace.record "overlap_fraction"; c.overlap_fraction
let read_k_halo c = Trace.record "k_halo"; c.k_halo
let read_k_body c = Trace.record "k_body"; c.k_body
let read_k_sce c = Trace.record "k_sce"; c.k_sce
let read_k_lambda c = Trace.record "k_lambda"; c.k_lambda
let read_lambda_xj_exp c = Trace.record "lambda_xj_exp"; c.lambda_xj_exp
let read_ss_offset c = Trace.record "ss_offset"; c.ss_offset
let read_k_vth_sce c = Trace.record "k_vth_sce"; c.k_vth_sce
let read_k_dibl c = Trace.record "k_dibl"; c.k_dibl
let read_vth_offset c = Trace.record "vth_offset"; c.vth_offset
let read_mu_factor c = Trace.record "mu_factor"; c.mu_factor
let read_fringe_cap c = Trace.record "fringe_cap"; c.fringe_cap
let read_load_factor c = Trace.record "load_factor"; c.load_factor

let nhalo_net p = read_nsub p +. read_np_halo p

(* Canonical content keys (Exec.Memo): every field participates, floats
   bit-exactly, so no two distinct parameter sets can share a cache line
   and changing any single field is guaranteed to produce a new key. *)
let physical_key (p : physical) =
  Exec.Key.(
    fields "physical"
      [ ("node_nm", int p.node_nm);
        ("lpoly", float p.lpoly);
        ("tox", float p.tox);
        ("nsub", float p.nsub);
        ("np_halo", float p.np_halo);
        ("vdd", float p.vdd);
        ("xj", option float p.xj);
        ("overlap", option float p.overlap) ])

let calibration_key (c : calibration) =
  Exec.Key.(
    fields "calibration"
      [ ("xj_fraction", float c.xj_fraction);
        ("overlap_fraction", float c.overlap_fraction);
        ("k_halo", float c.k_halo);
        ("k_body", float c.k_body);
        ("k_sce", float c.k_sce);
        ("k_lambda", float c.k_lambda);
        ("lambda_xj_exp", float c.lambda_xj_exp);
        ("halo_sce_exp", float c.halo_sce_exp);
        ("ss_offset", float c.ss_offset);
        ("k_vth_sce", float c.k_vth_sce);
        ("k_dibl", float c.k_dibl);
        ("vth_offset", float c.vth_offset);
        ("mu_factor", float c.mu_factor);
        ("fringe_cap", float c.fringe_cap);
        ("load_factor", float c.load_factor) ])

let polarity_key = function Nfet -> "nfet" | Pfet -> "pfet"

(* Kept in sync with the key builders above: the memo-soundness auditor
   cross-checks traced read-sets against these coverage lists, so a field
   added to the record but forgotten in the key shows up as AUD011. *)
let physical_key_fields =
  [ "node_nm"; "lpoly"; "tox"; "nsub"; "np_halo"; "vdd"; "xj"; "overlap" ]

let calibration_key_fields =
  [ "xj_fraction"; "overlap_fraction"; "k_halo"; "k_body"; "k_sce"; "k_lambda";
    "lambda_xj_exp"; "halo_sce_exp"; "ss_offset"; "k_vth_sce"; "k_dibl"; "vth_offset";
    "mu_factor"; "fringe_cap"; "load_factor" ]

let nm = Physics.Constants.nm
let cm3 = Physics.Constants.per_cm3

let paper_table2 =
  [
    { node_nm = 90; lpoly = nm 65.0; tox = nm 2.10; nsub = cm3 1.52e18;
      np_halo = cm3 (3.63e18 -. 1.52e18); vdd = 1.2; xj = None; overlap = None };
    { node_nm = 65; lpoly = nm 46.0; tox = nm 1.89; nsub = cm3 1.97e18;
      np_halo = cm3 (5.17e18 -. 1.97e18); vdd = 1.1; xj = None; overlap = None };
    { node_nm = 45; lpoly = nm 32.0; tox = nm 1.70; nsub = cm3 2.52e18;
      np_halo = cm3 (7.83e18 -. 2.52e18); vdd = 1.0; xj = None; overlap = None };
    { node_nm = 32; lpoly = nm 22.0; tox = nm 1.53; nsub = cm3 3.31e18;
      np_halo = cm3 (12.0e18 -. 3.31e18); vdd = 0.9; xj = None; overlap = None };
  ]

let paper_table3 =
  [
    { node_nm = 90; lpoly = nm 95.0; tox = nm 2.10; nsub = cm3 1.61e18;
      np_halo = cm3 (2.02e18 -. 1.61e18); vdd = 0.0; xj = None; overlap = None };
    { node_nm = 65; lpoly = nm 75.0; tox = nm 1.89; nsub = cm3 1.99e18;
      np_halo = cm3 (2.73e18 -. 1.99e18); vdd = 0.0; xj = None; overlap = None };
    { node_nm = 45; lpoly = nm 60.0; tox = nm 1.70; nsub = cm3 2.53e18;
      np_halo = cm3 (2.93e18 -. 2.53e18); vdd = 0.0; xj = None; overlap = None };
    { node_nm = 32; lpoly = nm 45.0; tox = nm 1.53; nsub = cm3 3.19e18;
      np_halo = cm3 (4.89e18 -. 3.19e18); vdd = 0.0; xj = None; overlap = None };
  ]
