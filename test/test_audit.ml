(* lib/check audit machinery: the interval interpreter's soundness contract
   (concrete executions never escape propagated enclosures), the directed AUD
   rule triggers, the memo read-set/key cross-check, Exec.Memo's shadow
   audit, and schedule-perturbation determinism of Exec.map. *)

open Subscale
module I = Check.Interval
module VR = Check.Validity_rules
module MS = Check.Memo_soundness
module Pm = Device.Params
module Diag = Check.Diagnostic
module St = Tcad.Structure

let u = Test_util.case
let prop = Test_util.prop

let rules diags = List.map (fun d -> d.Diag.rule) diags

let check_fires name rule diags =
  if not (List.mem rule (rules diags)) then
    Alcotest.failf "%s: expected rule %s, got [%s]" name rule
      (String.concat "; " (List.map Diag.to_string diags))

let check_clean name diags =
  if diags <> [] then
    Alcotest.failf "%s: expected no diagnostics, got [%s]" name
      (String.concat "; " (List.map Diag.to_string diags))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The mutant pairs below agree (key_for d = key (build d)), so only the
   sensitivity differential can fire, and it must name the aliased field. *)
let check_insensitive name ~location ~field diags =
  let aliased d =
    d.Diag.rule = "AUD011" && d.Diag.location = location
    && contains_sub d.Diag.message (Printf.sprintf "perturbing field %S does not change" field)
  in
  if diags = [] || not (List.exists aliased diags)
     || not (List.for_all (fun d -> contains_sub d.Diag.message "does not change the memo key") diags)
  then
    Alcotest.failf "%s: expected only key-sensitivity AUD011, one on %S at %s, got [%s]" name
      field location
      (String.concat "; " (List.map Diag.to_string diags))

let configs = Pm.paper_table2 @ Pm.paper_table3
let phys90 = List.hd Pm.paper_table2
let op = 0.25

(* --- interval arithmetic soundness ------------------------------------ *)

let gen_iv_pair =
  (* An interval plus a point inside it: [c - r1, c + r1 + r2] contains
     c, with spans crossing zero often enough to exercise the sign cases. *)
  QCheck2.Gen.(
    map
      (fun (c, r1, r2) -> (I.make (c -. r1) (c +. r1 +. r2), c))
      (triple (float_range (-5.0) 5.0) (float_range 0.0 2.0) (float_range 0.0 2.0)))

let interval_op_tests =
  [
    prop "interval ops enclose their concrete images"
      QCheck2.Gen.(pair gen_iv_pair gen_iv_pair)
      (fun ((a, x), (b, y)) ->
        I.mem (x +. y) (I.add a b)
        && I.mem (x -. y) (I.sub a b)
        && I.mem (x *. y) (I.mul a b)
        && I.mem (exp (0.1 *. x)) (I.exp (I.scale 0.1 a))
        && (I.straddles_zero b || I.mem (x /. y) (I.div a b)));
    u "zero-straddling divisor yields top and is flagged" (fun () ->
        let den = I.make (-1.0) 1.0 in
        Alcotest.(check bool) "straddles" true (I.straddles_zero den);
        let q = I.div (I.point 1.0) den in
        Alcotest.(check bool) "unbounded" true (I.lo q = Float.neg_infinity && I.hi q = Float.infinity));
  ]

(* --- pipeline soundness: concrete metrics inside propagated enclosures - *)

(* Every shipped base: the paper's tables plus each strategy's selected
   device per node, whose sub-V_th ones set x_j and the overlap. *)
let sound_bases =
  lazy
    (Array.of_list
       (configs
       @ List.concat_map
           (fun node ->
             List.map (fun kind -> fst (Scaling.Strategy.select kind node)) Scaling.Strategy.kinds)
           Scaling.Roadmap.nodes))

(* Sample a concrete parameter record inside a 10 %-widened box around a
   shipped configuration and check every audited metric of the concrete
   pipeline (Compact.build -> Iv_model -> Delay.eq5 -> Energy.analytic)
   lies inside the interval the abstract interpreter propagated for the
   box.  This is the auditor's defining contract. *)
let gen_sound_point =
  (* Half the draws sit 1e-7 inside a face of the box, where monotone
     quantities take their extremes. *)
  let factor =
    QCheck2.Gen.(
      frequency [ (1, float_range 0.91 1.09); (1, oneofl [ 0.9 +. 1e-7; 1.1 -. 1e-7 ]) ])
  in
  QCheck2.Gen.(
    pair (int_range 0 (List.length configs + (2 * List.length Scaling.Roadmap.nodes) - 1))
      (pair (quad factor factor factor factor) (pair factor factor)))

let soundness (idx, ((f_l, f_t, f_n, f_h), (f_x, f_o))) =
  let base = (Lazy.force sound_bases).(idx) in
  let phys =
    {
      base with
      Pm.lpoly = base.Pm.lpoly *. f_l;
      Pm.tox = base.Pm.tox *. f_t;
      Pm.nsub = base.Pm.nsub *. f_n;
      Pm.np_halo = base.Pm.np_halo *. f_h;
      (* a set x_j or overlap is widened with the box; an unset one
         follows L_poly *)
      Pm.xj = Option.map (fun v -> v *. f_x) base.Pm.xj;
      Pm.overlap = Option.map (fun v -> v *. f_o) base.Pm.overlap;
    }
  in
  let r = VR.audit_box ~op_vdd:(I.point op) (VR.box_of_physical ~widen:0.1 base) in
  let nfet = Device.Compact.nfet phys and pfet = Device.Compact.pfet phys in
  let pair = { Circuits.Inverter.nfet; pfet } in
  let sizing = Circuits.Inverter.balanced_sizing () in
  let inside what conc (iv : I.t) =
    if not (I.mem conc iv) then
      QCheck2.Test.fail_reportf "%s: concrete %.17g escapes %s (config %d)" what conc
        (I.to_string iv) idx;
    true
  in
  let dev_inside tag (d : Device.Compact.t) (e : VR.derived) =
    let module C = Device.Compact in
    List.for_all
      (fun (what, conc, iv) -> inside (tag ^ " " ^ what) conc iv)
      [ ("xj", d.C.xj, e.VR.xj); ("overlap", d.C.overlap, e.VR.overlap);
        ("leff", d.C.leff, e.VR.leff); ("neff", d.C.neff, e.VR.neff);
        ("phi_f", d.C.phi_f, e.VR.phi_f); ("wdep", d.C.wdep, e.VR.wdep);
        ("cox", d.C.cox, e.VR.cox); ("ss", d.C.ss, e.VR.ss); ("m", d.C.m, e.VR.m);
        ("vth0", d.C.vth0, e.VR.vth0); ("vbi", d.C.vbi, e.VR.vbi); ("lt", d.C.lt, e.VR.lt);
        ("mu", d.C.mu, e.VR.mu); ("cg", d.C.cg, e.VR.cg);
        ("cg_intrinsic", d.C.cg_intrinsic, e.VR.cg_intrinsic);
        ("vth", C.vth d ~vds:op, e.VR.vth);
        ("ion", Device.Iv_model.ion d ~vdd:op, e.VR.ion);
        ("ioff", Device.Iv_model.ioff d ~vdd:op, e.VR.ioff);
        ("on/off", Device.Iv_model.on_off_ratio d ~vdd:op, e.VR.on_off) ]
  in
  let b = Analysis.Energy.analytic pair ~vdd:op in
  dev_inside "nfet" nfet r.VR.nfet
  && dev_inside "pfet" pfet r.VR.pfet
  && inside "cl" (Circuits.Inverter.load_capacitance pair sizing) r.VR.circuit.VR.cl
  && inside "tp" (Analysis.Delay.eq5 pair ~sizing ~vdd:op) r.VR.circuit.VR.tp
  && inside "t_cycle" b.Analysis.Energy.t_cycle r.VR.circuit.VR.t_cycle
  && inside "e_dyn" b.Analysis.Energy.e_dyn r.VR.circuit.VR.e_dyn
  && inside "e_leak" b.Analysis.Energy.e_leak r.VR.circuit.VR.e_leak
  && inside "e_total" b.Analysis.Energy.e_total r.VR.circuit.VR.e_total

(* Every shipped node/strategy pair's NFET and PFET, 130 nm included. *)
let shipped_devices =
  lazy
    (Array.of_list
       (List.concat_map
          (fun node ->
            List.concat_map
              (fun kind ->
                let _, pair = Scaling.Strategy.select kind node in
                [ pair.Circuits.Inverter.nfet; pair.Circuits.Inverter.pfet ])
              Scaling.Strategy.kinds)
          Scaling.Roadmap.nodes_with_130))

(* The audit's current is the model chain's: [Iv_model.eval_into], the
   hot kernel, must compute the same bits from its hoisted terms. *)
let same_current (k, vgs, vds) =
  let d = (Lazy.force shipped_devices).(k) in
  let b = [| vgs; vds; 0.0 |] in
  Device.Iv_model.eval_into (Device.Iv_model.prepare d) b;
  let module C = Device.Compact in
  let i =
    Device.Model.current ~t:d.C.temperature d.C.polarity ~m:d.C.m ~mu:d.C.mu ~cox:d.C.cox
      ~leff:d.C.leff ~neff:d.C.neff ~vth:(C.vth d ~vds) ~vgs ~vds
  in
  if not (Int64.equal (Int64.bits_of_float b.(0)) (Int64.bits_of_float i)) then
    QCheck2.Test.fail_reportf "device %d at (%.17g, %.17g): eval_into %h, the chain %h" k vgs
      vds b.(0) i;
  true

let soundness_tests =
  [ prop "concrete pipeline stays inside propagated enclosures" ~count:60 gen_sound_point
      soundness;
    prop "the model chain's current is eval_into's, bit for bit" ~count:300
      QCheck2.Gen.(
        triple
          (int_range 0 ((4 * List.length Scaling.Roadmap.nodes_with_130) - 1))
          (float_range (-0.2) 1.2) (float_range 0.0 1.2))
      same_current ]

(* --- directed validity rules ------------------------------------------ *)

let validity_tests =
  [
    u "all shipped configurations audit clean at 250 mV" (fun () ->
        List.iter
          (fun p -> check_clean "shipped" (VR.audit_physical ~op_vdd:op p).VR.diags)
          configs);
    u "moderate-inversion supply fires AUD001 naming Eq. (1)" (fun () ->
        let diags = (VR.audit_physical ~op_vdd:0.6 phys90).VR.diags in
        check_fires "vdd=0.6" "AUD001" diags;
        let d = List.find (fun d -> d.Diag.rule = "AUD001") diags in
        Alcotest.(check bool) "names Eq. (1)" true
          (contains_sub d.Diag.message "Eq. (1)"));
    u "V_ds below 3 v_T fires AUD002" (fun () ->
        check_fires "vdd=0.05" "AUD002" (VR.audit_physical ~op_vdd:0.05 phys90).VR.diags);
    u "widened box with zero-straddling I_off fires AUD003" (fun () ->
        check_fires "widen=0.2" "AUD003"
          (VR.audit_physical ~widen:0.2 ~op_vdd:op phys90).VR.diags);
    u "pow_const keeps an exact zero, so lambda straddles nothing at widen=0.6" (fun () ->
        (* 0 ** c is exactly 0 for c > 0: a base reaching 0 gives a +0.0
           lower bound, not one stepped below it.  lambda = k x_j^a
           (T_ox W_dep)^((1-a)/2) then never reaches below 0 on the widened
           90/65 nm sub boxes, so neither L_eff/lambda nor the SCE decay
           behind it is reported; N_eff's reach below 0 still is. *)
        let image = I.pow_const (I.make (-1.0) 4.0) 0.5 in
        Alcotest.(check int64) "exact +0.0 lower bound" 0L (Int64.bits_of_float (I.lo image));
        Alcotest.(check bool) "encloses 2" true (I.mem 2.0 image);
        List.iter
          (fun node ->
            let phys =
              match Scaling.Strategy.resolve ~node ~strategy:"sub" with
              | Ok (_, _, phys, _) -> phys
              | Error msg -> Alcotest.fail msg
            in
            let diags = (VR.audit_physical ~widen:0.6 ~op_vdd:op phys).VR.diags in
            let reports sub = List.exists (fun d -> contains_sub d.Diag.message sub) diags in
            let name what = Printf.sprintf "%d nm sub: %s" node what in
            Alcotest.(check bool) (name "L_eff/lambda") false (reports "L_eff/lambda");
            Alcotest.(check bool) (name "SCE decay") false (reports "SCE decay");
            Alcotest.(check bool) (name "phi_F") true (reports "phi_F = v_T ln(N_eff/n_i)"))
          [ 90; 65 ];
        (* Both exponents of the chain, -pi L_eff/2 lambda and -L_eff/2 l_t,
           now stay non-positive, so widening the paper's 90 nm device no
           longer reports the AUD004 overflow it used to. *)
        Alcotest.(check bool) "90 nm paper device: no AUD004" false
          (List.mem "AUD004" (rules (VR.audit_physical ~widen:0.6 ~op_vdd:op phys90).VR.diags)));
    u "a W_dep that reaches 0 straddles no divisor at widen=0.6" (fun () ->
        (* W_dep is 0 or a square root: on the widened 90/65 nm sub boxes it
           reaches 0, and neither T_ox/W_dep nor l_t's sqrt may see a
           negative W_dep.  N_eff's reach below 0 is a real finding. *)
        List.iter
          (fun node ->
            let phys =
              match Scaling.Strategy.resolve ~node ~strategy:"sub" with
              | Ok (_, _, phys, _) -> phys
              | Error msg -> Alcotest.fail msg
            in
            let diags = (VR.audit_physical ~widen:0.6 ~op_vdd:op phys).VR.diags in
            let reports sub = List.exists (fun d -> contains_sub d.Diag.message sub) diags in
            let name what = Printf.sprintf "%d nm sub: %s" node what in
            Alcotest.(check bool) (name "T_ox/W_dep") false (reports "T_ox/W_dep");
            Alcotest.(check bool) (name "l_t sqrt") false (reports "l_t = sqrt");
            Alcotest.(check bool) (name "phi_F") true (reports "phi_F = v_T ln(N_eff/n_i)"))
          [ 90; 65 ]);
    u "overlap consuming the gate fires AUD007" (fun () ->
        let b = VR.box_of_physical phys90 in
        let b = { b with VR.overlap = Some (I.point (0.6 *. phys90.Pm.lpoly)) } in
        check_fires "overlap > L/2" "AUD007"
          (VR.audit_box ~op_vdd:(I.point op) b).VR.diags);
    u "default TCAD meshes satisfy the resolution preconditions" (fun () ->
        List.iter
          (fun p ->
            check_clean "default mesh"
              (VR.check_mesh (Device.Compact.to_tcad_description (Device.Compact.nfet p))))
          configs);
    u "a 2x2 mesh fires AUD008 errors" (fun () ->
        let desc = Device.Compact.to_tcad_description (Device.Compact.nfet phys90) in
        let diags = VR.check_mesh ~nx:2 ~ny:2 desc in
        check_fires "2x2" "AUD008" diags;
        Alcotest.(check bool) "errors" true (Diag.has_errors diags));
  ]

(* --- memo soundness: read-set/key cross-check ------------------------- *)

let memo_key_tests =
  [
    u "traced device-build read-set is covered by the content keys" (fun () ->
        List.iter
          (fun p ->
            let (_ : Circuits.Inverter.pair), reads =
              Pm.Trace.collect (fun () -> Circuits.Inverter.pair_of_physical p)
            in
            Alcotest.(check bool) "reads traced" true (reads <> []);
            check_clean "covered"
              (MS.cross_check ~what:"build" ~reads
                 ~covered:(Pm.physical_key_fields @ Pm.calibration_key_fields)))
          configs);
    u "a key deliberately missing a read field is caught (AUD011)" (fun () ->
        let (_ : Circuits.Inverter.pair), reads =
          Pm.Trace.collect (fun () -> Circuits.Inverter.pair_of_physical phys90)
        in
        let covered =
          List.filter (fun f -> f <> "tox")
            (Pm.physical_key_fields @ Pm.calibration_key_fields)
        in
        check_fires "dropped tox" "AUD011" (MS.cross_check ~what:"build" ~covered ~reads));
    u "perturbing any keyed physical field changes physical_key" (fun () ->
        let base = Pm.physical_key phys90 in
        List.iter
          (fun field ->
            check_clean field
              (MS.key_sensitivity ~what:"physical_key" ~field ~base_key:base
                 ~perturbed_key:(Pm.physical_key (MS.perturb_physical field phys90))))
          Pm.physical_key_fields);
    u "an insensitive key encoder is caught (AUD011)" (fun () ->
        check_fires "same key" "AUD011"
          (MS.key_sensitivity ~what:"k" ~field:"tox" ~base_key:"x" ~perturbed_key:"x"));
    u "rule registry rejects duplicate ids" (fun () ->
        Alcotest.check_raises "duplicate" (Check.Rules.Duplicate_rule "AUD001") (fun () ->
            ignore (Check.Rules.register ~summary:"collision" "AUD001")));
    u "rule registry rejects malformed ids" (fun () ->
        List.iter
          (fun id ->
            match Check.Rules.register ~summary:"malformed" id with
            | (_ : string) -> Alcotest.failf "malformed rule id %S accepted" id
            | exception Invalid_argument _ -> ())
          [ ""; "Net-Floating"; "AUD01"; "XYZ001"; "RAC00a" ]);
    u "the shipped structure keys are sensitive and agree (AUD011)" (fun () ->
        let n, diags = MS.structure_key_sensitivity ~key:St.key ~key_for:St.key_for in
        Alcotest.(check int) "every build input perturbed" 14 n;
        check_clean "Structure.key and key_for" diags);
    u "a structure key dropping tox fires AUD011" (fun () ->
        let key s = St.key { s with St.desc = { s.St.desc with St.tox = 0.0 } } in
        check_insensitive "key drops tox" ~location:"Tcad.Structure.key" ~field:"tox"
          (snd
             (MS.structure_key_sensitivity ~key ~key_for:(fun ?nx ?ny d ->
                  key (St.build ?nx ?ny d)))));
    u "a structure key naming the mesh by line counts fires AUD011" (fun () ->
        let key s =
          let counts a = Array.init (Array.length a) float_of_int in
          let mesh = s.St.mesh in
          St.key
            { s with
              St.mesh = Tcad.Mesh.make ~xs:(counts mesh.Tcad.Mesh.xs)
                  ~ys:(counts mesh.Tcad.Mesh.ys) }
        in
        check_insensitive "key counts lines" ~location:"Tcad.Structure.key" ~field:"ny"
          (snd
             (MS.structure_key_sensitivity ~key ~key_for:(fun ?nx ?ny d ->
                  key (St.build ?nx ?ny d)))));
    u "a structure key_for dropping tox fires AUD011" (fun () ->
        (* tox shapes no mesh line, so this key agrees with the key_for. *)
        let tox = St.default_description.St.tox in
        check_insensitive "key_for drops tox" ~location:"Tcad.Structure.key_for" ~field:"tox"
          (snd
             (MS.structure_key_sensitivity
                ~key:(fun s -> St.key { s with St.desc = { s.St.desc with St.tox } })
                ~key_for:(fun ?nx ?ny d -> St.key_for ?nx ?ny { d with St.tox }))));
    u "a key_for whose lines use ny + 1 fires AUD011" (fun () ->
        (* Every perturbation still moves this key_for, so only the check
           against the key of the built structure catches it. *)
        let diags =
          snd
            (MS.structure_key_sensitivity ~key:St.key ~key_for:(fun ?nx ?ny d ->
                 St.key_for ?nx ?ny:(Option.map succ ny) d))
        in
        check_fires "key_for ny + 1" "AUD011" diags;
        Alcotest.(check bool) "the base request is named" true
          (List.exists
             (fun d ->
               d.Diag.location = "Tcad.Structure.key_for"
               && contains_sub d.Diag.message "input \"base\"")
             diags));
  ]

(* --- Exec.Memo shadow audit ------------------------------------------- *)

let shadow_tests =
  [
    u "under-keyed memo table is caught by the shadow audit (AUD012)" (fun () ->
        let tbl = Exec.Memo.create ~name:"test-audit-underkeyed" () in
        let hidden = ref 1 in
        Exec.Memo.clear_audit_violations ();
        let violations =
          Exec.Memo.with_audit (fun () ->
              let (_ : int) = Exec.Memo.find_or_compute tbl ~key:"const" (fun () -> !hidden) in
              hidden := 2;
              let (_ : int) = Exec.Memo.find_or_compute tbl ~key:"const" (fun () -> !hidden) in
              Exec.Memo.audit_violations ())
        in
        Exec.Memo.clear_audit_violations ();
        Exec.Memo.clear tbl;
        check_fires "under-keyed" "AUD012" (MS.of_violations violations));
    u "a properly keyed table passes the shadow audit" (fun () ->
        let tbl = Exec.Memo.create ~name:"test-audit-sound" () in
        Exec.Memo.clear_audit_violations ();
        let violations =
          Exec.Memo.with_audit (fun () ->
              List.iter
                (fun x ->
                  let (_ : int) =
                    Exec.Memo.find_or_compute tbl ~key:(string_of_int x) (fun () -> x * x)
                  in
                  ())
                [ 1; 2; 3; 1; 2; 3 ];
              Exec.Memo.audit_violations ())
        in
        Exec.Memo.clear tbl;
        check_clean "sound table" (MS.of_violations violations));
  ]

(* --- schedule perturbation -------------------------------------------- *)

let schedule_tests =
  [
    u "Exec.map is bit-exact under adversarial schedules" (fun () ->
        let xs = List.init 23 (fun i -> i) in
        let f x = Float.to_string (sin (float_of_int x) *. exp (float_of_int x /. 7.0)) in
        Exec.set_schedule_seed None;
        let baseline = Exec.map f xs in
        Fun.protect
          ~finally:(fun () -> Exec.set_schedule_seed None)
          (fun () ->
            List.iter
              (fun seed ->
                Exec.set_schedule_seed (Some seed);
                Alcotest.(check (list string))
                  (Printf.sprintf "seed %d" seed)
                  baseline (Exec.map f xs))
              [ 1; 2; 3; 4; 5 ]));
    u "Monte-Carlo trial kernels are bit-exact under adversarial schedules" (fun () ->
        (* Each trial of both kernels keeps its own scratch and reads only
           the shared, immutable stage and coefficients, so any claim
           order on any number of domains gives the same samples. *)
        let pair = Circuits.Inverter.pair_of_physical (List.hd Pm.paper_table2) in
        (* A 3-point stage spends most of each curve on the per-curve
           device evaluation, so domains sharing anything there collide. *)
        let small =
          Analysis.Vtc.stage ~points:3 pair ~sizing:(Circuits.Inverter.balanced_sizing ())
            ~vdd:0.25
        in
        let shifts = List.init 2000 (fun i -> 0.04 *. sin (float_of_int i)) in
        let samples () =
          List.concat_map
            (fun vdd ->
              let d =
                Analysis.Variability.chain_delay_distribution ~trials:48 ~stages:10 pair ~vdd
              in
              let s = Analysis.Variability.snm_distribution ~trials:500 pair ~vdd in
              List.map Int64.bits_of_float
                (Array.to_list d.Analysis.Variability.samples
                @ Array.to_list s.Analysis.Variability.samples))
            [ 0.25; 0.06 ]
          @ List.concat
              (Exec.map
                 (fun dv ->
                   let c = Analysis.Vtc.apply small ~dvn:dv ~dvp:(-.dv) in
                   List.map Int64.bits_of_float (Array.to_list c.Analysis.Vtc.vout))
                 shifts)
        in
        let jobs = Exec.jobs () in
        Exec.set_schedule_seed None;
        Exec.set_jobs 1;
        let baseline = samples () in
        Fun.protect
          ~finally:(fun () ->
            Exec.set_schedule_seed None;
            Exec.set_jobs jobs)
          (fun () ->
            List.iter
              (fun (jobs, seed) ->
                Exec.set_jobs jobs;
                Exec.set_schedule_seed (Some seed);
                Alcotest.(check (list int64))
                  (Printf.sprintf "jobs %d, seed %d" jobs seed)
                  baseline (samples ()))
              [ (1, 1); (4, 2); (4, 3); (2, 4) ]));
    u "trajectory sweep fingerprints are schedule-independent" (fun () ->
        let fingerprint () =
          Exec.Memo.clear_all ();
          String.concat "\n"
            (List.map Scaling.Strategy.evaluation_fingerprint
               (Scaling.Strategy.trajectory Scaling.Strategy.Super_vth))
        in
        Exec.set_schedule_seed None;
        let baseline = fingerprint () in
        Fun.protect
          ~finally:(fun () -> Exec.set_schedule_seed None)
          (fun () ->
            Exec.set_schedule_seed (Some 7);
            Alcotest.(check string) "seed 7" baseline (fingerprint ()));
        Alcotest.(check bool) "fingerprint is non-trivial" true
          (String.length baseline > 100);
        (* The diagnostic a mismatch would raise: an AUD013 error naming
           the sweep and the seed. *)
        let d = MS.schedule_mismatch ~what:"trajectory sweep" ~seed:7 in
        Alcotest.(check string) "rule" "AUD013" d.Diag.rule;
        Alcotest.(check bool) "error" true (Diag.has_errors [ d ]);
        Alcotest.(check string) "location" "trajectory sweep" d.Diag.location;
        Alcotest.(check bool) "names the seed" true (contains_sub d.Diag.message "seed 7"));
    u "evaluation fingerprints distinguish distinct evaluations" (fun () ->
        match Scaling.Strategy.trajectory Scaling.Strategy.Super_vth with
        | a :: b :: _ ->
          Alcotest.(check bool) "distinct" true
            (Scaling.Strategy.evaluation_fingerprint a
             <> Scaling.Strategy.evaluation_fingerprint b)
        | _ -> Alcotest.fail "trajectory too short");
  ]

let suite =
  [
    ("audit.interval", interval_op_tests);
    ("audit.soundness", soundness_tests);
    ("audit.validity", validity_tests);
    ("audit.memo-key", memo_key_tests);
    ("audit.shadow", shadow_tests);
    ("audit.schedule", schedule_tests);
  ]
