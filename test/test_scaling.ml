open Subscale
module Gen = Scaling.Generalized
module Roadmap = Scaling.Roadmap
module Super = Scaling.Super_vth
module Sub = Scaling.Sub_vth
module Strategy = Scaling.Strategy
module C = Physics.Constants

let u = Test_util.case
let slow = Test_util.slow_case
let prop = Test_util.prop

(* Shared trajectories: building them runs the optimizers once. *)
let super = lazy (Super.all ())
let sub = lazy (Sub.all ())
let super_evals = lazy (Strategy.trajectory Strategy.Super_vth)
let sub_evals = lazy (Strategy.trajectory Strategy.Sub_vth)

let generalized_tests =
  [
    prop "factor formulas hold"
      QCheck2.Gen.(pair (float_range 1.1 2.0) (float_range 1.0 1.5))
      (fun (alpha, epsilon) ->
        let f = Gen.factors ~alpha ~epsilon in
        Float.abs (f.Gen.physical_dimension -. (1.0 /. alpha)) < 1e-12
        && Float.abs (f.Gen.channel_doping -. (epsilon *. alpha)) < 1e-12
        && Float.abs (f.Gen.vdd -. (epsilon /. alpha)) < 1e-12
        && Float.abs (f.Gen.power -. (epsilon *. epsilon /. (alpha *. alpha))) < 1e-12);
    u "constant-field scaling keeps the power density trend" (fun () ->
        let f = Gen.factors ~alpha:(1.0 /. 0.7) ~epsilon:1.0 in
        Test_util.check_rel "power = area" ~rel:1e-12 f.Gen.area f.Gen.power);
    u "apply composes over generations" (fun () ->
        let p = List.hd Device.Params.paper_table2 in
        let two = Gen.apply ~generations:2 ~alpha:1.4 ~epsilon:1.1 p in
        let one_one =
          Gen.apply ~generations:1 ~alpha:1.4 ~epsilon:1.1
            (Gen.apply ~generations:1 ~alpha:1.4 ~epsilon:1.1 p)
        in
        Test_util.check_rel "lpoly" ~rel:1e-9 one_one.Device.Params.lpoly
          two.Device.Params.lpoly;
        Test_util.check_rel "nsub" ~rel:1e-9 one_one.Device.Params.nsub
          two.Device.Params.nsub);
    u "negative generations are rejected" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Generalized.apply: negative generations")
          (fun () ->
            ignore
              (Gen.apply ~generations:(-1) ~alpha:1.4 ~epsilon:1.0
                 (List.hd Device.Params.paper_table2))));
  ]

let roadmap_tests =
  [
    u "roadmap lists the four paper nodes in order" (fun () ->
        Alcotest.(check (list int)) "nodes" [ 90; 65; 45; 32 ]
          (List.map (fun n -> n.Roadmap.nm) Roadmap.nodes));
    u "Lpoly shrinks ~30% per generation" (fun () ->
        let ls = Array.of_list (List.map (fun n -> n.Roadmap.lpoly) Roadmap.nodes) in
        let r = Test_util.geometric_mean_ratio ls in
        Test_util.check_in_range "ratio" ~lo:0.66 ~hi:0.74 r);
    u "Tox shrinks ~10% per generation" (fun () ->
        let ts = Array.of_list (List.map (fun n -> n.Roadmap.tox) Roadmap.nodes) in
        let r = Test_util.geometric_mean_ratio ts in
        Test_util.check_in_range "ratio" ~lo:0.87 ~hi:0.93 r);
    u "leakage budget grows 25% per generation" (fun () ->
        let il = Array.of_list (List.map (fun n -> n.Roadmap.ileak_max) Roadmap.nodes) in
        Test_util.check_rel "ratio" ~rel:1e-3 1.25 (Test_util.geometric_mean_ratio il));
    u "find retrieves nodes and raises on unknown labels" (fun () ->
        Alcotest.(check int) "found" 45 (Roadmap.find 45).Roadmap.nm;
        Alcotest.check_raises "missing" Not_found (fun () -> ignore (Roadmap.find 28)));
    u "sub-Vth Ioff target is 100 pA/um" (fun () ->
        Test_util.check_rel "target" ~rel:1e-9 (C.pa_per_um 100.0) Roadmap.sub_vth_ioff_target);
  ]

let super_tests =
  [
    u "a doping solve rejects an overlap that consumes the gate" (fun () ->
        (* The 4x long-channel reference would keep a positive L_eff, so the
           rejection must come before any solve, from the base's own
           geometry. *)
        let p = List.hd Device.Params.paper_table2 in
        let base = { p with Device.Params.overlap = Some (0.6 *. p.Device.Params.lpoly) } in
        Alcotest.check_raises "leff"
          (Invalid_argument "Compact.build: overlap consumes the whole gate") (fun () ->
            ignore
              (Scaling.Doping_fit.solve_for_ioff ~base ~ioff_vdd:1.0 ~target:1e-7 ()
                : Device.Params.physical)));
    slow "each node meets its leakage budget exactly" (fun () ->
        List.iter
          (fun s ->
            let nfet = s.Super.pair.Circuits.Inverter.nfet in
            let ioff = Device.Iv_model.ioff nfet ~vdd:s.Super.node.Roadmap.vdd in
            Test_util.check_rel "budget" ~rel:0.01 s.Super.node.Roadmap.ileak_max ioff)
          (Lazy.force super));
    slow "substrate doping rises monotonically with scaling" (fun () ->
        let ns =
          Array.of_list
            (List.map (fun s -> s.Super.phys.Device.Params.nsub) (Lazy.force super))
        in
        Test_util.check_increasing "nsub" ns);
    slow "halo dose always exceeds the substrate dose" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) "halo" true
              (Device.Params.nhalo_net s.Super.phys > s.Super.phys.Device.Params.nsub))
          (Lazy.force super));
    slow "SS degrades monotonically (the paper's core observation)" (fun () ->
        let ss =
          Array.of_list
            (List.map
               (fun s -> s.Super.pair.Circuits.Inverter.nfet.Device.Compact.ss)
               (Lazy.force super))
        in
        Test_util.check_increasing "ss" ss;
        (* And by roughly the paper's 11%. *)
        Test_util.check_in_range "degradation" ~lo:1.05 ~hi:1.25
          (ss.(3) /. ss.(0)));
    slow "devices keep the roadmap geometry" (fun () ->
        List.iter2
          (fun s node ->
            Test_util.check_rel "lpoly" ~rel:1e-12 node.Roadmap.lpoly
              s.Super.phys.Device.Params.lpoly)
          (Lazy.force super) Roadmap.nodes);
  ]

let sub_tests =
  [
    slow "constant Ioff at the sub-Vth operating point" (fun () ->
        List.iter
          (fun s ->
            let nfet = s.Sub.pair.Circuits.Inverter.nfet in
            let ioff = Device.Iv_model.ioff nfet ~vdd:Sub.operating_vdd in
            Test_util.check_rel "100 pA/um" ~rel:0.02 Roadmap.sub_vth_ioff_target ioff)
          (Lazy.force sub));
    slow "chosen gates are longer than the roadmap's" (fun () ->
        List.iter2
          (fun s node ->
            Alcotest.(check bool) "longer" true
              (s.Sub.phys.Device.Params.lpoly > node.Roadmap.lpoly))
          (Lazy.force sub) Roadmap.nodes);
    slow "SS stays near 80 mV/dec across nodes" (fun () ->
        let ss =
          List.map (fun s -> s.Sub.pair.Circuits.Inverter.nfet.Device.Compact.ss)
            (Lazy.force sub)
        in
        let lo = List.fold_left Float.min infinity ss in
        let hi = List.fold_left Float.max neg_infinity ss in
        Test_util.check_in_range "band" ~lo:0.07 ~hi:0.09 lo;
        Alcotest.(check bool) "flat" true (hi -. lo < 0.006));
    slow "per-Lpoly doping meets the budget across the sweep" (fun () ->
        let node = Roadmap.find 45 in
        List.iter
          (fun scale ->
            let lpoly = scale *. node.Roadmap.lpoly in
            let phys = Sub.doping_for_lpoly ~node ~lpoly () in
            let ioff =
              Device.Iv_model.ioff (Device.Compact.nfet phys) ~vdd:Sub.operating_vdd
            in
            Test_util.check_rel "budget" ~rel:0.02 Roadmap.sub_vth_ioff_target ioff)
          [ 1.0; 1.5; 2.5 ]);
    slow "re-optimized doping beats a fixed profile at long gates (Fig. 7)" (fun () ->
        let node = Roadmap.find 45 in
        let lpolys = [| 2.5 *. node.Roadmap.lpoly |] in
        let fixed_phys = Sub.doping_for_lpoly ~node ~lpoly:node.Roadmap.lpoly () in
        let opt = Sub.ss_vs_lpoly ~node ~lpolys ~fixed_doping:None () in
        let fixed = Sub.ss_vs_lpoly ~node ~lpolys ~fixed_doping:(Some fixed_phys) () in
        Alcotest.(check bool) "optimized wins" true (snd opt.(0) < snd fixed.(0)));
    slow "energy factor has an interior minimum in Lpoly (Fig. 8)" (fun () ->
        let node = Roadmap.find 45 in
        let sel = Sub.select_node node in
        let l_opt = sel.Sub.phys.Device.Params.lpoly in
        Alcotest.(check bool) "interior" true
          (l_opt > 0.85 *. node.Roadmap.lpoly && l_opt < 3.4 *. node.Roadmap.lpoly);
        (* The grid itself must dip: its minimum is not at either end. *)
        let efs = List.map (fun (_, ef, _) -> ef) sel.Sub.lpoly_grid in
        let first = List.hd efs and last = List.nth efs (List.length efs - 1) in
        let min_ef = List.fold_left Float.min infinity efs in
        Alcotest.(check bool) "dips" true (min_ef < first && min_ef < last));
  ]

let strategy_tests =
  [
    slow "evaluations carry physically sane numbers" (fun () ->
        List.iter
          (fun (e : Strategy.evaluation) ->
            Test_util.check_in_range "ss" ~lo:0.06 ~hi:0.12 e.Strategy.ss;
            Test_util.check_in_range "vth" ~lo:0.2 ~hi:0.7 e.Strategy.vth_sat;
            Test_util.check_in_range "snm" ~lo:0.03 ~hi:0.125 e.Strategy.snm_sub;
            Test_util.check_in_range "vmin" ~lo:0.1 ~hi:0.4 e.Strategy.vmin;
            Alcotest.(check bool) "on/off" true (e.Strategy.on_off_sub > 50.0))
          (Lazy.force super_evals @ Lazy.force sub_evals));
    slow "sub-Vth wins SNM at 32 nm by the paper's ~19%" (fun () ->
        let last l = List.nth l (List.length l - 1) in
        let sup = last (Lazy.force super_evals) and sb = last (Lazy.force sub_evals) in
        Test_util.check_in_range "gain" ~lo:1.08 ~hi:1.35
          (sb.Strategy.snm_sub /. sup.Strategy.snm_sub));
    slow "sub-Vth wins energy at Vmin at 32 nm" (fun () ->
        let last l = List.nth l (List.length l - 1) in
        let sup = last (Lazy.force super_evals) and sb = last (Lazy.force sub_evals) in
        Alcotest.(check bool) "cheaper" true
          (sb.Strategy.energy_at_vmin < sup.Strategy.energy_at_vmin));
    slow "sub-Vth delay at 250 mV improves monotonically; super-Vth degrades" (fun () ->
        let d l = Array.of_list (List.map (fun e -> e.Strategy.delay_sub) l) in
        Test_util.check_decreasing "sub" (d (Lazy.force sub_evals));
        Test_util.check_increasing "super" (d (Lazy.force super_evals)));
    slow "sub-Vth Vmin is flat; super-Vth Vmin rises" (fun () ->
        let v l = List.map (fun e -> e.Strategy.vmin) l in
        let sup = v (Lazy.force super_evals) and sb = v (Lazy.force sub_evals) in
        let span l =
          List.fold_left Float.max neg_infinity l -. List.fold_left Float.min infinity l
        in
        Alcotest.(check bool) "super rises >= 15 mV" true (span sup > 0.015);
        Alcotest.(check bool) "sub within 15 mV" true (span sb < 0.015));
    u "kind names" (fun () ->
        Alcotest.(check string) "super" "super-Vth" (Strategy.kind_name Strategy.Super_vth);
        Alcotest.(check string) "sub" "sub-Vth" (Strategy.kind_name Strategy.Sub_vth));
    u "resolve returns the daemon's error strings" (fun () ->
        let error ~node ~strategy =
          match Strategy.resolve ~node ~strategy with
          | Error msg -> msg
          | Ok _ -> Alcotest.failf "node %d strategy %s resolved" node strategy
        in
        Alcotest.(check string) "unknown node"
          "unknown node 14 (known: 130, 90, 65, 45, 32)" (error ~node:14 ~strategy:"sub");
        Alcotest.(check string) "unknown strategy"
          "unknown strategy \"medium\" (super or sub)" (error ~node:90 ~strategy:"medium"));
    slow "resolve selects the same device as each strategy's select_node" (fun () ->
        let key phys = Device.Params.physical_key phys in
        let direct =
          List.map (fun s -> (Strategy.Super_vth, s.Super.node, key s.Super.phys)) (Lazy.force super)
          @ List.map (fun s -> (Strategy.Sub_vth, s.Sub.node, key s.Sub.phys)) (Lazy.force sub)
        in
        List.iter
          (fun (kind, node, expected) ->
            let strategy = Strategy.kind_key kind in
            match Strategy.resolve ~node:node.Roadmap.nm ~strategy with
            | Ok (n, k, phys, _) ->
              let what = Printf.sprintf "%d nm %s" node.Roadmap.nm strategy in
              Alcotest.(check int) (what ^ " node") node.Roadmap.nm n.Roadmap.nm;
              Alcotest.(check bool) (what ^ " kind") true (k = kind);
              Alcotest.(check string) (what ^ " phys bits") expected (key phys)
            | Error msg -> Alcotest.fail msg)
          direct);
    slow "a stored selection decodes to the computed one, bit for bit" (fun () ->
        let codec = Strategy.selection_codec in
        List.iter
          (fun kind ->
            List.iter
              (fun (node : Roadmap.node) ->
                let what = Printf.sprintf "%d nm %s" node.Roadmap.nm (Strategy.kind_key kind) in
                let ((phys, pair) as computed) = Strategy.select kind node in
                let payload = codec.Exec.Store.encode computed in
                match codec.Exec.Store.decode payload with
                | None -> Alcotest.failf "%s: own record did not decode" what
                | Some (phys', pair') ->
                  Alcotest.(check string) (what ^ ": physical bits")
                    (Device.Params.physical_key phys) (Device.Params.physical_key phys');
                  List.iter
                    (fun (fet, get) ->
                      Alcotest.(check string) (what ^ ": " ^ fet ^ " compact key")
                        (Device.Compact.key (get pair)) (Device.Compact.key (get pair')))
                    [ ("nfet", fun p -> p.Circuits.Inverter.nfet);
                      ("pfet", fun p -> p.Circuits.Inverter.pfet) ];
                  let fingerprint phys pair =
                    Strategy.evaluation_fingerprint (Strategy.evaluate_uncached kind node phys pair)
                  in
                  Alcotest.(check string) (what ^ ": evaluation fingerprint")
                    (fingerprint phys pair) (fingerprint phys' pair');
                  let body = String.sub payload 9 (String.length payload - 9) in
                  Alcotest.(check string) (what ^ ": tag") "select/1:" (String.sub payload 0 9);
                  List.iter
                    (fun tag ->
                      Alcotest.(check bool) (what ^ ": tag " ^ tag ^ " is a miss") true
                        (codec.Exec.Store.decode (tag ^ body) = None))
                    [ "select/0:"; "select/2:"; "chars/1:" ])
              Roadmap.nodes_with_130)
          Strategy.kinds);
  ]

let suite =
  [
    ("scaling.generalized", generalized_tests);
    ("scaling.roadmap", roadmap_tests);
    ("scaling.super_vth", super_tests);
    ("scaling.sub_vth", sub_tests);
    ("scaling.strategy", strategy_tests);
  ]
