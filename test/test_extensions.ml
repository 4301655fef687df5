open Subscale
module Rng = Numerics.Rng
module Var = Analysis.Variability
module Bitline = Analysis.Bitline
module Multi = Scaling.Multi_vth
module Adder = Circuits.Adder

let u = Test_util.case
let slow = Test_util.slow_case
let prop = Test_util.prop

let phys90 = List.hd Device.Params.paper_table2
let pair = Circuits.Inverter.pair_of_physical phys90
let nfet = pair.Circuits.Inverter.nfet

(* The first 1,000 outputs of each draw, and of the three interleaved
   (a normal's Box-Muller spare survives the float and int draws between
   two normals), as the MD5 of their %h / %d text: any change to the
   generator's arithmetic moves every Monte-Carlo figure. *)
let rng_stream seed kind =
  let r = Rng.create ~seed in
  let draw i =
    match kind with
    | `Float -> Printf.sprintf "%h" (Rng.float r)
    | `Normal -> Printf.sprintf "%h" (Rng.normal r ~mean:0.25 ~sigma:1.5)
    | `Int -> string_of_int (Rng.int r ~bound:(1 + (i * 7919)))
    | `Mixed -> (
      match i mod 3 with
      | 0 -> Printf.sprintf "%h" (Rng.normal r ~mean:0.0 ~sigma:1.0)
      | 1 -> Printf.sprintf "%h" (Rng.float r)
      | _ -> string_of_int (Rng.int r ~bound:1_000_003))
  in
  Digest.to_hex (Digest.string (String.concat " " (List.init 1000 draw)))

(* Written by the generator before its state was unboxed. *)
let rng_pins =
  [
    (1, `Float, "float", "935773ff7f4f4a02e149bdc6448e22f7");
    (1, `Normal, "normal", "453b72ca63cb9bfeb9aa0587fb6b62cb");
    (1, `Int, "int", "9183ca94a0411347bcdd73f012d29a4f");
    (1, `Mixed, "mixed", "4e96363f2bfc9cb62dda432fce9a96e4");
    (42, `Float, "float", "2e5144185faea90ac595d7b74fc2e2a2");
    (42, `Normal, "normal", "6fcf357d24f6257a51985f5776999204");
    (42, `Int, "int", "6aa2b3290c6f234224c01b84831c09a9");
    (42, `Mixed, "mixed", "2732c48fd3b4d35f9826357f1340238f");
    (20070604, `Float, "float", "16bb1366642b9d61736d3dc229ee140e");
    (20070604, `Normal, "normal", "bdb9dfa94d8344408e1e4bcbcc0864f3");
    (20070604, `Int, "int", "fa5d9431e56f54b5b4b3561059addbeb");
    (20070604, `Mixed, "mixed", "5183e73ab8c4e1af94c9e65b26200748") ]

let rng_tests =
  [
    u "the first 1,000 draws of three seeds keep their bits" (fun () ->
        List.iter
          (fun (seed, kind, name, digest) ->
            Alcotest.(check string) (Printf.sprintf "seed %d %s" seed name) digest
              (rng_stream seed kind))
          rng_pins);
    u "same seed reproduces the stream" (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 50 do
          Test_util.check_float "same" (Rng.float a) (Rng.float b)
        done);
    u "different seeds diverge" (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        let same = ref 0 in
        for _ = 1 to 20 do
          if Float.abs (Rng.float a -. Rng.float b) < 1e-12 then incr same
        done;
        Alcotest.(check bool) "diverge" true (!same < 3));
    u "floats live in [0, 1)" (fun () ->
        let r = Rng.create ~seed:3 in
        for _ = 1 to 1000 do
          let v = Rng.float r in
          Test_util.check_in_range "range" ~lo:0.0 ~hi:0.999999999 v
        done);
    u "gaussian has ~zero mean and ~unit variance" (fun () ->
        let r = Rng.create ~seed:5 in
        let xs = Array.init 4000 (fun _ -> Rng.normal r ~mean:0.0 ~sigma:1.0) in
        Test_util.check_in_range "mean" ~lo:(-0.08) ~hi:0.08 (Numerics.Stats.mean xs);
        Test_util.check_in_range "std" ~lo:0.93 ~hi:1.07 (Numerics.Stats.stddev xs));
    u "int stays under its bound" (fun () ->
        let r = Rng.create ~seed:6 in
        for _ = 1 to 500 do
          let v = Rng.int r ~bound:7 in
          Alcotest.(check bool) "bound" true (v >= 0 && v < 7)
        done);
  ]

let variability_tests =
  [
    u "sigma_vth is millivolts for a micron-wide 90 nm device" (fun () ->
        Test_util.check_in_range "sigma" ~lo:1e-3 ~hi:30e-3 (Var.sigma_vth nfet ~width:1e-6));
    prop "sigma_vth follows the 1/sqrt(area) law" (QCheck2.Gen.float_range 0.2e-6 5e-6)
      (fun w ->
        let s1 = Var.sigma_vth nfet ~width:w in
        let s2 = Var.sigma_vth nfet ~width:(4.0 *. w) in
        Float.abs ((s1 /. s2) -. 2.0) < 1e-9);
    u "summarize orders percentiles correctly" (fun () ->
        let d = Var.summarize (Array.init 100 (fun i -> float_of_int i)) in
        Test_util.check_rel "mean" ~rel:1e-9 49.5 d.Var.mean;
        Alcotest.(check bool) "p95 > mean" true (d.Var.p95 > d.Var.mean));
    slow "delay spread grows as Vdd falls" (fun () ->
        let spread =
          Var.delay_spread_vs_vdd ~trials:150 pair ~vdds:[ 0.9; 0.25 ]
        in
        match spread with
        | [ (_, hi_vdd); (_, lo_vdd) ] ->
          Alcotest.(check bool) "grows" true (lo_vdd > 3.0 *. hi_vdd)
        | _ -> Alcotest.fail "expected two points");
    slow "Monte Carlo is reproducible for a fixed seed" (fun () ->
        let d1 = Var.chain_delay_distribution ~trials:60 pair ~vdd:0.25 in
        let d2 = Var.chain_delay_distribution ~trials:60 pair ~vdd:0.25 in
        Test_util.check_float "same mean" d1.Var.mean d2.Var.mean);
    slow "mean MC delay matches the nominal chain delay" (fun () ->
        let d = Var.chain_delay_distribution ~trials:200 pair ~vdd:0.25 in
        let nominal =
          30.0 *. Analysis.Delay.eq5 pair ~sizing:(Circuits.Inverter.balanced_sizing ())
                    ~vdd:0.25
        in
        Test_util.check_rel "centred" ~rel:0.10 nominal d.Var.mean);
    slow "SNM distribution is tighter at higher Vdd" (fun () ->
        let d1 = Var.snm_distribution ~trials:150 pair ~vdd:0.35 in
        let d2 = Var.snm_distribution ~trials:150 pair ~vdd:0.25 in
        (* Absolute sigma is similar, but relative to the margin it bites
           harder at low Vdd. *)
        Alcotest.(check bool) "relative spread" true
          (d2.Var.sigma /. d2.Var.mean > d1.Var.sigma /. d1.Var.mean));
    slow "delay spread keeps its bits, equal to each V_dd's own distribution" (fun () ->
        let spread = Var.delay_spread_vs_vdd ~trials:150 pair ~vdds:[ 0.9; 0.25 ] in
        Test_util.check_all_bits "sigma/mean" (Test_util.bit_pin "delay-spread-90")
          (Array.of_list (List.map snd spread));
        List.iter
          (fun (vdd, s) ->
            let d = Var.chain_delay_distribution ~trials:150 pair ~vdd in
            Test_util.check_bits (Printf.sprintf "at %g V" vdd) (d.Var.sigma /. d.Var.mean) s)
          spread);
  ]

let bitline_tests =
  [
    u "max bits tracks the on/off ratio" (fun () ->
        let ratio = Device.Iv_model.on_off_ratio nfet ~vdd:0.25 in
        let bits = Bitline.max_bits_per_line nfet ~vdd:0.25 in
        Test_util.check_rel "quarter ratio" ~rel:0.05 (ratio /. 4.0) (float_of_int bits));
  ]

let multi_vth_tests =
  [
    slow "flavors are decade-spaced in Ioff and ordered in Vth" (fun () ->
        let node = Scaling.Roadmap.find 45 in
        let fam = Multi.for_node ~strategy:Scaling.Strategy.Super_vth node in
        (match fam with
         | [ lvt; svt; hvt ] ->
           Test_util.check_rel "lvt" ~rel:0.05 (10.0 *. svt.Multi.ioff) lvt.Multi.ioff;
           Test_util.check_rel "hvt" ~rel:0.05 (0.1 *. svt.Multi.ioff) hvt.Multi.ioff;
           Alcotest.(check bool) "vth order" true
             (lvt.Multi.vth_sat < svt.Multi.vth_sat && svt.Multi.vth_sat < hvt.Multi.vth_sat);
           Alcotest.(check bool) "delay order" true
             (lvt.Multi.delay_sub < svt.Multi.delay_sub
              && svt.Multi.delay_sub < hvt.Multi.delay_sub)
         | _ -> Alcotest.fail "expected three flavors"));
    slow "SVT flavor reproduces the strategy's own selection" (fun () ->
        let node = Scaling.Roadmap.find 45 in
        let fam = Multi.for_node ~strategy:Scaling.Strategy.Sub_vth node in
        let svt = List.nth fam 1 in
        Test_util.check_rel "ioff" ~rel:0.05 Scaling.Roadmap.sub_vth_ioff_target
          svt.Multi.ioff);
    slow "flavor names and multipliers" (fun () ->
        Alcotest.(check string) "lvt" "LVT" (Multi.flavor_name Multi.Low_vth);
        let fam =
          Multi.for_node ~strategy:Scaling.Strategy.Sub_vth (Scaling.Roadmap.find 45)
        in
        Test_util.check_rel "HVT leaks a tenth of SVT" ~rel:0.05 0.1
          ((List.nth fam 2).Multi.ioff /. (List.nth fam 1).Multi.ioff));
  ]

let adder_tests =
  [
    slow "4-bit adder matches integer addition on random vectors" (fun () ->
        let adder = Adder.ripple_carry pair ~vdd:0.3 ~bits:4 in
        let rng = Rng.create ~seed:9 in
        for _ = 1 to 12 do
          let a = Rng.int rng ~bound:16 and b = Rng.int rng ~bound:16 in
          let cin = Rng.int rng ~bound:2 in
          let s, co = Adder.compute adder ~a ~b ~cin in
          let expect = a + b + cin in
          Alcotest.(check int) (Printf.sprintf "%d+%d+%d sum" a b cin) (expect land 15) s;
          Alcotest.(check int) "carry" (expect lsr 4) co
        done);
    slow "carry delay grows roughly linearly with width" (fun () ->
        let d2 = Adder.carry_delay ~steps:500 pair ~vdd:0.3 ~bits:2 in
        let d6 = Adder.carry_delay ~steps:500 pair ~vdd:0.3 ~bits:6 in
        Test_util.check_in_range "ratio" ~lo:1.8 ~hi:5.0 (d6 /. d2));
    u "zero-width adders are rejected" (fun () ->
        Alcotest.check_raises "bits" (Invalid_argument "Adder.ripple_carry: need at least one bit")
          (fun () -> ignore (Adder.ripple_carry pair ~vdd:0.3 ~bits:0)));
    u "oversized inputs are rejected" (fun () ->
        let adder = Adder.ripple_carry pair ~vdd:0.3 ~bits:2 in
        Alcotest.check_raises "input" (Invalid_argument "Adder.compute: input exceeds the bit width")
          (fun () -> ignore (Adder.compute adder ~a:7 ~b:0 ~cin:0)));
    u "adders wider than 62 bits are rejected before a netlist is built" (fun () ->
        (* All ones in a word of 63 or more bits overflows an OCaml int. *)
        List.iter
          (fun bits ->
            let rejected what f =
              Alcotest.check_raises
                (Printf.sprintf "%s, %d bits" what bits)
                (Invalid_argument "Adder.ripple_carry: at most 62 bits (an input word is an int)")
                (fun () -> ignore (f ()))
            in
            rejected "ripple_carry" (fun () -> Adder.ripple_carry pair ~vdd:0.3 ~bits);
            rejected "carry_delay" (fun () -> Adder.carry_delay pair ~vdd:0.3 ~bits))
          [ 63; 64 ]);
  ]

let temperature_tests =
  [
    u "SS scales linearly with temperature" (fun () ->
        let ss t = (Device.Compact.nfet ~t phys90).Device.Compact.ss in
        Test_util.check_rel "linear" ~rel:0.02 (350.0 /. 300.0) (ss 350.0 /. ss 300.0));
    u "Ioff grows steeply with temperature" (fun () ->
        let ioff t = Device.Iv_model.ioff (Device.Compact.nfet ~t phys90) ~vdd:0.25 in
        Alcotest.(check bool) "hot leaks" true (ioff 350.0 > 5.0 *. ioff 300.0));
    u "mobility falls with temperature" (fun () ->
        let mu t = (Device.Compact.nfet ~t phys90).Device.Compact.mu in
        Test_util.check_rel "phonon" ~rel:0.02 ((350.0 /. 300.0) ** -1.5)
          (mu 350.0 /. mu 300.0));
    u "cold devices have better noise margins" (fun () ->
        let snm t =
          let p = { Circuits.Inverter.nfet = Device.Compact.nfet ~t phys90;
                    pfet = Device.Compact.pfet ~t phys90 } in
          (Analysis.Snm.inverter p ~sizing:(Circuits.Inverter.balanced_sizing ()) ~vdd:0.25)
            .Analysis.Snm.snm
        in
        Alcotest.(check bool) "cold wins" true (snm 250.0 > snm 350.0));
  ]

let tcad_bipolar_tests =
  [
    slow "P-channel mirror matches the NFET's subthreshold slope" (fun () ->
        let d = Tcad.Structure.default_description in
        let devn = Tcad.Structure.build d in
        let devp =
          Tcad.Structure.build { d with Tcad.Structure.polarity = Tcad.Structure.Pchannel }
        in
        let ssn =
          Tcad.Extract.subthreshold_slope (Tcad.Extract.id_vg ~points:9 ~vg_max:0.4 devn ~vd:0.05)
        in
        let ssp =
          Tcad.Extract.subthreshold_slope (Tcad.Extract.id_vg ~points:9 ~vg_max:0.4 devp ~vd:0.05)
        in
        Test_util.check_rel "mirror ss" ~rel:0.03 ssn ssp);
    slow "PFET current is lower by roughly the mobility ratio" (fun () ->
        let d = Tcad.Structure.default_description in
        let devn = Tcad.Structure.build d in
        let devp =
          Tcad.Structure.build { d with Tcad.Structure.polarity = Tcad.Structure.Pchannel }
        in
        let at dev =
          let s = Tcad.Extract.id_vg ~points:5 ~vg_max:0.3 dev ~vd:0.05 in
          s.Tcad.Extract.ids.(4)
        in
        Test_util.check_in_range "ratio" ~lo:1.5 ~hi:5.0 (at devn /. at devp));
    slow "vertical cut shows surface inversion when on" (fun () ->
        let dev = Tcad.Structure.build Tcad.Structure.default_description in
        let eq = Tcad.Gummel.equilibrium dev in
        let on =
          Tcad.Gummel.solve_at dev ~from:eq
            { Tcad.Poisson.zero_bias with Tcad.Poisson.gate = 0.6; drain = 0.05 }
        in
        (* The depth profile at the mesh column through mid-channel. *)
        let mesh = dev.Tcad.Structure.mesh in
        let ix = Tcad.Mesh.find_ix mesh dev.Tcad.Structure.x_channel_mid in
        let at field iy = Tcad.Field.get field (Tcad.Mesh.index mesh ~ix ~iy) in
        let last = mesh.Tcad.Mesh.ny - 1 in
        Alcotest.(check bool) "inverted surface" true
          (at on.Tcad.Gummel.n 0 > 1e6 *. at on.Tcad.Gummel.n (last / 2));
        Alcotest.(check bool) "p-type body" true
          (at on.Tcad.Gummel.p last > at on.Tcad.Gummel.n last));
  ]

let suite =
  [
    ("numerics.rng", rng_tests);
    ("analysis.variability", variability_tests);
    ("analysis.bitline", bitline_tests);
    ("scaling.multi_vth", multi_vth_tests);
    ("circuits.adder", adder_tests);
    ("device.temperature", temperature_tests);
    ("tcad.bipolar", tcad_bipolar_tests);
  ]
