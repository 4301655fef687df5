(* The declarative seed of the UNT unit-inference pass: a unit-string
   grammar ("V/dec", "m^-3", "F/m^2", "A*s") and the signature tables for
   the dimensioned surface of the model chain — Physics.Constants, Silicon,
   Mobility, the compact-model parameter records, the Tcad accessors.

   The tables are written against source-level names ("Silicon.
   fermi_potential", record type "Params.physical") and matched by path
   suffix after demangling, so both real library code and the lint fixtures
   (which define local modules of the same shape) hit the same entries.

   Only what the table names is known; everything else is Unknown and the
   pass stays silent about it.  Growing the table is how ROADMAP items 3-5
   extend the checker. *)

module Dim = Dimension

(* --- unit-string grammar ------------------------------------------------ *)

(* <unit> ::= <term> ('/' <term>)*      divide successive terms
   <term> ::= <atom> ('*' <atom>)*
   <atom> ::= <name> ('^' <int>)?      e.g. "m", "cm^-3", "V", "1"

   Atoms are SI base quantities, the derived units that reduce onto them,
   or display units (nm, um, cm, pA) that carry the same exponents tagged
   with the original unit string — the tag UNT003 compares. *)

type atom = { a_dim : Dim.t; a_display : bool }

let si d = { a_dim = d; a_display = false }
let display d = { a_dim = d; a_display = true }

let atoms =
  let m = Dim.base `M and s = Dim.base `S and v = Dim.base `V in
  let a = Dim.base `A and k = Dim.base `K in
  [ ("1", si Dim.dimensionless);
    ("m", si m);
    ("s", si s);
    ("V", si v);
    ("A", si a);
    ("K", si k);
    (* derived units, reduced onto the base *)
    ("C", si (Dim.mul a s));                         (* coulomb *)
    ("F", si (Dim.div (Dim.mul a s) v));             (* farad *)
    ("J", si (Dim.mul v (Dim.mul a s)));             (* joule *)
    ("W", si (Dim.mul v a));                         (* watt *)
    ("S", si (Dim.div a v));                         (* siemens *)
    ("Ohm", si (Dim.div v a));
    ("Hz", si (Dim.inv s));
    ("eV", si v);  (* energies are per elementary charge throughout *)
    ("dec", si Dim.dimensionless);  (* decades of current: a pure count *)
    (* display units: same physics, non-SI scale *)
    ("nm", display m);
    ("um", display m);
    ("cm", display m);
    ("pA", display a) ]

let parse_exponent s =
  match String.index_opt s '^' with
  | None -> Ok (s, Dim.rat_of_int 1)
  | Some i ->
    let name = String.sub s 0 i in
    let e = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt e with
     | Some n -> Ok (name, Dim.rat_of_int n)
     | None -> Error (Printf.sprintf "bad exponent %S" e))

let parse text =
  let text = String.trim text in
  if text = "" then Error "empty unit string"
  else begin
    let any_display = ref false in
    let atom s =
      match parse_exponent (String.trim s) with
      | Error _ as e -> e
      | Ok (name, e) ->
        (match List.assoc_opt name atoms with
         | None -> Error (Printf.sprintf "unknown unit atom %S" name)
         | Some a ->
           if a.a_display then any_display := true;
           Ok (Dim.pow a.a_dim e))
    in
    let term s =
      List.fold_left
        (fun acc part ->
          match (acc, atom part) with
          | (Error _ as e), _ | _, (Error _ as e) -> e
          | Ok d, Ok d' -> Ok (Dim.mul d d'))
        (Ok Dim.dimensionless)
        (String.split_on_char '*' s)
    in
    let combined =
      match String.split_on_char '/' text with
      | [] -> Error "empty unit string"
      | first :: rest ->
        List.fold_left
          (fun acc part ->
            match (acc, term part) with
            | (Error _ as e), _ | _, (Error _ as e) -> e
            | Ok d, Ok d' -> Ok (Dim.div d d'))
          (term first) rest
    in
    match combined with
    | Error _ as e -> e
    | Ok (Dim.Dim d) when !any_display -> Ok (Dim.Dim { d with scale = Dim.Display text })
    | Ok d -> Ok d
  end

(* Table entries are our own source; a typo is a programming error, so
   constructing from a malformed string raises at module initialization. *)
let u text =
  match parse text with
  | Ok d -> d
  | Error msg -> invalid_arg (Printf.sprintf "Unit_sig: bad unit %S (%s)" text msg)

(* --- signature tables --------------------------------------------------- *)

type arg_spec = Pos of int | Lab of string
(** [Pos n]: the n-th [Nolabel] argument (0-based); [Lab l]: the argument
    labelled (or optionally labelled) [l]. *)

type fn_sig = { fn_args : (arg_spec * Dim.t) list; fn_result : Dim.t }

let fn args result = { fn_args = List.map (fun (a, s) -> (a, u s)) args; fn_result = u result }

(* Zero-argument dimensioned values, by path suffix. *)
let constants =
  [ ("Constants.q", "C");
    ("Constants.k_boltzmann", "J/K");
    ("Constants.eps0", "F/m");
    ("Constants.eps_si", "F/m");
    ("Constants.eps_ox", "F/m");
    ("Constants.t_room", "K");
    ("Constants.vt_room", "V");
    ("Silicon.ni_room", "m^-3");
    ("Eqs.sd_doping", "m^-3");
    ("Compact.mobility_ratio", "1") ]
  |> List.map (fun (n, s) -> (n, u s))

(* Functions with dimensioned float arguments/results, by path suffix.
   Non-float arguments (records, variants, vectors) simply have no spec:
   the pass only consults specs at float positions. *)
let functions =
  [ (* Physics.Constants conversions: the only sanctioned crossings
       between the SI core and display units. *)
    ("Constants.thermal_voltage", fn [ (Pos 0, "K") ] "V");
    ("Constants.nm", fn [ (Pos 0, "nm") ] "m");
    ("Constants.um", fn [ (Pos 0, "um") ] "m");
    ("Constants.to_nm", fn [ (Pos 0, "m") ] "nm");
    ("Constants.per_cm3", fn [ (Pos 0, "cm^-3") ] "m^-3");
    ("Constants.to_per_cm3", fn [ (Pos 0, "m^-3") ] "cm^-3");
    ("Constants.pa_per_um", fn [ (Pos 0, "pA/um") ] "A/m");
    ("Constants.to_pa_per_um", fn [ (Pos 0, "A/m") ] "pA/um");
    (* Physics.Silicon *)
    ("Silicon.intrinsic_density", fn [ (Pos 0, "K") ] "m^-3");
    ("Silicon.fermi_potential", fn [ (Lab "t", "K"); (Pos 0, "m^-3") ] "V");
    ("Silicon.depletion_width", fn [ (Lab "psi", "V"); (Lab "doping", "m^-3") ] "m");
    ("Silicon.builtin_potential", fn [ (Lab "t", "K"); (Pos 0, "m^-3"); (Pos 1, "m^-3") ] "V");
    ("Silicon.bulk_potential_of_net_doping", fn [ (Lab "t", "K"); (Pos 0, "m^-3") ] "V");
    (* Physics.Mobility (Pos 0 is the carrier variant — no spec) *)
    ("Mobility.low_field", fn [ (Pos 1, "m^-3") ] "m^2/V/s");
    ("Mobility.effective_field_degradation",
     fn [ (Lab "mu0", "m^2/V/s"); (Lab "e_eff", "V/m"); (Lab "e_crit", "V/m");
          (Lab "exponent", "1") ]
       "m^2/V/s");
    ("Mobility.channel", fn [ (Lab "t", "K"); (Pos 1, "m^-3") ] "m^2/V/s");
    ("Mobility.critical_field", fn [ (Pos 1, "m^-3") ] "V/m");
    (* Device.Iv_model / Compact (Pos 0 is the compact record — no spec) *)
    ("Iv_model.specific_current", fn [] "A/m");
    ("Iv_model.id", fn [ (Lab "vgs", "V"); (Lab "vds", "V") ] "A/m");
    ("Iv_model.ioff", fn [ (Lab "vdd", "V") ] "A/m");
    ("Iv_model.ion", fn [ (Lab "vdd", "V") ] "A/m");
    ("Iv_model.on_off_ratio", fn [ (Lab "vdd", "V") ] "1");
    ("Iv_model.intrinsic_delay", fn [ (Lab "vdd", "V") ] "s");
    ("Iv_model.threshold_const_current", fn [ (Lab "vds", "V") ] "V");
    ("Compact.vth", fn [ (Lab "vds", "V") ] "V");
    ("Compact.dibl", fn [] "1");
    (* Tcad accessors *)
    ("Structure.effective_channel_length", fn [] "m");
    ("Mesh.dual_width_y", fn [] "m");
    ("Extract.subthreshold_slope", fn [] "V/dec");
    ("Extract.threshold_voltage", fn [] "V");
    ("Extract.current_at", fn [ (Pos 1, "V") ] "A/m");
    (* Circuits *)
    ("Inverter.gate_capacitance", fn [] "F");
    ("Inverter.load_capacitance", fn [] "F") ]

(* Record fields, keyed by (record type path suffix, field name).  Only
   float fields appear; accessing any other field stays Unknown. *)
let fields =
  [ (* Device.Params *)
    ("Params.physical",
     [ ("lpoly", "m"); ("tox", "m"); ("nsub", "m^-3"); ("np_halo", "m^-3"); ("vdd", "V") ]);
    ("Params.calibration",
     [ ("xj_fraction", "1"); ("overlap_fraction", "1"); ("k_halo", "1"); ("k_body", "1");
       ("k_sce", "1"); ("k_lambda", "1"); ("lambda_xj_exp", "1"); ("halo_sce_exp", "1");
       ("ss_offset", "V/dec"); ("k_vth_sce", "1"); ("k_dibl", "1"); ("vth_offset", "V");
       ("mu_factor", "1"); ("fringe_cap", "F/m"); ("load_factor", "1") ]);
    (* Device.Compact *)
    ("Compact.t",
     [ ("leff", "m"); ("xj", "m"); ("overlap", "m"); ("neff", "m^-3"); ("phi_f", "V");
       ("wdep", "m"); ("cox", "F/m^2"); ("m", "1"); ("ss", "V/dec"); ("vth0", "V");
       ("vbi", "V"); ("lt", "m"); ("mu", "m^2/V/s"); ("cg", "F/m"); ("cg_intrinsic", "F/m");
       ("temperature", "K") ]);
    (* Tcad.Structure *)
    ("Structure.description",
     [ ("lpoly", "m"); ("tox", "m"); ("nsub", "m^-3"); ("np_halo", "m^-3"); ("xj", "m");
       ("nsd", "m^-3"); ("overlap", "m"); ("halo_depth_frac", "1"); ("halo_sigma_frac", "1");
       ("gate_doping", "m^-3"); ("temperature", "K") ]);
    ("Structure.t",
     [ ("gate_potential_offset", "V"); ("x_channel_mid", "m"); ("ni", "m^-3"); ("vt", "V") ]);
    (* Tcad solvers and extraction *)
    ("Poisson.biases", [ ("source", "V"); ("drain", "V"); ("gate", "V"); ("substrate", "V") ]);
    ("Poisson.solution", [ ("residual", "V") ]);
    ("Gummel.state", [ ("drain_current", "A/m") ]);
    ("Extract.sweep", [ ("vd", "V") ]);
    ("Extract.output_sweep", [ ("vg", "V") ]);
    ("Extract.characteristics",
     [ ("ss", "V/dec"); ("vth_lin", "V"); ("vth_sat", "V"); ("dibl", "1"); ("ioff", "A/m");
       ("ion_sub", "A/m"); ("on_off_ratio_sub", "1"); ("leff", "m") ]);
    (* Circuits *)
    ("Inverter.sizing", [ ("wn", "m"); ("wp", "m") ]) ]
  |> List.map (fun (r, fs) -> (r, List.map (fun (f, s) -> (f, u s)) fs))

(* Polymorphic container round-trips the pass cannot follow: element
   dimensions entering these are lost (UNT005's subject). *)
let containers =
  [ "List.map"; "List.rev_map"; "List.mapi"; "List.map2"; "List.filter_map";
    "List.concat_map"; "List.fold_left"; "List.fold_right"; "Array.map"; "Array.mapi";
    "Array.fold_left"; "Array.fold_right"; "Array.map2"; "Seq.map" ]

(* --- lookups ------------------------------------------------------------ *)

let constant name =
  List.find_map
    (fun (c, d) -> if Paths.suffix_matches ~candidates:[ c ] name then Some d else None)
    constants

let function_sig name =
  List.find_map
    (fun (c, s) -> if Paths.suffix_matches ~candidates:[ c ] name then Some s else None)
    functions

let field ~record ~name =
  List.find_map
    (fun (r, fs) ->
      if Paths.suffix_matches ~candidates:[ r ] record then List.assoc_opt name fs else None)
    fields

let container_round_trip name = Paths.suffix_matches ~candidates:containers name

(* Every table entry parsed (the [u] calls above ran at module
   initialization); check each arg spec the same way, so a malformed
   entry fails whatever links the table, before any lint runs. *)
let () =
  List.iter
    (fun (n, { fn_args; _ }) ->
      List.iter
        (function
          | Pos i, _ when i < 0 ->
            invalid_arg (Printf.sprintf "Unit_sig: negative arg position in %s" n)
          | Lab "", _ -> invalid_arg (Printf.sprintf "Unit_sig: empty label in %s" n)
          | _ -> ())
        fn_args)
    functions
