(* Determinism and memo-soundness rules — the second half of [subscale
   audit].

   A memo table is sound iff its key covers everything the cached
   computation reads: any input that can vary between calls but is not
   encoded in the key is a stale-cache hazard (two different inputs alias
   to one cache line; whichever computes first poisons the other).  Three
   independent mechanisms triangulate this:

   - AUD011 (static): the traced read-set of a computation (collected by
     [Device.Params.Trace]) is cross-checked against the field list its
     key encodes, and each keyed field is differentially checked to
     actually move the key;
   - AUD012 (dynamic): [Exec.Memo]'s audit mode recomputes on every hit
     and records any cached-vs-fresh mismatch — catching hazards through
     inputs no trace instruments (globals, environment);
   - AUD013 (schedules): a sweep replayed under adversarial pool
     schedules ([Exec.set_schedule_seed]) must produce bit-exact output;
     a diff convicts order dependence no order-preserving golden test can
     see, because the natural schedule is exactly the one the golden run
     used. *)

let rule_key_coverage =
  Rules.register ~summary:"memo key does not cover the computation's read-set" "AUD011"

let rule_shadow_mismatch =
  Rules.register ~summary:"memo shadow recompute disagreed with the cached value" "AUD012"

let rule_schedule_mismatch =
  Rules.register ~summary:"sweep output differs under a perturbed pool schedule" "AUD013"

let cross_check ~what ~covered ~reads =
  let uncovered = List.filter (fun r -> not (List.mem r covered)) reads in
  List.map
    (fun field ->
      Diagnostic.error ~rule:rule_key_coverage ~location:what
        ~hint:"add the field to the Exec.Key encoding (and to its *_key_fields list)"
        (Printf.sprintf
           "field %S is read by the computation but not encoded in its memo key — a stale-cache hazard"
           field))
    uncovered

let key_sensitivity ~what ~field ~base_key ~perturbed_key =
  if String.equal base_key perturbed_key then
    [
      Diagnostic.error ~rule:rule_key_coverage ~location:what
        ~hint:"the key encoder drops or collapses this field"
        (Printf.sprintf
           "perturbing field %S does not change the memo key — two distinct inputs share a cache line"
           field);
    ]
  else []

(* Perturbation helpers for the key-sensitivity differential: every field a
   key claims to encode must actually move the key when it changes. *)
let bump x = (x *. (1.0 +. 1e-12)) +. 1e-30

module Pm = Device.Params

let perturb_physical field (p : Pm.physical) =
  match field with
  | "node_nm" -> { p with Pm.node_nm = p.Pm.node_nm + 1 }
  | "lpoly" -> { p with Pm.lpoly = bump p.Pm.lpoly }
  | "tox" -> { p with Pm.tox = bump p.Pm.tox }
  | "nsub" -> { p with Pm.nsub = bump p.Pm.nsub }
  | "np_halo" -> { p with Pm.np_halo = bump p.Pm.np_halo }
  | "vdd" -> { p with Pm.vdd = bump p.Pm.vdd }
  | "xj" ->
    { p with Pm.xj = Some (match p.Pm.xj with Some x -> bump x | None -> 1e-8) }
  | "overlap" ->
    { p with Pm.overlap = Some (match p.Pm.overlap with Some x -> bump x | None -> 1e-9) }
  | other -> invalid_arg ("perturb_physical: " ^ other)

let perturb_calibration field (c : Pm.calibration) =
  match field with
  | "xj_fraction" -> { c with Pm.xj_fraction = bump c.Pm.xj_fraction }
  | "overlap_fraction" -> { c with Pm.overlap_fraction = bump c.Pm.overlap_fraction }
  | "k_halo" -> { c with Pm.k_halo = bump c.Pm.k_halo }
  | "k_body" -> { c with Pm.k_body = bump c.Pm.k_body }
  | "k_sce" -> { c with Pm.k_sce = bump c.Pm.k_sce }
  | "k_lambda" -> { c with Pm.k_lambda = bump c.Pm.k_lambda }
  | "lambda_xj_exp" -> { c with Pm.lambda_xj_exp = bump c.Pm.lambda_xj_exp }
  | "halo_sce_exp" -> { c with Pm.halo_sce_exp = bump c.Pm.halo_sce_exp }
  | "ss_offset" -> { c with Pm.ss_offset = bump c.Pm.ss_offset }
  | "k_vth_sce" -> { c with Pm.k_vth_sce = bump c.Pm.k_vth_sce }
  | "k_dibl" -> { c with Pm.k_dibl = bump c.Pm.k_dibl }
  | "vth_offset" -> { c with Pm.vth_offset = bump c.Pm.vth_offset }
  | "mu_factor" -> { c with Pm.mu_factor = bump c.Pm.mu_factor }
  | "fringe_cap" -> { c with Pm.fringe_cap = bump c.Pm.fringe_cap }
  | "load_factor" -> { c with Pm.load_factor = bump c.Pm.load_factor }
  | other -> invalid_arg ("perturb_calibration: " ^ other)

module St = Tcad.Structure

(* Key-sensitivity differential over every input of [Structure.build]: each
   description field and the requested nx/ny, perturbed one at a time from
   a small mesh.  Whenever the built description or mesh changes, [key]
   must change, and so must [Structure.key_for], the key the daemon forms
   from the description and the mesh lines without building anything; at
   the base and at every perturbed input, [key_for] must equal [key] of
   the built structure.  A line-count perturbation can leave the mesh as
   it was (every nx = ny >= 39 builds one mesh); then there is nothing to
   tell apart.  The base (4, 9) and its ny + 1 build different meshes with
   the same line counts, the alias a count-based key had. *)
let structure_key_sensitivity ~key ~(key_for : ?nx:int -> ?ny:int -> St.description -> string) =
  let nx = 4 and ny = 9 and d = St.default_description in
  let flipped = if d.St.polarity = St.Nchannel then St.Pchannel else St.Nchannel in
  let inputs =
    [ ("polarity", nx, ny, { d with St.polarity = flipped });
      ("lpoly", nx, ny, { d with St.lpoly = bump d.St.lpoly });
      ("tox", nx, ny, { d with St.tox = bump d.St.tox });
      ("nsub", nx, ny, { d with St.nsub = bump d.St.nsub });
      ("np_halo", nx, ny, { d with St.np_halo = bump d.St.np_halo });
      ("xj", nx, ny, { d with St.xj = bump d.St.xj });
      ("nsd", nx, ny, { d with St.nsd = bump d.St.nsd });
      ("overlap", nx, ny, { d with St.overlap = bump d.St.overlap });
      ("halo_depth_frac", nx, ny, { d with St.halo_depth_frac = bump d.St.halo_depth_frac });
      ("halo_sigma_frac", nx, ny, { d with St.halo_sigma_frac = bump d.St.halo_sigma_frac });
      ("gate_doping", nx, ny, { d with St.gate_doping = bump d.St.gate_doping });
      ("temperature", nx, ny, { d with St.temperature = bump d.St.temperature });
      ("nx", nx + 1, ny, d);
      ("ny", nx, ny + 1, d) ]
  in
  let mesh s = (s.St.mesh.Tcad.Mesh.xs, s.St.mesh.Tcad.Mesh.ys) in
  let key_for_agrees input ~nx ~ny s key_for_s =
    if String.equal key_for_s (key s) then []
    else
      [ Diagnostic.error ~rule:rule_key_coverage ~location:"Tcad.Structure.key_for"
          ~hint:"key_for must compute the mesh lines exactly as build does"
          (Printf.sprintf
             "at input %S (nx %d, ny %d) key_for differs from the key of the structure \
              built from the same request — a memo hit would answer a different structure"
             input nx ny) ]
  in
  let base = St.build ~nx ~ny d in
  let base_key_for = key_for ~nx ~ny d in
  ( List.length inputs,
    key_for_agrees "base" ~nx ~ny base base_key_for
    @ List.concat_map
        (fun (field, nx', ny', d') ->
          let s = St.build ~nx:nx' ~ny:ny' d' in
          let key_for_s = key_for ~nx:nx' ~ny:ny' d' in
          key_for_agrees field ~nx:nx' ~ny:ny' s key_for_s
          @
          if s.St.desc = base.St.desc && mesh s = mesh base then []
          else
            key_sensitivity ~what:"Tcad.Structure.key" ~field ~base_key:(key base)
              ~perturbed_key:(key s)
            @ key_sensitivity ~what:"Tcad.Structure.key_for" ~field ~base_key:base_key_for
                ~perturbed_key:key_for_s)
        inputs )

let of_violations violations =
  List.map
    (fun (table, key) ->
      Diagnostic.error ~rule:rule_shadow_mismatch ~location:(Printf.sprintf "memo table %S" table)
        ~hint:"the key misses an input the thunk reads; widen the key"
        (Printf.sprintf
           "shadow recompute on a cache hit disagreed with the cached value (key %s)"
           (if String.length key > 48 then String.sub key 0 48 ^ "..." else key)))
    violations

let schedule_mismatch ~what ~seed =
  Diagnostic.error ~rule:rule_schedule_mismatch ~location:what
    ~hint:"look for shared mutable state or accumulation-order dependence in the mapped tasks"
    (Printf.sprintf
       "sweep output is not bit-exact under perturbed pool schedule (seed %d) — the parallel engine's determinism contract is broken"
       seed)
