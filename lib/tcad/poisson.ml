(* Hot loops below read and write fields through [BA1] (Bigarray.Array1)
   directly, and pass no float through a closure or a cross-module call:
   without flambda — and under dune's default dev profile, which compiles
   every library with -opaque — the [Field]/[Fvec]/[Stencil5] wrappers and
   [Float.min]/[Float.max] are true calls that box every float, which
   dominated assembly time and allocation. *)
module BA1 = Bigarray.Array1

type biases = { source : float; drain : float; gate : float; substrate : float }

let zero_bias = { source = 0.0; drain = 0.0; gate = 0.0; substrate = 0.0 }

type solution = {
  psi : Field.t;
  iterations : int;
  residual : float;
  converged : bool;
}

type iterate = {
  psi : Field.t;
  u : Field.t;
  w : Field.t;
  n : Field.t;
  p : Field.t;
  phi_n : Field.t;
  phi_p : Field.t;
}

(* Newest first in every array; [weights] is [extrapolate]'s workspace. *)
type history = {
  at : float array;
  psi_at : Field.t array;
  phi_n_at : Field.t array;
  phi_p_at : Field.t array;
  weights : float array;
  mutable kept : int;
}

type scratch = {
  sys : Numerics.Stencil5.t;
  work : Field.t;
  expo : Field.t;
  boltz : Field.t;
  ping : iterate;
  pong : iterate;
  history : history;
}

let make_iterate n =
  let f () = Field.create n in
  { psi = f (); u = f (); w = f (); n = f (); p = f (); phi_n = f (); phi_p = f () }

let make_history n =
  let depth = 4 in
  let fields () = Array.init depth (fun _ -> Field.create n) in
  {
    at = Array.make depth 0.0;
    psi_at = fields ();
    phi_n_at = fields ();
    phi_p_at = fields ();
    weights = Array.make depth 0.0;
    kept = 0;
  }

let make_scratch dev =
  let mesh = dev.Structure.mesh in
  let n = Mesh.n_nodes mesh in
  {
    sys = Numerics.Stencil5.create ~n ~m:mesh.Mesh.ny;
    work = Field.create n;
    expo = Field.create n;
    boltz = Field.create n;
    ping = make_iterate n;
    pong = make_iterate n;
    history = make_history n;
  }

(* --- a warm sweep's kept states ----------------------------------------- *)

let check_history_lengths name s psi phi_n phi_p =
  let n = Field.length s.history.psi_at.(0) in
  if Field.length psi <> n || Field.length phi_n <> n || Field.length phi_p <> n then
    invalid_arg (Printf.sprintf "Poisson.%s: a field's length is not the scratch's %d nodes" name n)

let forget s = s.history.kept <- 0

(* The oldest slot's buffers are recycled for the newest state, so nothing
   per node is allocated. *)
let remember s ~at ~psi ~phi_n ~phi_p =
  check_history_lengths "remember" s psi phi_n phi_p;
  let h = s.history in
  let d = Array.length h.at in
  let rotate (a : Field.t array) =
    let oldest = a.(d - 1) in
    Array.blit a 0 a 1 (d - 1);
    a.(0) <- oldest
  in
  rotate h.psi_at;
  rotate h.phi_n_at;
  rotate h.phi_p_at;
  Array.blit h.at 0 h.at 1 (d - 1);
  h.at.(0) <- at;
  Field.blit psi h.psi_at.(0);
  Field.blit phi_n h.phi_n_at.(0);
  Field.blit phi_p h.phi_p_at.(0);
  h.kept <- Int.min d (h.kept + 1)

(* Extrapolation weights above this mean the kept biases crowd together
   relative to the step ahead (a coalesced grid can hold two points 1 ulp
   apart), where the polynomial amplifies rather than predicts.  A cubic
   one step ahead on an even grid needs 6. *)
let max_weight = 8.0

(* Lagrange weights at [x] through the newest [order] kept biases, into
   [h.weights]; false when one is beyond [max_weight] or not finite. *)
let lagrange_weights h order x =
  let w = h.weights in
  let bounded = ref true in
  for j = 0 to order - 1 do
    let l = ref 1.0 in
    for i = 0 to order - 1 do
      if i <> j then l := !l *. (x -. h.at.(i)) /. (h.at.(j) -. h.at.(i))
    done;
    w.(j) <- !l;
    if not (Float.abs !l <= max_weight) then bounded := false
  done;
  !bounded

(* dst = sum_j weights.(j) src.(j), over the first [order] sources.  Every
   source is one of the history's own fields and [dst] has been checked to
   match them, so the loop reads unchecked. *)
let combine h order (src : Field.t array) (dst : Field.t) =
  let w = h.weights in
  for k = 0 to Field.length dst - 1 do
    let acc = ref 0.0 in
    for j = 0 to order - 1 do
      acc := !acc +. (w.(j) *. BA1.unsafe_get (Array.unsafe_get src j) k)
    done;
    BA1.unsafe_set dst k !acc
  done

let extrapolate s ~at ~psi ~phi_n ~phi_p =
  check_history_lengths "extrapolate" s psi phi_n phi_p;
  let h = s.history in
  (* The highest order whose weights stay bounded; below 2 (no history,
     or only crowded points) there is nothing to extrapolate. *)
  let rec order k = if k < 2 || lagrange_weights h k at then k else order (k - 1) in
  let k = order h.kept in
  if k < 2 then false
  else begin
    combine h k h.psi_at psi;
    combine h k h.phi_n_at phi_n;
    combine h k h.phi_p_at phi_p;
    true
  end

let q = Physics.Constants.q
let eps_si = Physics.Constants.eps_si
let eps_ox = Physics.Constants.eps_ox

(* [Float.max lo (Float.min hi a)] for [lo < 0 < hi], bit for bit: NaN
   passes through (no comparison holds) and so does -0. *)
let[@inline] clamp lo hi (a : float) = if a > hi then hi else if a < lo then lo else a

(* [Float.max m x] for a running maximum [m] of [Float.abs] values, bit for
   bit: once either is NaN the result stays NaN, so a NaN residual can never
   read as converged. *)
let[@inline] running_max m (x : float) = if x > m || Float.is_nan x then x else m

(* Clamp Boltzmann exponents: e^200 would overflow after multiplication by
   n_i; carriers beyond this clamp are unphysical anyway. *)
let[@inline] safe_exp a = exp (clamp (-120.0) 120.0 a)

let equilibrium_guess dev = Field.copy dev.Structure.bulk_phi

let iterations_hist = Obs.Metrics.histogram "tcad.poisson.iterations"

let max_iter = 80

let solve_into ~tol ~quiet s dev ~biases ~(phi_n : Field.t) ~(phi_p : Field.t) ~psi0 ~dst =
  let mesh = dev.Structure.mesh in
  let nx = mesh.Mesh.nx and ny = mesh.Mesh.ny in
  let n = nx * ny in
  if Field.length psi0 <> n || Field.length phi_n <> n || Field.length phi_p <> n then
    invalid_arg
      (Printf.sprintf
         "Poisson.solve: state length mismatch (psi0 %d, phi_n %d, phi_p %d; %dx%d mesh \
          needs %d)"
         (Field.length psi0) (Field.length phi_n) (Field.length phi_p) nx ny n);
  if Numerics.Stencil5.order s.sys <> n || Numerics.Stencil5.offset s.sys <> ny then
    invalid_arg
      (Printf.sprintf
         "Poisson.solve: scratch shape mismatch (scratch is order %d offset %d, %dx%d mesh \
          needs order %d offset %d)"
         (Numerics.Stencil5.order s.sys)
         (Numerics.Stencil5.offset s.sys)
         nx ny n ny);
  if Field.length dst <> n then
    invalid_arg (Printf.sprintf "Poisson.solve_into: dst has %d nodes, mesh needs %d"
                   (Field.length dst) n);
  let a = s.sys and dpsi = s.work in
  let psi = dst in
  Field.blit psi0 psi;
  let { Numerics.Stencil5.west; south; diag = d0; north; east; rhs } =
    Numerics.Stencil5.rows a
  in
  let hx = mesh.Mesh.hx and hy = mesh.Mesh.hy in
  let wxs = mesh.Mesh.wx and wys = mesh.Mesh.wy in
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let bmask = dev.Structure.bmask and bulk_phi = dev.Structure.bulk_phi in
  let net_doping = dev.Structure.net_doping in
  let tox = dev.Structure.desc.Structure.tox in
  (* Applied terminal biases indexed by [mask code - first_ohmic]. *)
  let tb = [| biases.source; biases.drain; biases.gate; biases.substrate |] in
  let gate_pot = biases.gate +. dev.Structure.gate_potential_offset in
  (* Assemble residual F(psi) and Jacobian; returns residual inf-norm scaled
     by the diagonal (units of volts).  Every row is written, so no clear. *)
  let assemble () =
    let max_update_estimate = ref 0.0 in
    for ix = 0 to nx - 1 do
      let wx = Array.unsafe_get wxs ix in
      let inv_hxw = if ix > 0 then 1.0 /. Array.unsafe_get hx (ix - 1) else 0.0 in
      let inv_hxe = if ix < nx - 1 then 1.0 /. Array.unsafe_get hx ix else 0.0 in
      for iy = 0 to ny - 1 do
        let k = (ix * ny) + iy in
        let code = BA1.unsafe_get bmask k in
        if code >= Field.Mask.first_ohmic then begin
          let value =
            Array.unsafe_get tb (code - Field.Mask.first_ohmic) +. BA1.unsafe_get bulk_phi k
          in
          let r = -.(BA1.unsafe_get psi k -. value) in
          BA1.unsafe_set west k 0.0;
          BA1.unsafe_set south k 0.0;
          BA1.unsafe_set d0 k 1.0;
          BA1.unsafe_set north k 0.0;
          BA1.unsafe_set east k 0.0;
          BA1.unsafe_set rhs k r;
          max_update_estimate := running_max !max_update_estimate (Float.abs r)
        end
        else begin
          let wy = Array.unsafe_get wys iy in
          let psi_k = BA1.unsafe_get psi k in
          let diag = ref 0.0 and f = ref 0.0 in
          let g_w =
            if ix > 0 then begin
              let g = eps_si *. wy *. inv_hxw in
              f := !f +. (g *. (BA1.unsafe_get psi (k - ny) -. psi_k));
              diag := !diag -. g;
              g
            end
            else 0.0
          in
          let g_e =
            if ix < nx - 1 then begin
              let g = eps_si *. wy *. inv_hxe in
              f := !f +. (g *. (BA1.unsafe_get psi (k + ny) -. psi_k));
              diag := !diag -. g;
              g
            end
            else 0.0
          in
          let g_s =
            if iy > 0 then begin
              let g = eps_si *. wx /. Array.unsafe_get hy (iy - 1) in
              f := !f +. (g *. (BA1.unsafe_get psi (k - 1) -. psi_k));
              diag := !diag -. g;
              g
            end
            else 0.0
          in
          let g_n =
            if iy < ny - 1 then begin
              let g = eps_si *. wx /. Array.unsafe_get hy iy in
              f := !f +. (g *. (BA1.unsafe_get psi (k + 1) -. psi_k));
              diag := !diag -. g;
              g
            end
            else 0.0
          in
          (* Oxide Robin term on gate-surface boxes. *)
          if code = Field.Mask.gate_surface then begin
            let g_ox = eps_ox *. wx /. tox in
            f := !f +. (g_ox *. (gate_pot -. psi_k));
            diag := !diag -. g_ox
          end;
          (* Space charge. *)
          let vol = wx *. wy in
          let n_e = ni *. safe_exp ((psi_k -. BA1.unsafe_get phi_n k) /. vt) in
          let p_h = ni *. safe_exp ((BA1.unsafe_get phi_p k -. psi_k) /. vt) in
          let charge = q *. (p_h -. n_e +. BA1.unsafe_get net_doping k) *. vol in
          f := !f +. charge;
          diag := !diag -. (q *. (p_h +. n_e) /. vt *. vol);
          BA1.unsafe_set west k g_w;
          BA1.unsafe_set south k g_s;
          BA1.unsafe_set d0 k !diag;
          BA1.unsafe_set north k g_n;
          BA1.unsafe_set east k g_e;
          BA1.unsafe_set rhs k (-. !f);
          max_update_estimate := running_max !max_update_estimate (Float.abs (!f /. !diag))
        end
      done
    done;
    !max_update_estimate
  in
  (* Bank–Rose style damping: each node moves at most a few thermal
     voltages per iteration, which keeps the Boltzmann terms from exploding
     while letting already-converged regions take full Newton steps. *)
  let _ = Numerics.Guard.fvec ~origin:"Poisson.solve: initial potential" psi in
  let step = 10.0 *. vt in
  (* Chord Newton: the first step factors the Jacobian, and later steps
     substitute through that factorization while the residual keeps
     contracting at least tenfold per step, refactoring once it does not.
     The factorization never outlives this solve. *)
  let rec iterate iter last_res =
    let scaled_res = assemble () in
    if scaled_res <= tol then begin
      let _ = Numerics.Guard.fvec ~origin:"Poisson.solve: converged potential" psi in
      { psi; iterations = iter; residual = scaled_res; converged = true }
    end
    else if iter >= max_iter then begin
      if not quiet then
        Obs.non_converged ~solver:"tcad.poisson"
          ~attrs:
            [
              ("gate", Obs.Trace.F biases.gate);
              ("drain", Obs.Trace.F biases.drain);
              ("residual", Obs.Trace.F scaled_res);
              ("iterations", Obs.Trace.I iter);
            ]
          (Printf.sprintf "Newton stalled at Vg=%.3f Vd=%.3f (residual %.2e after %d iterations)"
             biases.gate biases.drain scaled_res iter);
      { psi; iterations = iter; residual = scaled_res; converged = false }
    end
    else begin
      (* The attrs are built only when a trace will keep them. *)
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"tcad"
          ~attrs:[ ("iteration", Obs.Trace.I iter); ("scaled_residual", Obs.Trace.F scaled_res) ]
          "poisson.iter";
      (* Negated, so a NaN residual refactors. *)
      if iter = 0 || not (scaled_res <= 0.1 *. last_res) then Numerics.Stencil5.factor a;
      Field.blit rhs dpsi;
      Numerics.Stencil5.substitute a ~dst:dpsi;
      for k = 0 to n - 1 do
        let d = clamp (-.step) step (BA1.unsafe_get dpsi k) in
        BA1.unsafe_set psi k (BA1.unsafe_get psi k +. d)
      done;
      iterate (iter + 1) scaled_res
    end
  in
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:
      [
        ("nx", Obs.Trace.I nx);
        ("ny", Obs.Trace.I ny);
        ("gate", Obs.Trace.F biases.gate);
        ("drain", Obs.Trace.F biases.drain);
      ]
    "poisson.solve"
  @@ fun () ->
  let sol = iterate 0 infinity in
  Obs.Metrics.observe iterations_hist (float_of_int sol.iterations);
  sol

let solve ?(tol = 1e-9) ?(quiet = false) ?scratch dev ~biases ~phi_n ~phi_p ~psi0 =
  let s = match scratch with Some s -> s | None -> make_scratch dev in
  solve_into ~tol ~quiet s dev ~biases ~phi_n ~phi_p ~psi0 ~dst:(Field.create (Field.length psi0))
