(* Hot loops below read fields through [BA1] (Bigarray.Array1) directly:
   without flambda the [Field]/[Fvec] wrappers are true cross-module calls
   that box every float, which dominates assembly time on fine meshes. *)
module BA1 = Bigarray.Array1

type biases = { source : float; drain : float; gate : float; substrate : float }

let zero_bias = { source = 0.0; drain = 0.0; gate = 0.0; substrate = 0.0 }

type solution = {
  psi : Field.t;
  iterations : int;
  residual : float;
  converged : bool;
}

type scratch = { sys : Numerics.Stencil5.t; work : Field.t }

let make_scratch dev =
  let mesh = dev.Structure.mesh in
  let n = Mesh.n_nodes mesh in
  { sys = Numerics.Stencil5.create ~n ~m:mesh.Mesh.ny; work = Field.create n }

let q = Physics.Constants.q
let eps_si = Physics.Constants.eps_si
let eps_ox = Physics.Constants.eps_ox

(* Clamp Boltzmann exponents: e^200 would overflow after multiplication by
   n_i; carriers beyond this clamp are unphysical anyway. *)
let safe_exp a = exp (Float.max (-120.0) (Float.min 120.0 a))

let equilibrium_guess dev = Field.copy dev.Structure.bulk_phi

let iterations_hist = Obs.Metrics.histogram "tcad.poisson.iterations"

let max_iter = 80

let solve ?(tol = 1e-9) ?(quiet = false) ?scratch dev ~biases ~phi_n ~phi_p ~psi0 =
  let mesh = dev.Structure.mesh in
  let nx = mesh.Mesh.nx and ny = mesh.Mesh.ny in
  let n = nx * ny in
  if Field.length psi0 <> n || Field.length phi_n <> n || Field.length phi_p <> n then
    invalid_arg
      (Printf.sprintf
         "Poisson.solve: state length mismatch (psi0 %d, phi_n %d, phi_p %d; %dx%d mesh \
          needs %d)"
         (Field.length psi0) (Field.length phi_n) (Field.length phi_p) nx ny n);
  let { sys = a; work = dpsi } =
    match scratch with
    | Some s ->
      if Numerics.Stencil5.order s.sys <> n || Numerics.Stencil5.offset s.sys <> ny then
        invalid_arg
          (Printf.sprintf
             "Poisson.solve: scratch shape mismatch (scratch is order %d offset %d, \
              %dx%d mesh needs order %d offset %d)"
             (Numerics.Stencil5.order s.sys)
             (Numerics.Stencil5.offset s.sys)
             nx ny n ny);
      s
    | None -> make_scratch dev
  in
  let hx = mesh.Mesh.hx and hy = mesh.Mesh.hy in
  let wxs = mesh.Mesh.wx and wys = mesh.Mesh.wy in
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let psi = Field.copy psi0 in
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
          Numerics.Stencil5.set_row a k ~west:0.0 ~south:0.0 ~diag:1.0 ~north:0.0 ~east:0.0
            ~rhs:r;
          max_update_estimate := Float.max !max_update_estimate (Float.abs r)
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
          Numerics.Stencil5.set_row a k ~west:g_w ~south:g_s ~diag:!diag ~north:g_n ~east:g_e
            ~rhs:(-. !f);
          max_update_estimate := Float.max !max_update_estimate (Float.abs (!f /. !diag))
        end
      done
    done;
    !max_update_estimate
  in
  (* Bank–Rose style damping: each node moves at most a few thermal
     voltages per iteration, which keeps the Boltzmann terms from exploding
     while letting already-converged regions take full Newton steps. *)
  let _ = Numerics.Guard.fvec ~origin:"Poisson.solve: initial potential" psi in
  let clamp = 10.0 *. vt in
  let rec iterate iter =
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
      Obs.Trace.instant ~cat:"tcad"
        ~attrs:[ ("iteration", Obs.Trace.I iter); ("scaled_residual", Obs.Trace.F scaled_res) ]
        "poisson.iter";
      Numerics.Stencil5.solve a ~dst:dpsi;
      for k = 0 to n - 1 do
        let d = Float.max (-.clamp) (Float.min clamp (BA1.unsafe_get dpsi k)) in
        BA1.unsafe_set psi k (BA1.unsafe_get psi k +. d)
      done;
      iterate (iter + 1)
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
  let sol = iterate 0 in
  Obs.Metrics.observe iterations_hist (float_of_int sol.iterations);
  sol
