(* As in [Poisson], the assembly loop reads fields through [BA1]
   (Bigarray.Array1) directly so the accesses compile to inline intrinsics
   under a non-flambda compiler. *)
module BA1 = Bigarray.Array1

type carrier = Electrons | Holes

type srh = { tau_n : float; tau_p : float }

let default_srh = { tau_n = 1e-7; tau_p = 1e-7 }

type solution = {
  u : Field.t;
  density : Field.t;
  quasi_fermi : Field.t;
}

let q = Physics.Constants.q

let safe_exp a = exp (Float.max (-200.0) (Float.min 200.0 a))

(* Exact average of e^{s psi/vt} over an edge with linearly varying psi,
   s = +1 for electrons, -1 for holes. *)
let exp_average ~sign vt psi_i psi_j =
  let a = sign *. psi_i /. vt and b = sign *. psi_j /. vt in
  let d = b -. a in
  if Float.abs d < 1e-9 then safe_exp (0.5 *. (a +. b))
  else (safe_exp b -. safe_exp a) /. d

let carrier_sign = function Electrons -> 1.0 | Holes -> -1.0

let terminal_bias (biases : Poisson.biases) = function
  | Structure.Source -> biases.Poisson.source
  | Structure.Drain -> biases.Poisson.drain
  | Structure.Gate -> biases.Poisson.gate
  | Structure.Substrate -> biases.Poisson.substrate

(* Ohmic-contact Slotboom value: electrons u = e^{-V/vt}, holes w = e^{V/vt}. *)
let contact_u ~sign vt biases term = safe_exp (-.sign *. terminal_bias biases term /. vt)

let solve ?recombination ?scratch dev ~carrier ~biases ~psi =
  let mesh = dev.Structure.mesh in
  let nx = mesh.Mesh.nx and ny = mesh.Mesh.ny in
  let n_nodes = nx * ny in
  if Field.length psi <> n_nodes then
    invalid_arg
      (Printf.sprintf "Continuity.solve: psi length mismatch (psi has %d, %dx%d mesh needs %d)"
         (Field.length psi) nx ny n_nodes);
  let hx = mesh.Mesh.hx and hy = mesh.Mesh.hy in
  let wxs = mesh.Mesh.wx and wys = mesh.Mesh.wy in
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let sign = carrier_sign carrier in
  let mob =
    match carrier with
    | Electrons -> dev.Structure.mobility_n
    | Holes -> dev.Structure.mobility_p
  in
  let a =
    match scratch with
    | Some (s : Poisson.scratch) ->
      if
        Numerics.Stencil5.order s.Poisson.sys <> n_nodes
        || Numerics.Stencil5.offset s.Poisson.sys <> ny
      then
        invalid_arg
          (Printf.sprintf
             "Continuity.solve: scratch shape mismatch (scratch is order %d offset %d, \
              %dx%d mesh needs order %d offset %d)"
             (Numerics.Stencil5.order s.Poisson.sys)
             (Numerics.Stencil5.offset s.Poisson.sys)
             nx ny n_nodes ny);
      s.Poisson.sys
    | None -> Numerics.Stencil5.create ~n:n_nodes ~m:ny
  in
  let bmask = dev.Structure.bmask in
  (* Applied terminal biases indexed by [mask code - first_ohmic]. *)
  let contact =
    [|
      contact_u ~sign vt biases Structure.Source;
      contact_u ~sign vt biases Structure.Drain;
      contact_u ~sign vt biases Structure.Gate;
      contact_u ~sign vt biases Structure.Substrate;
    |]
  in
  for ix = 0 to nx - 1 do
    let wx = Array.unsafe_get wxs ix in
    let inv_hxw = if ix > 0 then 1.0 /. Array.unsafe_get hx (ix - 1) else 0.0 in
    let inv_hxe = if ix < nx - 1 then 1.0 /. Array.unsafe_get hx ix else 0.0 in
    for iy = 0 to ny - 1 do
      let k = (ix * ny) + iy in
      let code = BA1.unsafe_get bmask k in
      if code >= Field.Mask.first_ohmic then
        Numerics.Stencil5.set_row a k ~west:0.0 ~south:0.0 ~diag:1.0 ~north:0.0 ~east:0.0
          ~rhs:(Array.unsafe_get contact (code - Field.Mask.first_ohmic))
      else begin
        let wy = Array.unsafe_get wys iy in
        let psi_k = BA1.unsafe_get psi k in
        let mob_k = BA1.unsafe_get mob k in
        let diag = ref 0.0 and rhs = ref 0.0 in
        let edge k' area inv_dist =
          let g =
            0.5 *. (mob_k +. BA1.unsafe_get mob k') *. vt *. ni *. area *. inv_dist
            *. exp_average ~sign vt psi_k (BA1.unsafe_get psi k')
          in
          diag := !diag +. g;
          g
        in
        let g_w = if ix > 0 then edge (k - ny) wy inv_hxw else 0.0 in
        let g_e = if ix < nx - 1 then edge (k + ny) wy inv_hxe else 0.0 in
        let g_s = if iy > 0 then edge (k - 1) (wx /. Array.unsafe_get hy (iy - 1)) 1.0 else 0.0 in
        let g_n = if iy < ny - 1 then edge (k + 1) (wx /. Array.unsafe_get hy iy) 1.0 else 0.0 in
        (* SRH: with the opposite carrier lagged, R is affine in the solved
           Slotboom variable; for either carrier the balance reads
           sum g (u_i - u_j) + vol a u_i = vol b,  a = ni^2 v_lag/D,
           b = ni^2/D, where v_lag is the lagged opposite Slotboom value at
           the *current* potential and D the lagged SRH denominator. *)
        (match recombination with
         | None -> ()
         | Some ({ tau_n; tau_p }, n_prev, p_prev) ->
           let vol = wx *. wy in
           let n_lag = Float.max (BA1.unsafe_get n_prev k) 0.0 in
           let p_lag = Float.max (BA1.unsafe_get p_prev k) 0.0 in
           let denom =
             Float.max 1e-30 ((tau_p *. (n_lag +. ni)) +. (tau_n *. (p_lag +. ni)))
           in
           let opposite = match carrier with Electrons -> p_lag | Holes -> n_lag in
           let v_lag = opposite /. ni *. safe_exp (sign *. psi_k /. vt) in
           diag := !diag +. (vol *. ni *. ni *. v_lag /. denom);
           rhs := !rhs +. (vol *. ni *. ni /. denom));
        let d = !diag in
        if d <= 0.0 then failwith "Continuity.solve: non-positive diagonal";
        (* Row scaling keeps pivots O(1) despite the e^{psi/vt} range. *)
        let inv = 1.0 /. d in
        Numerics.Stencil5.set_row a k ~west:(-.g_w *. inv) ~south:(-.g_s *. inv)
          ~diag:(d *. inv) ~north:(-.g_n *. inv) ~east:(-.g_e *. inv) ~rhs:(!rhs *. inv)
      end
    done
  done;
  let u = Field.create n_nodes in
  Numerics.Stencil5.solve a ~dst:u;
  for k = 0 to n_nodes - 1 do
    BA1.unsafe_set u k (Float.max (BA1.unsafe_get u k) 1e-300)
  done;
  let density =
    Field.init n_nodes (fun k ->
        ni *. BA1.unsafe_get u k *. safe_exp (sign *. BA1.unsafe_get psi k /. vt))
  in
  let quasi_fermi = Field.map (fun uk -> -.sign *. vt *. log uk) u in
  { u; density; quasi_fermi }

let terminal_current dev ~carrier ~psi ~u =
  let mesh = dev.Structure.mesh in
  let ny = mesh.Mesh.ny in
  let xs = mesh.Mesh.xs in
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let sign = carrier_sign carrier in
  let mob =
    match carrier with
    | Electrons -> dev.Structure.mobility_n
    | Holes -> dev.Structure.mobility_p
  in
  let ix = Int.min (Mesh.find_ix mesh dev.Structure.x_channel_mid) (mesh.Mesh.nx - 2) in
  let hx = xs.(ix + 1) -. xs.(ix) in
  let total = ref 0.0 in
  for iy = 0 to ny - 1 do
    let k = (ix * ny) + iy in
    let k' = ((ix + 1) * ny) + iy in
    let dy = Mesh.dual_width_y mesh iy in
    let g =
      0.5 *. (Field.get mob k +. Field.get mob k') *. vt *. ni
      *. exp_average ~sign vt (Field.get psi k) (Field.get psi k') /. hx
    in
    (* Electron particle flux i->j is proportional to (u_j - u_i) times -g;
       conventional current is opposite for electrons and aligned for holes;
       both reduce to the same signed expression via the carrier sign. *)
    total := !total +. (sign *. q *. g *. (Field.get u k' -. Field.get u k) *. dy)
  done;
  !total
