(* As in [Poisson], the assembly loop reads and writes fields through [BA1]
   (Bigarray.Array1) directly and passes no float through a closure or a
   cross-module call, so under a non-flambda compiler (and dune's dev-profile
   -opaque) every access is an inline intrinsic and no float is boxed. *)
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

(* [exp (Float.max (-200.0) (Float.min 200.0 a))], bit for bit: NaN passes
   through both comparisons, as it does through [Float.min]/[Float.max]. *)
let[@inline] safe_exp a = exp (if a > 200.0 then 200.0 else if a < -200.0 then -200.0 else a)

(* [Float.max lo x] for [lo >= +0], bit for bit: NaN passes and -0 gives
   +0. *)
let[@inline] at_least lo (x : float) = if x > lo || Float.is_nan x then x else lo

(* Exact average of e^x over an edge with x varying linearly from [a] to
   [b], given [ea = safe_exp a] and [eb = safe_exp b]. *)
let[@inline] edge_average a b ea eb =
  let d = b -. a in
  if Float.abs d < 1e-9 then safe_exp (0.5 *. (a +. b)) else (eb -. ea) /. d

(* The same with x = s psi/vt, s = +1 for electrons, -1 for holes. *)
let exp_average ~sign vt psi_i psi_j =
  let a = sign *. psi_i /. vt and b = sign *. psi_j /. vt in
  edge_average a b (safe_exp a) (safe_exp b)

let carrier_sign = function Electrons -> 1.0 | Holes -> -1.0

let terminal_bias (biases : Poisson.biases) = function
  | Structure.Source -> biases.Poisson.source
  | Structure.Drain -> biases.Poisson.drain
  | Structure.Gate -> biases.Poisson.gate
  | Structure.Substrate -> biases.Poisson.substrate

(* Ohmic-contact Slotboom value: electrons u = e^{-V/vt}, holes w = e^{V/vt}. *)
let contact_u ~sign vt biases term = safe_exp (-.sign *. terminal_bias biases term /. vt)

(* Row k's conductance to neighbour j: the Scharfetter–Gummel edge
   coefficient, the same float expression from either end. *)
let[@inline] edge_g (mob : Field.t) (expo : Field.t) (boltz : Field.t) ~vt ~ni ~mob_k ~x_k ~e_k j
    area inv_dist =
  0.5 *. (mob_k +. BA1.unsafe_get mob j) *. vt *. ni *. area *. inv_dist
  *. edge_average x_k (BA1.unsafe_get expo j) e_k (BA1.unsafe_get boltz j)

let solve_into ~(recombination : (srh * Field.t * Field.t) option) (s : Poisson.scratch) dev
    ~carrier ~biases ~(psi : Field.t) ~dst =
  let mesh = dev.Structure.mesh in
  let nx = mesh.Mesh.nx and ny = mesh.Mesh.ny in
  let n_nodes = nx * ny in
  if Field.length psi <> n_nodes then
    invalid_arg
      (Printf.sprintf "Continuity.solve: psi length mismatch (psi has %d, %dx%d mesh needs %d)"
         (Field.length psi) nx ny n_nodes);
  let a = s.Poisson.sys in
  if Numerics.Stencil5.order a <> n_nodes || Numerics.Stencil5.offset a <> ny then
    invalid_arg
      (Printf.sprintf
         "Continuity.solve: scratch shape mismatch (scratch is order %d offset %d, %dx%d mesh \
          needs order %d offset %d)"
         (Numerics.Stencil5.order a) (Numerics.Stencil5.offset a) nx ny n_nodes ny);
  let { u; density; quasi_fermi } = dst in
  if
    Field.length u <> n_nodes
    || Field.length density <> n_nodes
    || Field.length quasi_fermi <> n_nodes
  then invalid_arg "Continuity.solve_into: dst length mismatch";
  (match recombination with
   | Some (_, n_prev, p_prev)
     when Field.length n_prev <> n_nodes || Field.length p_prev <> n_nodes ->
     invalid_arg
       (Printf.sprintf
          "Continuity.solve: lagged density length mismatch (%d and %d, mesh needs %d)"
          (Field.length n_prev) (Field.length p_prev) n_nodes)
   | Some _ | None -> ());
  let hx = mesh.Mesh.hx and hy = mesh.Mesh.hy in
  let wxs = mesh.Mesh.wx and wys = mesh.Mesh.wy in
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let sign = carrier_sign carrier in
  let mob =
    match carrier with
    | Electrons -> dev.Structure.mobility_n
    | Holes -> dev.Structure.mobility_p
  in
  let { Numerics.Stencil5.west; south; diag = d0; north; east; rhs = r } =
    Numerics.Stencil5.rows a
  in
  (* The Boltzmann exponent s psi/vt and its safe_exp, once per node: the
     edge averages, v_lag and the density all read these. *)
  let expo = s.Poisson.expo and boltz = s.Poisson.boltz in
  for k = 0 to n_nodes - 1 do
    let x = sign *. BA1.unsafe_get psi k /. vt in
    BA1.unsafe_set expo k x;
    BA1.unsafe_set boltz k (safe_exp x)
  done;
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
      if code >= Field.Mask.first_ohmic then begin
        BA1.unsafe_set west k 0.0;
        BA1.unsafe_set south k 0.0;
        BA1.unsafe_set d0 k 1.0;
        BA1.unsafe_set north k 0.0;
        BA1.unsafe_set east k 0.0;
        BA1.unsafe_set r k (Array.unsafe_get contact (code - Field.Mask.first_ohmic))
      end
      else begin
        let wy = Array.unsafe_get wys iy in
        let mob_k = BA1.unsafe_get mob k in
        let x_k = BA1.unsafe_get expo k and e_k = BA1.unsafe_get boltz k in
        (* [edge_g] itself, not a local closure over the node's floats:
           that closure would box them at every node. *)
        let g_w =
          if ix > 0 then edge_g mob expo boltz ~vt ~ni ~mob_k ~x_k ~e_k (k - ny) wy inv_hxw
          else 0.0
        in
        let g_e =
          if ix < nx - 1 then edge_g mob expo boltz ~vt ~ni ~mob_k ~x_k ~e_k (k + ny) wy inv_hxe
          else 0.0
        in
        let g_s =
          if iy > 0 then
            edge_g mob expo boltz ~vt ~ni ~mob_k ~x_k ~e_k (k - 1)
              (wx /. Array.unsafe_get hy (iy - 1)) 1.0
          else 0.0
        in
        let g_n =
          if iy < ny - 1 then
            edge_g mob expo boltz ~vt ~ni ~mob_k ~x_k ~e_k (k + 1) (wx /. Array.unsafe_get hy iy)
              1.0
          else 0.0
        in
        (* An absent edge adds +0.0, which leaves a sum of non-negative
           conductances as it was. *)
        let diag = ref (g_w +. g_e +. g_s +. g_n) and rhs = ref 0.0 in
        (* SRH: with the opposite carrier lagged, R is affine in the solved
           Slotboom variable; for either carrier the balance reads
           sum g (u_i - u_j) + vol a u_i = vol b,  a = ni^2 v_lag/D,
           b = ni^2/D, where v_lag is the lagged opposite Slotboom value at
           the *current* potential and D the lagged SRH denominator. *)
        (match recombination with
         | None -> ()
         | Some ({ tau_n; tau_p }, n_prev, p_prev) ->
           let vol = wx *. wy in
           let n_lag = at_least 0.0 (BA1.unsafe_get n_prev k) in
           let p_lag = at_least 0.0 (BA1.unsafe_get p_prev k) in
           let denom = at_least 1e-30 ((tau_p *. (n_lag +. ni)) +. (tau_n *. (p_lag +. ni))) in
           let opposite = match carrier with Electrons -> p_lag | Holes -> n_lag in
           let v_lag = opposite /. ni *. e_k in
           diag := !diag +. (vol *. ni *. ni *. v_lag /. denom);
           rhs := !rhs +. (vol *. ni *. ni /. denom));
        let d = !diag in
        if d <= 0.0 then failwith "Continuity.solve: non-positive diagonal";
        (* Row scaling keeps pivots O(1) despite the e^{psi/vt} range. *)
        let inv = 1.0 /. d in
        BA1.unsafe_set west k (-.g_w *. inv);
        BA1.unsafe_set south k (-.g_s *. inv);
        BA1.unsafe_set d0 k (d *. inv);
        BA1.unsafe_set north k (-.g_n *. inv);
        BA1.unsafe_set east k (-.g_e *. inv);
        BA1.unsafe_set r k (!rhs *. inv)
      end
    done
  done;
  Numerics.Stencil5.solve a ~dst:u;
  for k = 0 to n_nodes - 1 do
    (* Float.max u 1e-300: NaN stays. *)
    if BA1.unsafe_get u k < 1e-300 then BA1.unsafe_set u k 1e-300
  done;
  let qf = -.sign *. vt in
  for k = 0 to n_nodes - 1 do
    let uk = BA1.unsafe_get u k in
    BA1.unsafe_set density k (ni *. uk *. BA1.unsafe_get boltz k);
    BA1.unsafe_set quasi_fermi k (qf *. log uk)
  done

let of_quasi_fermi dev ~carrier ~(psi : Field.t) ~dst =
  let { u; density; quasi_fermi } = dst in
  let n_nodes = Field.length psi in
  if
    Field.length u <> n_nodes
    || Field.length density <> n_nodes
    || Field.length quasi_fermi <> n_nodes
  then invalid_arg "Continuity.of_quasi_fermi: length mismatch";
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  let sign = carrier_sign carrier in
  (* [solve_into]'s last loop inverted: quasi_fermi = -s vt ln u. *)
  let qf = -.sign *. vt in
  for k = 0 to n_nodes - 1 do
    let uk = exp (BA1.unsafe_get quasi_fermi k /. qf) in
    let uk = if uk < 1e-300 then 1e-300 else uk in
    BA1.unsafe_set u k uk;
    BA1.unsafe_set density k (ni *. uk *. safe_exp (sign *. BA1.unsafe_get psi k /. vt))
  done

let solve ?recombination ?scratch dev ~carrier ~biases ~psi =
  let s =
    match scratch with
    | Some s -> s
    | None -> Poisson.make_scratch dev
  in
  let n_nodes = Field.length psi in
  let dst =
    { u = Field.create n_nodes; density = Field.create n_nodes;
      quasi_fermi = Field.create n_nodes }
  in
  solve_into ~recombination s dev ~carrier ~biases ~psi ~dst;
  dst

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
