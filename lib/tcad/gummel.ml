type state = {
  biases : Poisson.biases;
  psi : Field.t;
  u : Field.t;
  w : Field.t;
  n : Field.t;
  p : Field.t;
  phi_n : Field.t;
  phi_p : Field.t;
  drain_current : float;
}

exception No_convergence of string

let src = Logs.Src.create "tcad.gummel" ~doc:"Gummel iteration"

module Log = (val Logs.src_log src : Logs.LOG)

let inner_iterations_hist = Obs.Metrics.histogram "tcad.gummel.inner_iterations"
let ramp_steps_hist = Obs.Metrics.histogram "tcad.gummel.ramp_steps"

let total_drain_current dev ~psi ~u ~w =
  let i_n = Continuity.terminal_current dev ~carrier:Continuity.Electrons ~psi ~u in
  let i_p = Continuity.terminal_current dev ~carrier:Continuity.Holes ~psi ~u:w in
  Float.abs (i_n +. i_p)

let own_scratch dev = function Some s -> s | None -> Poisson.make_scratch dev

let equilibrium ?scratch dev =
  let scratch = own_scratch dev scratch in
  let n_nodes = Mesh.n_nodes dev.Structure.mesh in
  let zeros = Field.create n_nodes in
  let psi0 = Poisson.equilibrium_guess dev in
  let sol =
    Poisson.solve ~scratch dev ~biases:Poisson.zero_bias ~phi_n:zeros ~phi_p:zeros ~psi0
  in
  if not sol.Poisson.converged then
    raise (No_convergence "equilibrium Poisson did not converge");
  let psi = sol.Poisson.psi in
  let e =
    Continuity.solve ~scratch dev ~carrier:Continuity.Electrons ~biases:Poisson.zero_bias ~psi
  in
  let h =
    Continuity.solve ~scratch dev ~carrier:Continuity.Holes ~biases:Poisson.zero_bias ~psi
  in
  {
    biases = Poisson.zero_bias;
    psi;
    u = e.Continuity.u;
    w = h.Continuity.u;
    n = e.Continuity.density;
    p = h.Continuity.density;
    phi_n = e.Continuity.quasi_fermi;
    phi_p = h.Continuity.quasi_fermi;
    drain_current = 0.0;
  }

(* The scratch iterate whose potential is not [psi]: the one a solve
   starting from [psi] writes first. *)
let other_than (s : Poisson.scratch) (psi : Field.t) =
  if psi == s.Poisson.ping.Poisson.psi then s.Poisson.pong else s.Poisson.ping

(* A state over one of the scratch's iterates: its fields are the
   scratch's own buffers. *)
let borrowed biases (it : Poisson.iterate) drain_current =
  {
    biases;
    psi = it.Poisson.psi;
    u = it.Poisson.u;
    w = it.Poisson.w;
    n = it.Poisson.n;
    p = it.Poisson.p;
    phi_n = it.Poisson.phi_n;
    phi_p = it.Poisson.phi_p;
    drain_current;
  }

let copy st =
  {
    st with
    psi = Field.copy st.psi;
    u = Field.copy st.u;
    w = Field.copy st.w;
    n = Field.copy st.n;
    p = Field.copy st.p;
    phi_n = Field.copy st.phi_n;
    phi_p = Field.copy st.phi_p;
  }

let continue_at ?(tol = 5e-7) ?(max_gummel = 40) ?(quiet = false) ~scratch:s dev ~(from : state)
    (biases : Poisson.biases) =
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:[ ("gate", Obs.Trace.F biases.gate); ("drain", Obs.Trace.F biases.drain) ]
    "gummel.at"
  @@ fun () ->
  (* When the outer tolerance is tightened below its default, the inner
     Newton must resolve the potential at least as finely or the outer
     delta floors at the Poisson residual; at the default outer tol this
     reduces to the Poisson default (1e-9 V). *)
  let poisson_tol = Float.min 1e-9 (0.01 *. tol) in
  (* Each iteration reads the previous iterate and writes [cur], the
     scratch's other buffer set.  A [from] borrowed from this scratch sits
     in one of the two, so the first iteration writes the other. *)
  let other (it : Poisson.iterate) = other_than s it.Poisson.psi in
  let rec loop (prev : Poisson.iterate) (cur : Poisson.iterate) iter =
    let sol =
      Poisson.solve_into ~tol:poisson_tol ~quiet s dev ~biases ~phi_n:prev.Poisson.phi_n
        ~phi_p:prev.Poisson.phi_p ~psi0:prev.Poisson.psi ~dst:cur.Poisson.psi
    in
    if not sol.Poisson.converged then
      raise
        (No_convergence
           (Printf.sprintf "Poisson stalled at Vg=%.3f Vd=%.3f (residual %.2e)" biases.gate
              biases.drain sol.Poisson.residual));
    let psi' = sol.Poisson.psi in
    (* The guard's origins are formatted only when the guard is on. *)
    if Numerics.Guard.is_enabled () then
      ignore
        (Numerics.Guard.fvec
           ~origin:(Printf.sprintf "Gummel.gummel_at: psi at Vg=%.3f Vd=%.3f" biases.gate
                      biases.drain)
           psi');
    let recombination = Some (Continuity.default_srh, prev.Poisson.n, prev.Poisson.p) in
    Continuity.solve_into ~recombination s dev ~carrier:Continuity.Electrons ~biases ~psi:psi'
      ~dst:{ Continuity.u = cur.Poisson.u; density = cur.Poisson.n; quasi_fermi = cur.Poisson.phi_n };
    Continuity.solve_into ~recombination s dev ~carrier:Continuity.Holes ~biases ~psi:psi'
      ~dst:{ Continuity.u = cur.Poisson.w; density = cur.Poisson.p; quasi_fermi = cur.Poisson.phi_p };
    let delta = Field.max_abs_diff psi' prev.Poisson.psi in
    if delta < tol || iter >= max_gummel then begin
      if delta >= tol then begin
        (* Poisson emits its own non_converged event on its stalled exits
           above; this one covers the outer-loop stall only, so the two
           solvers never double-count a single failure. *)
        if not quiet then
          Obs.non_converged ~solver:"tcad.gummel"
            ~attrs:
              [
                ("gate", Obs.Trace.F biases.gate);
                ("drain", Obs.Trace.F biases.drain);
                ("delta", Obs.Trace.F delta);
                ("iterations", Obs.Trace.I iter);
              ]
            (Printf.sprintf "Gummel stalled at Vg=%.3f Vd=%.3f (delta %.2e V)" biases.gate
               biases.drain delta);
        raise
          (No_convergence
             (Printf.sprintf "Gummel stalled at Vg=%.3f Vd=%.3f (delta %.2e V)" biases.gate
                biases.drain delta))
      end;
      Obs.Metrics.observe inner_iterations_hist (float_of_int iter);
      let id = total_drain_current dev ~psi:psi' ~u:cur.Poisson.u ~w:cur.Poisson.w in
      if Numerics.Guard.is_enabled () then
        ignore
          (Numerics.Guard.float
             ~origin:(Printf.sprintf "Gummel.gummel_at: drain current at Vg=%.3f Vd=%.3f"
                        biases.gate biases.drain)
             id);
      borrowed biases cur id
    end
    else loop cur (other cur) (iter + 1)
  in
  let start =
    { Poisson.psi = from.psi; u = from.u; w = from.w; n = from.n; p = from.p;
      phi_n = from.phi_n; phi_p = from.phi_p }
  in
  loop start (other start) 0

(* --- warm-start prediction ----------------------------------------------- *)

let remember s ~at st = Poisson.remember s ~at ~psi:st.psi ~phi_n:st.phi_n ~phi_p:st.phi_p

let predict (s : Poisson.scratch) dev ~from ~at =
  (* [from]'s potentials are kept in the history, so its iterate may be
     the one a jump from the prediction overwrites first. *)
  let g = other_than s from.psi in
  if not (Poisson.extrapolate s ~at ~psi:g.Poisson.psi ~phi_n:g.Poisson.phi_n ~phi_p:g.Poisson.phi_p)
  then from
  else begin
    Continuity.of_quasi_fermi dev ~carrier:Continuity.Electrons ~psi:g.Poisson.psi
      ~dst:{ Continuity.u = g.Poisson.u; density = g.Poisson.n; quasi_fermi = g.Poisson.phi_n };
    Continuity.of_quasi_fermi dev ~carrier:Continuity.Holes ~psi:g.Poisson.psi
      ~dst:{ Continuity.u = g.Poisson.w; density = g.Poisson.p; quasi_fermi = g.Poisson.phi_p };
    borrowed from.biases g from.drain_current
  end

let gummel_at ?tol ?max_gummel ?quiet ?scratch dev ~from biases =
  copy (continue_at ?tol ?max_gummel ?quiet ~scratch:(own_scratch dev scratch) dev ~from biases)

let solve_at ?(tol = 5e-7) ?(max_gummel = 40) ?scratch dev ~from target =
  let dist (a : Poisson.biases) (b : Poisson.biases) =
    Float.max
      (Float.abs (a.Poisson.gate -. b.Poisson.gate))
      (Float.max
         (Float.abs (a.Poisson.drain -. b.Poisson.drain))
         (Float.max
            (Float.abs (a.Poisson.source -. b.Poisson.source))
            (Float.abs (a.Poisson.substrate -. b.Poisson.substrate))))
  in
  let total = dist from.biases target in
  let steps = Int.max 1 (int_of_float (ceil (total /. 0.1))) in
  Obs.Trace.with_span ~cat:"tcad"
    ~attrs:
      [
        ("gate", Obs.Trace.F target.Poisson.gate);
        ("drain", Obs.Trace.F target.Poisson.drain);
        ("steps", Obs.Trace.I steps);
      ]
    "gummel.solve_at"
  @@ fun () ->
  Obs.Metrics.observe ramp_steps_hist (float_of_int steps);
  let scratch = own_scratch dev scratch in
  let interp frac =
    let mix a b = a +. (frac *. (b -. a)) in
    {
      Poisson.source = mix from.biases.Poisson.source target.Poisson.source;
      drain = mix from.biases.Poisson.drain target.Poisson.drain;
      gate = mix from.biases.Poisson.gate target.Poisson.gate;
      substrate = mix from.biases.Poisson.substrate target.Poisson.substrate;
    }
  in
  let rec ramp state i =
    if i > steps then state
    else begin
      let b = interp (float_of_int i /. float_of_int steps) in
      Log.debug (fun m ->
          m "ramp step %d/%d: Vg=%.3f Vd=%.3f" i steps b.Poisson.gate b.Poisson.drain);
      let state' = continue_at ~tol ~max_gummel ~scratch dev ~from:state b in
      ramp state' (i + 1)
    end
  in
  (* The ramp's intermediate states stay in the scratch; only the last is
     copied out. *)
  copy (ramp from 1)
