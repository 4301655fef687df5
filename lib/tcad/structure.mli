(** Device structure: an NFET description compiled onto a mesh with doping,
    boundary classification, and per-node mobility.  This is the "deck" the
    solver consumes — the role a MEDICI input file plays in the paper. *)

type polarity = Nchannel | Pchannel

type description = {
  polarity : polarity;  (** NFET (p-body, n+ S/D) or PFET (mirror) *)
  lpoly : float;  (** physical gate length after etch [m] *)
  tox : float;  (** gate oxide thickness [m] *)
  nsub : float;  (** uniform body doping magnitude [m^-3] (acceptors for N-channel) *)
  np_halo : float;  (** peak halo doping added to the body [m^-3], same type as the body *)
  xj : float;  (** source/drain junction depth [m] *)
  nsd : float;  (** peak source/drain doping magnitude [m^-3], opposite type to the body *)
  overlap : float;  (** gate/source-drain overlap (lateral diffusion) [m] *)
  halo_depth_frac : float;  (** halo centre depth as a fraction of xj *)
  halo_sigma_frac : float;  (** halo Gaussian sigma as a fraction of xj *)
  gate_doping : float;  (** n+ poly doping, sets the gate contact potential [m^-3] *)
  temperature : float;  (** lattice temperature [K] *)
}

val default_description : description
(** A representative 90 nm low-power NFET (L_poly 65 nm, T_ox 2.1 nm), with
    dimensions proportioned as in the paper's Sec. 2.2 (all lengths except
    T_ox scale with L_poly). *)

val gate_span : description -> float * float
(** Lateral extent [x_g0, x_g1] of the gate in the simulated structure's
    coordinates — the window in which the mesh-resolution audit counts
    channel mesh lines. *)

type terminal = Source | Drain | Gate | Substrate

type boundary =
  | Interior
  | Ohmic of terminal  (** Dirichlet: psi = V(term) + built-in potential *)
  | Gate_surface  (** Robin coupling through the oxide *)
  | Reflecting  (** homogeneous Neumann *)

type t = {
  desc : description;
  mesh : Mesh.t;
  net_doping : Field.t;  (** N_D - N_A per node [m^-3] *)
  total_doping : Field.t;  (** N_D + N_A per node, for mobility *)
  boundary : boundary array;  (** per node (structured view; see [bmask]) *)
  bmask : Field.Mask.t;  (** packed boundary codes for assembly loops *)
  bulk_phi : Field.t;  (** charge-neutral potential per node [V] *)
  mobility_n : Field.t;  (** electron mobility per node [m^2/Vs] *)
  mobility_p : Field.t;  (** hole mobility per node [m^2/Vs] *)
  gate_potential_offset : float;
      (** degenerate poly gate potential wrt intrinsic [V]; positive (n+)
          for N-channel, negative (p+) for P-channel *)
  x_channel_mid : float;  (** x of mid-channel, for current cuts *)
  ni : float;  (** intrinsic density at the device temperature *)
  vt : float;  (** thermal voltage at the device temperature *)
}

val build : ?nx:int -> ?ny:int -> description -> t
(** Compile a description to a simulatable structure.  [nx]/[ny] bound the
    mesh size (defaults chosen for accuracy/speed balance: refined near the
    surface, the junctions and the halos).  They set minimum spacings only,
    so two different requests can build meshes with the same line counts
    but different coordinates. *)

val key : t -> string
(** Canonical content key of a built structure, for memoizing solves: every
    description field and the bit patterns of the mesh coordinates
    [mesh.xs] and [mesh.ys].  Two requests share a key exactly when they
    build the same device on the same mesh. *)

val key_for : ?nx:int -> ?ny:int -> description -> string
(** [key (build ?nx ?ny d)], byte for byte, from the mesh lines alone: no
    doping field, boundary or mobility is built, so a cache lookup costs a
    key and not a structure.  Raises as {!build} does on a bad
    description. *)

val effective_channel_length : t -> float
(** Metallurgical channel length: surface distance between the points where
    net doping changes sign. *)
