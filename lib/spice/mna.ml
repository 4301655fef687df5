module BA1 = Bigarray.Array1

(* One netlist element, resolved at build time: everything bias-independent
   (conductances, prepared device coefficients, and [jac], the Jacobian
   slots of its entries in the order [assemble] adds them) is computed
   once. *)
type stamp =
  | Conductance of { plus : int; minus : int; g : float; jac : int array }
  | Companion of { idx : int; jac : int array }
  | Injection of { plus : int; minus : int; amps : float }
  | Mosfet of {
      sign : float;  (** +1 for an N-channel device, -1 for a P-channel one *)
      coeffs : Device.Iv_model.coeffs;
      width : float;
      drain : int;
      gate : int;
      source : int;
      jac : int array;
    }

(* [row] is the equation row of the constraint v+ - v- = value. *)
type vsource = {
  name : string;
  plus : int;
  minus : int;
  wave : Netlist.waveform;
  row : int;
  jac : int array;
}

type system = {
  stamps : stamp array;
  n_nodes : int;
  vsources : vsource array;
  caps : (int * int * float) array;
  n : int;
  kcl : int array;  (* node -> the equation row of its KCL; -1 for ground *)
  gmin_jac : int array;  (* node -> the slot of its diagonal *)
  pattern : Numerics.Sparse_lu.symbolic;
  n_slots : int;
}

(* Give each voltage source a distinct non-ground terminal (a bipartite
   matching, grown by augmenting paths): that node's KCL equation moves to
   the source's branch row, and the source's constraint takes the node's
   row.  Both diagonals are then a source's +-1, so with gmin on every
   other node's diagonal the Jacobian needs no pivoting.  Such a matching
   exists exactly when the sources close no loop.  Returns each source's
   terminal. *)
let source_terminals n_nodes vsources =
  let owner = Array.make n_nodes (-1) in
  (* [visited.(t) = round]: the search for source [round] has tried node
     [t].  One array serves every source's search. *)
  let visited = Array.make n_nodes (-1) in
  let rec claim round k =
    let _, plus, minus, _ = vsources.(k) in
    plus <> minus && (take round k plus || take round k minus)
  and take round k t =
    t <> 0
    && visited.(t) <> round
    && (visited.(t) <- round;
        owner.(t) < 0 || claim round owner.(t))
    && (owner.(t) <- k;
        true)
  in
  Array.iteri
    (fun k (name, _, _, _) ->
      if not (claim k k) then
        invalid_arg
          (Printf.sprintf "Mna.build: voltage source %S closes a loop of voltage sources"
             name))
    vsources;
  let terminal = Array.make (Array.length vsources) 0 in
  Array.iteri (fun t k -> if k >= 0 then terminal.(k) <- t) owner;
  terminal

(* A slot table entry packs its column above [slot_bits] bits of slot. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1

let builds = Obs.Metrics.counter "spice.mna.builds"

let build circuit =
  let n_nodes = Netlist.n_nodes circuit in
  let sources = Array.of_list (Netlist.voltage_sources circuit) in
  let caps = Array.of_list (Netlist.capacitors circuit) in
  let n = n_nodes - 1 + Array.length sources in
  let terminal = source_terminals n_nodes sources in
  let kcl = Array.init n_nodes (fun nd -> nd - 1) in
  Array.iteri (fun k t -> kcl.(t) <- n_nodes - 1 + k) terminal;
  (* The Jacobian's structural entries, numbered in the order [assemble]
     first touches them.  [entries.(r)] holds row r's first [used.(r)]
     entries, each its column and slot packed into one int, and doubles
     when full.  -1 stands for an entry in ground's row or column. *)
  let entries = Array.make n [||] and used = Array.make n 0 and n_slots = ref 0 in
  let slot r c =
    if r < 0 || c < 0 then -1
    else begin
      let row = entries.(r) and k = used.(r) in
      let i = ref 0 in
      while !i < k && row.(!i) lsr slot_bits <> c do
        incr i
      done;
      if !i < k then row.(!i) land slot_mask
      else begin
        let row =
          if k < Array.length row then row
          else begin
            let grown = Array.make (Int.max 4 (2 * k)) 0 in
            Array.blit row 0 grown 0 k;
            entries.(r) <- grown;
            grown
          end
        in
        row.(k) <- (c lsl slot_bits) lor !n_slots;
        used.(r) <- k + 1;
        incr n_slots;
        !n_slots - 1
      end
    end
  in
  (* Row [node]'s KCL, column [wrt]'s voltage. *)
  let jac node wrt = if node = 0 then -1 else slot kcl.(node) (wrt - 1) in
  let gmin_jac = Array.init n_nodes (fun nd -> jac nd nd) in
  let branch plus minus = [| jac plus plus; jac plus minus; jac minus minus; jac minus plus |] in
  let cap_index = ref 0 in
  let mosfet sign { Netlist.dev; width; drain; gate; source } =
    let jac =
      [| jac drain drain; jac drain gate; jac drain source;
         jac source drain; jac source gate; jac source source |]
    in
    Some (Mosfet { sign; coeffs = Device.Iv_model.prepare dev; width; drain; gate; source; jac })
  in
  let stamps =
    Netlist.elements circuit
    |> List.filter_map (function
         | Netlist.Resistor { plus; minus; ohms } ->
           Some (Conductance { plus; minus; g = 1.0 /. ohms; jac = branch plus minus })
         | Netlist.Capacitor { plus; minus; _ } ->
           let idx = !cap_index in
           incr cap_index;
           Some (Companion { idx; jac = branch plus minus })
         | Netlist.Current_source { plus; minus; amps } -> Some (Injection { plus; minus; amps })
         | Netlist.Voltage_source _ -> None
         | Netlist.Nmos m -> mosfet 1.0 m
         | Netlist.Pmos m -> mosfet (-1.0) m)
    |> Array.of_list
  in
  let vsources =
    Array.mapi
      (fun k (name, plus, minus, wave) ->
        let branch t = if t = 0 then -1 else slot kcl.(t) (n_nodes - 1 + k) in
        let row = terminal.(k) - 1 in
        { name; plus; minus; wave; row;
          jac = [| branch plus; branch minus; slot row (plus - 1); slot row (minus - 1) |] })
      sources
  in
  (* Each slot's row and column, packed like an entry, for the symbolic
     LU. *)
  let coord = Array.make !n_slots 0 in
  Array.iteri
    (fun r row ->
      for i = 0 to used.(r) - 1 do
        coord.(row.(i) land slot_mask) <- (r lsl slot_bits) lor (row.(i) lsr slot_bits)
      done)
    entries;
  let pattern =
    Numerics.Sparse_lu.analyse ~n ~slots:!n_slots
      ~row:(fun s -> coord.(s) lsr slot_bits)
      ~col:(fun s -> coord.(s) land slot_mask)
  in
  Obs.Metrics.incr builds;
  { stamps; n_nodes; vsources; caps; n; kcl; gmin_jac; pattern; n_slots = !n_slots }

let pattern s = s.pattern

let size s = s.n
let n_caps s = Array.length s.caps

(* A node voltage from [x]; inlined into [assemble]'s stamps, so the float
   is not boxed. *)
let[@inline] node_v x node = if node = 0 then 0.0 else x.(node - 1)

let voltage _s x node = node_v x node

let source_index s name =
  let rec find i =
    if i >= Array.length s.vsources then begin
      let known =
        s.vsources |> Array.to_list |> List.map (fun v -> v.name) |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Mna: no voltage source named %S (known: %s)" name
           (if known = "" then "<none>" else known))
    end
    else begin
      if String.equal s.vsources.(i).name name then s.n_nodes - 1 + i else find (i + 1)
    end
  in
  find 0

let source_current s x name = x.(source_index s name)

type cap_companion = { mutable geq : float; mutable ieq : float }

let with_values ?(waves = []) ?(farads = []) s =
  List.iter (fun (name, _) -> ignore (source_index s name)) waves;
  let vsources =
    match waves with
    | [] -> s.vsources
    | _ ->
      Array.map
        (fun v ->
          match List.assoc_opt v.name waves with Some wave -> { v with wave } | None -> v)
        s.vsources
  in
  let caps =
    match farads with
    | [] -> s.caps
    | _ ->
      let caps = Array.copy s.caps in
      List.iter
        (fun (i, c) ->
          if i < 0 || i >= Array.length caps then
            invalid_arg
              (Printf.sprintf "Mna.with_values: no capacitor %d (capacitors are 0..%d)" i
                 (Array.length caps - 1));
          let p, m, _ = caps.(i) in
          caps.(i) <- (p, m, c))
        farads;
      caps
  in
  { s with vsources; caps }

let cap_voltages s x dst =
  for i = 0 to Array.length s.caps - 1 do
    let p, m, _ = s.caps.(i) in
    dst.(i) <- node_v x p -. node_v x m
  done

let cap_farads s i =
  let _, _, c = s.caps.(i) in
  c

let node_count s = s.n_nodes

let gmin = 1e-12

(* The stamps' additions to a KCL row of [f] and to a Jacobian slot,
   inlined into [assemble] (so no float they pass is boxed).  The
   annotations keep the Bigarray accesses monomorphic: a polymorphic one
   is a C call with a boxed float.  KCL convention: node's row of f
   accumulates currents *leaving* it. *)
let[@inline] add_current kcl (f : Numerics.Fvec.t) node i =
  if node <> 0 then begin
    let r = Array.unsafe_get kcl node in
    BA1.unsafe_set f r (BA1.unsafe_get f r +. i)
  end

let[@inline] add_jac (jac : Numerics.Fvec.t) slot g =
  if slot >= 0 then BA1.unsafe_set jac slot (BA1.unsafe_get jac slot +. g)

(* A two-terminal branch carrying [i] from [plus] to [minus] with
   conductance [g]; [slots] are its four Jacobian slots. *)
let[@inline] add_branch kcl f jac plus minus slots i g =
  add_current kcl f plus i;
  add_current kcl f minus (-.i);
  add_jac jac slots.(0) g;
  add_jac jac slots.(1) (-.g);
  add_jac jac slots.(2) g;
  add_jac jac slots.(3) (-.g)

let assemble s ~time ?(source_scale = 1.0) ?(overrides = []) ?caps ~x ~(f : Numerics.Fvec.t)
    ~(jac : Numerics.Fvec.t) () =
  let n = s.n and kcl = s.kcl in
  if Array.length x <> n || Numerics.Fvec.length f <> n || Numerics.Fvec.length jac <> s.n_slots
  then invalid_arg "Mna.assemble: vector length mismatch";
  Numerics.Fvec.fill f 0.0;
  Numerics.Fvec.fill jac 0.0;
  (* gmin to ground stabilizes floating nodes. *)
  for nd = 1 to s.n_nodes - 1 do
    add_current kcl f nd (gmin *. node_v x nd);
    add_jac jac s.gmin_jac.(nd) gmin
  done;
  (* A MOSFET's bias in, its (id, gm, gds) out: see Iv_model.eval_into. *)
  let bias = [| 0.0; 0.0; 0.0 |] in
  for k = 0 to Array.length s.stamps - 1 do
    match s.stamps.(k) with
    | Conductance { plus; minus; g; jac = slots } ->
      add_branch kcl f jac plus minus slots (g *. (node_v x plus -. node_v x minus)) g
    | Companion { idx; jac = slots } ->
      (match caps with
       | None -> ()
       | Some companions ->
         let c = companions.(idx) in
         let p, m, _ = s.caps.(idx) in
         add_branch kcl f jac p m slots
           ((c.geq *. (node_v x p -. node_v x m)) -. c.ieq)
           c.geq)
    | Injection { plus; minus; amps } ->
      let i = source_scale *. amps in
      (* Current flows from + through the external circuit to -: it leaves
         the source at -, i.e. is injected into the circuit at -. *)
      add_current kcl f plus i;
      add_current kcl f minus (-.i)
    | Mosfet { sign; coeffs; width; drain; gate; source; jac = slots } ->
      (* Bulk tied to source, drain/source symmetric: the terminal at the
         lower (N) or higher (P) potential acts as source.  [sign] maps a
         P-channel device onto the source-referenced magnitudes of the
         model; the conventional current into the drain terminal is [i_d],
         with partials [d_vd], [d_vg], [d_vs]. *)
      let vd = node_v x drain and vg = node_v x gate and vs = node_v x source in
      let forward = sign *. (vd -. vs) >= 0.0 in
      if forward then begin
        bias.(0) <- sign *. (vg -. vs);
        bias.(1) <- sign *. (vd -. vs)
      end
      else begin
        bias.(0) <- sign *. (vg -. vd);
        bias.(1) <- sign *. (vs -. vd)
      end;
      Device.Iv_model.eval_into coeffs bias;
      let i = bias.(0) and gm = bias.(1) and gds = bias.(2) in
      let i_d = if forward then sign *. width *. i else -.sign *. width *. i in
      let d_vd = if forward then width *. gds else width *. (gm +. gds) in
      let d_vg = if forward then width *. gm else -.width *. gm in
      let d_vs = if forward then -.width *. (gm +. gds) else -.width *. gds in
      add_current kcl f drain i_d;
      add_current kcl f source (-.i_d);
      add_jac jac slots.(0) d_vd;
      add_jac jac slots.(1) d_vg;
      add_jac jac slots.(2) d_vs;
      add_jac jac slots.(3) (-.d_vd);
      add_jac jac slots.(4) (-.d_vg);
      add_jac jac slots.(5) (-.d_vs)
  done;
  (* Voltage sources: branch current unknowns and voltage constraints. *)
  for k = 0 to Array.length s.vsources - 1 do
    let { name; plus; minus; wave; row; jac = slots } = s.vsources.(k) in
    let ibr = x.(s.n_nodes - 1 + k) in
    (* Branch current flows + -> (through source) -> -, so it leaves the
       circuit at + and enters at -. *)
    add_current kcl f plus ibr;
    add_current kcl f minus (-.ibr);
    add_jac jac slots.(0) 1.0;
    add_jac jac slots.(1) (-1.0);
    let value =
      match List.assoc_opt name overrides with
      | Some v -> v
      | None -> (
        (* A DC level is read in place: Netlist's result would be boxed. *)
        match wave with
        | Netlist.Dc v -> v
        | Netlist.Pulse _ | Netlist.Pwl _ -> Netlist.waveform_value wave time)
    in
    let target = source_scale *. value in
    BA1.unsafe_set f row (node_v x plus -. node_v x minus -. target);
    add_jac jac slots.(2) 1.0;
    add_jac jac slots.(3) (-1.0)
  done
