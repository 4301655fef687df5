(* Rule ids minted through the registry: a collision with any other
   checker is a hard failure at initialization ([Rules.Duplicate_rule]). *)
let rule_nonpositive_value = Rules.register ~summary:"a component value is zero or negative" "net-nonpositive-value"
let rule_bad_waveform = Rules.register ~summary:"a source waveform is ill-formed" "net-bad-waveform"
let rule_floating_node = Rules.register ~summary:"a node has too few connections" "net-floating-node"
let rule_no_dc_path = Rules.register ~summary:"a node has no DC path to ground" "net-no-dc-path"
let rule_vsource_loop = Rules.register ~summary:"voltage sources form a loop" "net-vsource-loop"
let rule_undriven_gate = Rules.register ~summary:"a MOSFET gate is undriven" "net-undriven-gate"
let rule_multi_driven = Rules.register ~summary:"a node is driven by multiple sources" "net-multi-driven"

(* Netlist design-rule checks.

   Everything here is topological or a plain value test: no solver is
   invoked, so the checks run in linear-ish time on any netlist the MNA
   layer would accept and catch the malformations that would otherwise
   surface as singular matrices or quiet gmin-propped nonsense.

   Rule ids (the six DRC classes of the issue, plus waveform validity):
     net-floating-node    node touched by fewer than two element terminals
     net-no-dc-path       node with no conductive path to ground
     net-vsource-loop     voltage sources closing a loop (incl. parallel/shorted)
     net-nonpositive-value  zero/negative/non-finite R, C or MOSFET width
     net-undriven-gate    MOSFET gate connected only to other gates
     net-multi-driven     net constrained by more than one voltage source +
                          terminal, or duplicate source names
     net-bad-waveform     empty or time-unsorted Pwl source waveform *)

module N = Spice.Netlist

(* Union-find over node ids, path-halving. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find uf i =
    let p = uf.(i) in
    if p = i then i
    else begin
      uf.(i) <- uf.(p);
      find uf uf.(i)
    end

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then uf.(ra) <- rb

  let same uf a b = find uf a = find uf b
end

type terminal_kind = Conductive | Gate_terminal | Cap_terminal | Isource_terminal

(* Every (node, kind) terminal of an element.  The MOSFET channel is a
   conductive path for the DC-path analysis (it always conducts at least
   leakage); the gate is not. *)
let terminals = function
  | N.Resistor { plus; minus; _ } -> [ (plus, Conductive); (minus, Conductive) ]
  | N.Capacitor { plus; minus; _ } -> [ (plus, Cap_terminal); (minus, Cap_terminal) ]
  | N.Voltage_source { plus; minus; _ } -> [ (plus, Conductive); (minus, Conductive) ]
  | N.Current_source { plus; minus; _ } ->
    [ (plus, Isource_terminal); (minus, Isource_terminal) ]
  | N.Nmos { drain; gate; source; _ } | N.Pmos { drain; gate; source; _ } ->
    [ (drain, Conductive); (source, Conductive); (gate, Gate_terminal) ]

let describe_element = function
  | N.Resistor _ -> "resistor"
  | N.Capacitor _ -> "capacitor"
  | N.Voltage_source { name; _ } -> Printf.sprintf "voltage source %s" name
  | N.Current_source _ -> "current source"
  | N.Nmos _ -> "nmos"
  | N.Pmos _ -> "pmos"

let check c =
  let elements = N.elements c in
  let n = N.n_nodes c in
  let name nd = Printf.sprintf "node %S" (N.node_name c nd) in
  let diags = ref [] in
  let emit d = diags := d :: !diags in

  (* Per-node terminal census. *)
  let degree = Array.make n 0 in
  let non_gate_degree = Array.make n 0 in
  let conductive_degree = Array.make n 0 in
  List.iter
    (fun e ->
      List.iter
        (fun (nd, kind) ->
          degree.(nd) <- degree.(nd) + 1;
          if kind <> Gate_terminal then non_gate_degree.(nd) <- non_gate_degree.(nd) + 1;
          if kind = Conductive then conductive_degree.(nd) <- conductive_degree.(nd) + 1)
        (terminals e))
    elements;

  (* net-nonpositive-value: element value sanity. *)
  let bad_value what v loc =
    emit
      (Diagnostic.error ~rule:rule_nonpositive_value ~location:loc
         ~hint:(Printf.sprintf "give the %s a positive finite value" what)
         (Printf.sprintf "%s value %g is not a positive finite number" what v))
  in
  List.iteri
    (fun i e ->
      let loc = Printf.sprintf "element %d (%s)" i (describe_element e) in
      match e with
      | N.Resistor { ohms; _ } ->
        if not (Float.is_finite ohms) || ohms <= 0.0 then bad_value "resistance" ohms loc
      | N.Capacitor { farads; _ } ->
        if not (Float.is_finite farads) || farads <= 0.0 then
          bad_value "capacitance" farads loc
      | N.Nmos { width; _ } | N.Pmos { width; _ } ->
        if not (Float.is_finite width) || width <= 0.0 then bad_value "width" width loc
      | N.Voltage_source _ | N.Current_source _ -> ())
    elements;

  (* net-bad-waveform: Pwl validity on every source. *)
  List.iter
    (fun (src, _, _, wave) ->
      match wave with
      | N.Pwl [] ->
        emit
          (Diagnostic.error ~rule:rule_bad_waveform
             ~location:(Printf.sprintf "voltage source %s" src)
             ~hint:"build Pwl waveforms with Netlist.pwl"
             "Pwl waveform has no points")
      | N.Pwl points ->
        let rec sorted = function
          | ((t0 : float), _) :: ((t1, _) :: _ as rest) -> t1 > t0 && sorted rest
          | [ _ ] | [] -> true
        in
        if not (sorted points) then
          emit
            (Diagnostic.error ~rule:rule_bad_waveform
               ~location:(Printf.sprintf "voltage source %s" src)
               ~hint:"build Pwl waveforms with Netlist.pwl"
               "Pwl points are not strictly time-sorted")
      | N.Dc _ | N.Pulse _ -> ())
    (N.voltage_sources c);

  (* net-floating-node: unused or dangling nodes.  A node held by a single
     voltage-source terminal is harmless to MNA (the source just sees no
     load) and only warned about; anything else dangling is an error. *)
  let vsource_terminal = Array.make n 0 in
  List.iter
    (fun (_, plus, minus, _) ->
      vsource_terminal.(plus) <- vsource_terminal.(plus) + 1;
      vsource_terminal.(minus) <- vsource_terminal.(minus) + 1)
    (N.voltage_sources c);
  for nd = 1 to n - 1 do
    if degree.(nd) = 0 then
      emit
        (Diagnostic.error ~rule:rule_floating_node ~location:(name nd)
           ~hint:"remove the node or connect an element to it"
           "node is connected to nothing")
    else if degree.(nd) = 1 then begin
      if vsource_terminal.(nd) = 1 then
        emit
          (Diagnostic.warning ~rule:rule_floating_node ~location:(name nd)
             ~hint:"the source sees no load; remove it if unintended"
             "voltage source terminal drives nothing")
      else
        emit
          (Diagnostic.error ~rule:rule_floating_node ~location:(name nd)
             ~hint:"every node needs at least two connections to carry current"
             "node dangles from a single element terminal")
    end
  done;

  (* net-no-dc-path: conductive connectivity to ground (union-find over
     R / V-source / MOSFET-channel edges). *)
  let uf = Uf.create n in
  List.iter
    (fun e ->
      match e with
      | N.Resistor { plus; minus; _ } | N.Voltage_source { plus; minus; _ } ->
        Uf.union uf plus minus
      | N.Nmos { drain; source; _ } | N.Pmos { drain; source; _ } ->
        Uf.union uf drain source
      | N.Capacitor _ | N.Current_source _ -> ())
    elements;
  (* A gate-only node trivially has no DC path; net-undriven-gate is the
     precise diagnosis there, so restrict this rule to nodes that touch at
     least one non-gate terminal. *)
  for nd = 1 to n - 1 do
    if non_gate_degree.(nd) > 0 && not (Uf.same uf nd N.ground) then
      emit
        (Diagnostic.error ~rule:rule_no_dc_path ~location:(name nd)
           ~hint:
             "capacitors and current sources carry no DC; add a resistive, \
              source or channel path to ground"
           "node has no DC path to ground (its operating point is undefined)")
  done;

  (* net-vsource-loop: union-find over voltage-source edges alone; an edge
     whose endpoints are already vsource-connected closes an all-source
     loop (parallel sources and plus = minus shorts included), which makes
     the MNA system singular or contradictory. *)
  let vuf = Uf.create n in
  List.iter
    (fun (src, plus, minus, _) ->
      if Uf.same vuf plus minus then
        emit
          (Diagnostic.error ~rule:rule_vsource_loop
             ~location:(Printf.sprintf "voltage source %s (%s to %s)" src
                          (N.node_name c plus) (N.node_name c minus))
             ~hint:"break the loop with a series resistance or drop one source"
             "voltage source closes a loop of voltage sources")
      else Uf.union vuf plus minus)
    (N.voltage_sources c);

  (* net-undriven-gate: gate nodes whose every terminal is a gate. *)
  List.iter
    (fun e ->
      match e with
      | N.Nmos { gate; _ } | N.Pmos { gate; _ } ->
        if gate <> N.ground && non_gate_degree.(gate) = 0 then
          emit
            (Diagnostic.error ~rule:rule_undriven_gate
               ~location:(Printf.sprintf "%s gate at %s" (describe_element e) (name gate))
               ~hint:"drive the gate from a source or another stage's output"
               "MOSFET gate is driven by nothing")
      | N.Resistor _ | N.Capacitor _ | N.Voltage_source _ | N.Current_source _ -> ())
    elements;
  (* Deduplicate: several gates on one undriven node are one defect per
     device, but identical (rule, location) pairs add nothing. *)

  (* net-multi-driven: a node held by the + terminal of two voltage
     sources is constrained twice (the - side closing a loop is caught by
     net-vsource-loop; this catches the stacked-conflict shape), and a
     duplicated source name breaks current readback and overrides. *)
  let plus_driven = Hashtbl.create 16 in
  let seen_names = Hashtbl.create 16 in
  List.iter
    (fun (src, plus, _, _) ->
      (match Hashtbl.find_opt plus_driven plus with
       | Some first when plus <> N.ground ->
         emit
           (Diagnostic.error ~rule:rule_multi_driven ~location:(name plus)
              ~hint:"a net can be forced by at most one voltage source"
              (Printf.sprintf "net is driven by voltage sources %s and %s" first src))
       | _ -> Hashtbl.replace plus_driven plus src);
      match Hashtbl.find_opt seen_names src with
      | Some () ->
        emit
          (Diagnostic.error ~rule:rule_multi_driven
             ~location:(Printf.sprintf "voltage source %s" src)
             ~hint:"give every voltage source a unique name"
             "duplicate voltage-source name (current readback and overrides \
              become ambiguous)")
      | None -> Hashtbl.replace seen_names src ())
    (N.voltage_sources c);

  Diagnostic.sort !diags
