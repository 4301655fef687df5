type net_stats = { probability : float; activity : float }

let gate_output_probability kind input_probs =
  match (kind, input_probs) with
  | Cell_lib.Inv, [| pa |] -> 1.0 -. pa
  | Cell_lib.Nand2, [| pa; pb |] -> 1.0 -. (pa *. pb)
  | Cell_lib.Nor2, [| pa; pb |] -> (1.0 -. pa) *. (1.0 -. pb)
  | _, _ -> invalid_arg "Power.gate_output_probability: arity mismatch"

let propagate_probabilities ?input_probability design =
  let n = Design.n_nets design in
  let p = Array.make n 0.5 in
  let input_p net =
    match input_probability with Some f -> f net | None -> 0.5
  in
  List.iter (fun net -> p.(net) <- input_p net) (Design.primary_inputs design);
  List.iter
    (fun (g : Design.gate) ->
      p.(g.Design.output) <-
        gate_output_probability g.Design.cell (Array.map (fun i -> p.(i)) g.Design.inputs))
    (Design.topological_gates design);
  Array.map (fun pi -> { probability = pi; activity = 2.0 *. pi *. (1.0 -. pi) }) p

type summary = {
  leakage_power : float;
  dynamic_power : float;
  total_power : float;
  total_switched_cap : float;
}

(* Probability of a full input state under independence. *)
let state_probability probs state =
  Array.to_list state
  |> List.mapi (fun i b -> if b then probs.(i) else 1.0 -. probs.(i))
  |> List.fold_left ( *. ) 1.0

let analyze (lib : Cell_lib.library) design ~frequency =
  if frequency < 0.0 then invalid_arg "Power.analyze: negative frequency";
  let stats = propagate_probabilities design in
  let vdd = lib.Cell_lib.lib_vdd in
  (* Leakage: expectation over input states per gate. *)
  let leakage_power =
    List.fold_left
      (fun acc (g : Design.gate) ->
        let cell = Cell_lib.find lib g.Design.cell in
        let probs = Array.map (fun i -> stats.(i).probability) g.Design.inputs in
        let expected =
          List.fold_left
            (fun e (state, amps) -> e +. (state_probability probs state *. amps))
            0.0 cell.Cell_lib.leakage
        in
        acc +. (expected *. vdd))
      0.0 (Design.gates design)
  in
  (* Dynamic: per-net switched capacitance. *)
  let n = Design.n_nets design in
  let load = Array.make n 0.0 in
  List.iter
    (fun (g : Design.gate) ->
      let cell = Cell_lib.find lib g.Design.cell in
      Array.iter (fun i -> load.(i) <- load.(i) +. cell.Cell_lib.input_cap) g.Design.inputs)
    (Design.gates design);
  let total_switched_cap = ref 0.0 in
  for net = 0 to n - 1 do
    total_switched_cap := !total_switched_cap +. (stats.(net).activity *. load.(net))
  done;
  (* A toggle dissipates C V^2 / 2 on average (charge on rise only). *)
  let dynamic_power = 0.5 *. !total_switched_cap *. vdd *. vdd *. frequency in
  {
    leakage_power;
    dynamic_power;
    total_power = leakage_power +. dynamic_power;
    total_switched_cap = !total_switched_cap;
  }
