type t = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  a_names : string array;
  b_names : string array;
  cin_name : string;
  sum_nodes : int array;
  cout_node : int;
  bits : int;
  vdd : float;
}

(* One NAND2 with double-width series NFETs (worst-case drive parity) and an
   FO1-equivalent output load. *)
let add_nand c (pair : Inverter.pair) (sizing : Inverter.sizing) ~vdd_node ~a ~b ~out ~load =
  let mid = Spice.Netlist.fresh_node c in
  let wn2 = 2.0 *. sizing.Inverter.wn in
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = wn2; drain = out; gate = a; source = mid });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = wn2; drain = mid; gate = b;
         source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out; gate = a;
         source = vdd_node });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out; gate = b;
         source = vdd_node });
  Spice.Netlist.add c
    (Spice.Netlist.Capacitor { plus = out; minus = Spice.Netlist.ground; farads = load })

(* Nine-NAND full adder; returns (sum, cout). *)
let add_full_adder c pair sizing ~vdd_node ~a ~b ~cin ~load =
  let nand x y =
    let out = Spice.Netlist.fresh_node c in
    add_nand c pair sizing ~vdd_node ~a:x ~b:y ~out ~load;
    out
  in
  let n1 = nand a b in
  let n2 = nand a n1 in
  let n3 = nand b n1 in
  let xor_ab = nand n2 n3 in
  let n5 = nand xor_ab cin in
  let n6 = nand xor_ab n5 in
  let n7 = nand cin n5 in
  let sum = nand n6 n7 in
  let cout = nand n1 n5 in
  (sum, cout)

(* Input words are OCaml ints: (1 lsl bits) - 1 is all ones only up to
   62 bits, one less than Sys.int_size. *)
let max_bits = Sys.int_size - 1

let build ?cin_wave ?(a_word = 0) ?(b_word = 0) pair ~vdd ~bits =
  if bits < 1 then invalid_arg "Adder.ripple_carry: need at least one bit";
  if bits > max_bits then
    invalid_arg
      (Printf.sprintf "Adder.ripple_carry: at most %d bits (an input word is an int)"
         max_bits);
  let sizing = Inverter.balanced_sizing () in
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  let input name wave =
    let node = Spice.Netlist.node c name in
    Spice.Netlist.add c
      (Spice.Netlist.Voltage_source { name; plus = node; minus = Spice.Netlist.ground; wave });
    node
  in
  let a_names = Array.init bits (fun i -> Printf.sprintf "VA%d" i) in
  let b_names = Array.init bits (fun i -> Printf.sprintf "VB%d" i) in
  let level word i = if (word lsr i) land 1 = 1 then vdd else 0.0 in
  let a_nodes = Array.mapi (fun i n -> input n (Spice.Netlist.Dc (level a_word i))) a_names in
  let b_nodes = Array.mapi (fun i n -> input n (Spice.Netlist.Dc (level b_word i))) b_names in
  let cin_name = "VCIN" in
  let cin_node =
    input cin_name (Option.value cin_wave ~default:(Spice.Netlist.Dc 0.0))
  in
  let load = Inverter.load_capacitance pair sizing in
  let sum_nodes = Array.make bits 0 in
  let carry = ref cin_node in
  for i = 0 to bits - 1 do
    let sum, cout =
      add_full_adder c pair sizing ~vdd_node ~a:a_nodes.(i) ~b:b_nodes.(i) ~cin:!carry ~load
    in
    sum_nodes.(i) <- sum;
    carry := cout
  done;
  { circuit = c; vdd_name = "VDD"; a_names; b_names; cin_name; sum_nodes;
    cout_node = !carry; bits; vdd }

let ripple_carry pair ~vdd ~bits = build pair ~vdd ~bits

let word_overrides adder ~a ~b ~cin =
  let max_word = (1 lsl adder.bits) - 1 in
  if a < 0 || a > max_word || b < 0 || b > max_word || cin < 0 || cin > 1 then
    invalid_arg "Adder.compute: input exceeds the bit width";
  let vdd = adder.vdd in
  let bit_of word i = if (word lsr i) land 1 = 1 then vdd else 0.0 in
  let pairs = ref [ (adder.cin_name, if cin = 1 then vdd else 0.0) ] in
  for i = 0 to adder.bits - 1 do
    pairs := (adder.a_names.(i), bit_of a i) :: (adder.b_names.(i), bit_of b i) :: !pairs
  done;
  !pairs

let compute adder ~a ~b ~cin =
  let sys = Spice.Mna.build adder.circuit in
  let x = Spice.Dcop.solve ~overrides:(word_overrides adder ~a ~b ~cin) sys in
  let bit_at node = if Spice.Mna.voltage sys x node > 0.5 *. adder.vdd then 1 else 0 in
  let sum = ref 0 in
  Array.iteri (fun i node -> sum := !sum lor (bit_at node lsl i)) adder.sum_nodes;
  (!sum, bit_at adder.cout_node)

(* Worst case: A = all ones, B = 0, so every stage propagates; a carry-in
   step 0 -> vdd ripples through all [bits] stages.  The static words are
   baked into the input waveforms (the transient engine reads waveforms,
   not overrides) and the carry-in is a delayed ramp. *)
let carry_delay ?(steps = 800) pair ~vdd ~bits =
  let tp_est = Chain.estimated_stage_delay pair (Inverter.balanced_sizing ()) ~vdd in
  (* ~3 gate delays per bit on the carry path, with a wide margin. *)
  let window = 18.0 *. tp_est *. float_of_int bits in
  let t_edge = 0.1 *. window in
  let cin_wave =
    Spice.Netlist.Pwl [ (0.0, 0.0); (t_edge, 0.0); (t_edge +. tp_est, vdd) ]
  in
  let all_ones = (1 lsl bits) - 1 in
  let adder = build ~cin_wave ~a_word:all_ones ~b_word:0 pair ~vdd ~bits in
  let sys = Spice.Mna.build adder.circuit in
  let t_in = t_edge +. (0.5 *. tp_est) in
  match
    Spice.Transient.first_crossings sys ~node:adder.cout_node ~levels:[ 0.5 *. vdd ]
      ~after:t_in ~t_stop:window ~steps
  with
  | [ Some t_out ] -> t_out -. t_in
  | _ -> failwith "Adder.carry_delay: carry-out did not switch within the window"
