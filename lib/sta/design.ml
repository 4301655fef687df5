type net = int

type gate = { cell : Cell_lib.cell_kind; inputs : net array; output : net }

type t = {
  mutable next_net : int;
  mutable rev_gates : gate list;
  mutable inputs : net list;
  mutable outputs : net list;
  drivers : (net, gate) Hashtbl.t;
}

let create () =
  { next_net = 0; rev_gates = []; inputs = []; outputs = []; drivers = Hashtbl.create 64 }

let fresh_net d =
  let n = d.next_net in
  d.next_net <- n + 1;
  n

let add_gate d cell ~inputs ~output =
  if Array.length inputs <> Cell_lib.input_count cell then
    invalid_arg "Design.add_gate: input count mismatch";
  if Hashtbl.mem d.drivers output then
    invalid_arg (Printf.sprintf "Design.add_gate: net %d already driven" output);
  let gate = { cell; inputs; output } in
  Hashtbl.add d.drivers output gate;
  d.rev_gates <- gate :: d.rev_gates

let mark_input d net = if not (List.mem net d.inputs) then d.inputs <- net :: d.inputs
let mark_output d net = if not (List.mem net d.outputs) then d.outputs <- net :: d.outputs

let gates d = List.rev d.rev_gates
let n_nets d = d.next_net
let primary_inputs d = List.rev d.inputs
let primary_outputs d = List.rev d.outputs

let topological_gates d =
  let all = gates d in
  let ready = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace ready n ()) d.inputs;
  let pending = ref all and ordered = ref [] in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun (g : gate) ->
        if Array.for_all (fun i -> Hashtbl.mem ready i) g.inputs then begin
          Hashtbl.replace ready g.output ();
          ordered := g :: !ordered;
          progress := true
        end
        else still := g :: !still)
      !pending;
    pending := List.rev !still
  done;
  if !pending <> [] then
    failwith "Design.topological_gates: combinational loop or undriven net";
  List.rev !ordered

let inverter_chain d ~length net =
  if length < 0 then invalid_arg "Design.inverter_chain: negative length";
  let rec go net i =
    if i = length then net
    else begin
      let out = fresh_net d in
      add_gate d Cell_lib.Inv ~inputs:[| net |] ~output:out;
      go out (i + 1)
    end
  in
  go net 0

let full_adder d ~a ~b ~cin =
  let nand x y =
    let out = fresh_net d in
    add_gate d Cell_lib.Nand2 ~inputs:[| x; y |] ~output:out;
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

let ripple_carry_adder d ~a ~b ~cin =
  let bits = Array.length a in
  if Array.length b <> bits || bits = 0 then
    invalid_arg "Design.ripple_carry_adder: operand width mismatch";
  let sums = Array.make bits 0 in
  let carry = ref cin in
  for i = 0 to bits - 1 do
    let s, c = full_adder d ~a:a.(i) ~b:b.(i) ~cin:!carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

type adder = {
  design : t;
  a : net array;
  b : net array;
  cin : net;
  sums : net array;
  cout : net;
}

let adder ~bits =
  let design = create () in
  let a = Array.init bits (fun _ -> fresh_net design) in
  let b = Array.init bits (fun _ -> fresh_net design) in
  let cin = fresh_net design in
  Array.iter (mark_input design) a;
  Array.iter (mark_input design) b;
  mark_input design cin;
  let sums, cout = ripple_carry_adder design ~a ~b ~cin in
  Array.iter (mark_output design) sums;
  mark_output design cout;
  { design; a; b; cin; sums; cout }

let evaluate d ~inputs =
  let values = Array.make (n_nets d) false in
  List.iter (fun n -> values.(n) <- inputs n) (primary_inputs d);
  List.iter
    (fun (g : gate) ->
      let v i = values.(g.inputs.(i)) in
      values.(g.output) <-
        (match g.cell with
         | Cell_lib.Inv -> not (v 0)
         | Cell_lib.Nand2 -> not (v 0 && v 1)
         | Cell_lib.Nor2 -> not (v 0 || v 1)))
    (topological_gates d);
  values
