let net_name n = Printf.sprintf "n%d" n

let to_verilog ?(module_name = "subscale_design") design =
  let buf = Buffer.create 4096 in
  let inputs = Design.primary_inputs design in
  let outputs = Design.primary_outputs design in
  let ports = List.map net_name (inputs @ outputs) in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" module_name (String.concat ", " ports));
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" (net_name n))) inputs;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" (net_name n)))
    outputs;
  (* Internal nets: driven but not ports. *)
  List.iter
    (fun (g : Design.gate) ->
      if not (List.mem g.Design.output outputs) then
        Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (net_name g.Design.output)))
    (Design.gates design);
  List.iteri
    (fun i (g : Design.gate) ->
      let cell = Cell_lib.cell_name g.Design.cell in
      let pins =
        match g.Design.inputs with
        | [| a |] -> Printf.sprintf ".A(%s), .Y(%s)" (net_name a) (net_name g.Design.output)
        | [| a; b |] ->
          Printf.sprintf ".A(%s), .B(%s), .Y(%s)" (net_name a) (net_name b)
            (net_name g.Design.output)
        | _ -> invalid_arg "Verilog.to_verilog: unsupported arity"
      in
      Buffer.add_string buf (Printf.sprintf "  %s g%d (%s);\n" cell i pins))
    (Design.gates design);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
