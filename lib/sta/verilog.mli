(** Structural Verilog output for gate-level designs: a flat module over
    the three library cells, for handing a netlist to a downstream tool. *)

val to_verilog : ?module_name:string -> Design.t -> string
(** Nets are named [n<id>]; primary inputs/outputs become module ports. *)
