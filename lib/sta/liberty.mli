(** Liberty (.lib) export of a characterized library — the interchange
    format every downstream synthesis/STA tool reads.  The output is a
    minimal but syntactically standard NLDM library: one lu_table_template,
    cells with input capacitances, negative-unate timing arcs carrying
    cell_rise/cell_fall and rise_transition/fall_transition tables, and
    per-state leakage_power groups. *)

val to_string : ?name:string -> Cell_lib.library -> string
(** Render the library (default name "subscale"); each output pin carries
    its Boolean function string, e.g. "!(A & B)" for NAND2.  Times are exported in
    nanoseconds, capacitances in picofarads, leakage in nanowatts — the
    customary Liberty units. *)

val write : path:string -> ?name:string -> Cell_lib.library -> unit
