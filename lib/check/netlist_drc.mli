(** Netlist design-rule checks: purely topological/value analysis of a
    {!Spice.Netlist.t}, run before any solver touches it.

    Implemented rules (ids):
    - [net-floating-node] — nodes connected to nothing or dangling from a
      single terminal;
    - [net-no-dc-path] — nodes with no resistive/source/channel path to
      ground (union-find reachability);
    - [net-vsource-loop] — loops made entirely of voltage sources,
      including parallel and shorted sources;
    - [net-nonpositive-value] — zero, negative or non-finite resistance,
      capacitance or MOSFET width;
    - [net-undriven-gate] — MOSFET gates whose node touches only other
      gates;
    - [net-multi-driven] — nets forced by more than one voltage source,
      and duplicate source names;
    - [net-bad-waveform] — empty or unsorted [Pwl] source waveforms. *)

val check : Spice.Netlist.t -> Diagnostic.t list
(** All diagnostics, sorted per {!Diagnostic.sort}.  Node locations use
    {!Spice.Netlist.node_name}. *)
