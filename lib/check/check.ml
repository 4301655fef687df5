(** Static analysis for simulation inputs — the "deck validator" that
    MEDICI and SPICE both run before touching a solver (paper Fig. 1c flow:
    device selection only means anything on well-formed inputs).

    Every rule reports through {!Diagnostic}; nothing here invokes a
    solver, so checking is cheap enough to run on every entry point. *)

module Diagnostic = Diagnostic
module Rules = Rules
module Interval = Interval
module Netlist_drc = Netlist_drc
module Device_rules = Device_rules
module Structure_rules = Structure_rules
module Design_rules = Design_rules
module Validity_rules = Validity_rules
module Memo_soundness = Memo_soundness

exception Check_failed of Diagnostic.t list
(** Raised by {!assert_clean}; carries every diagnostic, errors first. *)

let () =
  Printexc.register_printer (function
    | Check_failed diags ->
      Some
        (Printf.sprintf "Check.Check_failed: %s\n%s" (Diagnostic.summary diags)
           (String.concat "\n" (List.map Diagnostic.to_string (Diagnostic.sort diags))))
    | _ -> None)

(* Short names for the common checks. *)
let netlist = Netlist_drc.check
let physical = Device_rules.check_physical
let compact = Device_rules.check_compact
let description = Device_rules.check_description
let structure = Structure_rules.check
let design = Design_rules.check

let assert_clean ?(what = "input") diags =
  if Diagnostic.has_errors diags then raise (Check_failed diags)
  else if diags <> [] then
    List.iter
      (fun d -> Printf.eprintf "%s: %s\n%!" what (Diagnostic.to_string d))
      (Diagnostic.sort diags)

let checked_netlist ?(what = "netlist") c =
  assert_clean ~what (netlist c);
  c

let checked_design ?(what = "design") d =
  assert_clean ~what (design d);
  d
