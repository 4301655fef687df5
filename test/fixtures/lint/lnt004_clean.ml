(* LNT004 accepts rule ids flowing through identifiers *)
(* Stays clean under LNT004: the rule id reaches the diagnostic
   constructor through an identifier (as Check.Rules.register returns it),
   not as a literal at the call site. *)

module Diagnostic = struct
  let error ~rule ~location msg = (rule, location, msg)
end

let registered_rule = "ZZZ123"

let good_site () = Diagnostic.error ~rule:registered_rule ~location:"somewhere" "boom"
