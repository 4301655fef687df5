(* LNT004 fires on a literal rule id at a Diagnostic call site *)
(* The literal bypasses the Check.Rules registry: no collision check, no --rules row. *)

module Diagnostic = struct
  let error ~rule ~location msg = (rule, location, msg)
end

let bad_site () = Diagnostic.error ~rule:"ZZZ123" ~location:"somewhere" "boom"
