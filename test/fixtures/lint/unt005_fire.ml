(* UNT005 reports a container round-trip at info level *)
(* A value [V] flows through a container the pass cannot follow. *)
module Params = struct
  type physical = { vdd : float }
end

let bad (p : Params.physical) (xs : float list) =
  List.map (fun dv -> p.Params.vdd +. dv) xs
