(* UNT003 fires as a warning on an nm/SI scale mix *)
module Params = struct
  type physical = { lpoly : float; tox : float }
end

module Constants = struct
  let to_nm x = x *. 1e9
end

let bad (p : Params.physical) = Constants.to_nm p.Params.lpoly +. p.Params.tox
