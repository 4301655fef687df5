(* Answer bodies keyed by their request, with floats compared by bits. *)

module Tbl = Hashtbl.Make (struct
  type t = Protocol.request

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let equal (a : t) (b : t) =
    match (a, b) with
    | Protocol.Device a, Protocol.Device b -> a.node = b.node && String.equal a.strategy b.strategy
    | Protocol.Tcad a, Protocol.Tcad b ->
      a.node = b.node && String.equal a.strategy b.strategy && same a.vdd b.vdd && a.nx = b.nx
      && a.ny = b.ny
    | Protocol.Idvg a, Protocol.Idvg b ->
      a.node = b.node && String.equal a.strategy b.strategy && same a.vd b.vd
      && same a.vg_min b.vg_min && same a.vg_max b.vg_max && a.points = b.points && a.nx = b.nx
      && a.ny = b.ny
    | Protocol.Ping, Protocol.Ping
    | Protocol.Health, Protocol.Health
    | Protocol.Shutdown, Protocol.Shutdown ->
      true
    | _ -> false

  (* Bit-equal requests are structurally equal, so they hash alike. *)
  let hash = Hashtbl.hash
end)

type t = { tbl : string Tbl.t; budget : int; mutable bytes : int }

let create ~budget = { tbl = Tbl.create 64; budget; bytes = 0 }
let find t req = Tbl.find_opt t.tbl req

let add t req body =
  let n = String.length body in
  if n <= t.budget && not (Tbl.mem t.tbl req) then begin
    if t.bytes + n > t.budget then begin
      Tbl.reset t.tbl;
      t.bytes <- 0
    end;
    Tbl.add t.tbl req body;
    t.bytes <- t.bytes + n
  end
