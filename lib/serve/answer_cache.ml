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

(* A request's first answer is only a sighting: most requests are asked
   once, and their bodies would fill the budget for nothing. *)
type entry = Seen | Body of string

type t = { tbl : entry Tbl.t; budget : int; mutable bytes : int }

let sighting_bytes = 192

let create ~budget = { tbl = Tbl.create 64; budget; bytes = 0 }
let find t req =
  match Tbl.find_opt t.tbl req with Some (Body body) -> Some body | Some Seen | None -> None

(* Make room for [n] more bytes: clear the table if they do not fit. *)
let charge t n =
  if t.bytes + n > t.budget then begin
    Tbl.reset t.tbl;
    t.bytes <- 0
  end;
  t.bytes <- t.bytes + n

let add t req body =
  let n = String.length body in
  if n <= t.budget then
    match Tbl.find_opt t.tbl req with
    | Some (Body _) -> ()
    | Some Seen ->
      charge t n;
      Tbl.replace t.tbl req (Body body)
    | None ->
      charge t sighting_bytes;
      Tbl.replace t.tbl req Seen
