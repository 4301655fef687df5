(** Serving layer: the line-delimited JSON query protocol
    ({!Protocol}), the sweep-box coalescing planner ({!Coalesce}), the
    daemon's answer cache ({!Answer_cache}) and the socket daemon
    ({!Server}) behind [subscale serve]. *)

module Protocol = Protocol
module Coalesce = Coalesce
module Answer_cache = Answer_cache
module Server = Server
