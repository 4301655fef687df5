(* LNT001 fires on a Hashtbl captured by a Pool.map closure *)
(* Pool.map is the engine's other entry point: the closure adds to a
   table it captured, so every domain writes one shared Hashtbl. *)

module Pool = struct
  let map _pool f xs = List.map f xs
end

let tally pool tbl xs = Pool.map pool (fun x -> Hashtbl.add tbl x x; x) xs
