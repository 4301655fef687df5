(* Render typedtree locations as "file:line:col" diagnostic locations.

   The file name comes from the runner (the .cmt's recorded source path,
   e.g. "lib/core/experiments.ml") so locations are stable relative paths
   whatever directory the compiler happened to run in. *)

let to_string ~source (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d:%d" source p.Lexing.pos_lnum (p.Lexing.pos_cnum - p.Lexing.pos_bol)
