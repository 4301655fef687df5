(* LNT005 fires on direct printing from library code *)
(* To stdout via Printf and via the bare printer, from non-exempt code. *)

let announce n =
  Printf.printf "sweep %d done\n" n;
  print_newline ()
