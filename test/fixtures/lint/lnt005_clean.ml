(* LNT005 accepts Buffer/sprintf formatting *)
(* Stays clean under LNT005: output is formatted into values the caller
   controls (a Buffer, a returned string) — no channel is touched. *)

let announce buf n = Buffer.add_string buf (Printf.sprintf "sweep %d done\n" n)

let render n = Format.asprintf "sweep %d done" n
