(* Canonical content keys for the memo tables.

   A key is a collision-free textual encoding of a value: floats are
   rendered as the hex of their IEEE-754 bit pattern (so 0.25 and
   0.25 +. 1e-17 produce different keys, and -0.0 differs from 0.0),
   and composite encodings carry field names, so two records that happen
   to hold the same floats in different fields never share a key. *)

let float f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let int = string_of_int
let option enc = function None -> "-" | Some v -> "+" ^ enc v
let list enc xs = "[" ^ String.concat "," (List.map enc xs) ^ "]"
(* A named record: [fields "physical" [("lpoly", ...); ...]]. *)
let fields name kvs =
  name ^ "{" ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
