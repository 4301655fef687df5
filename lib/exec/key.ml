(* Canonical content keys for the memo tables.

   A key is a collision-free textual encoding of a value: floats are
   rendered as the hex of their IEEE-754 bit pattern (so 0.25 and
   0.25 +. 1e-17 produce different keys, and -0.0 differs from 0.0),
   and composite encodings carry field names, so two records that happen
   to hold the same floats in different fields never share a key. *)

let hex_digits = "0123456789abcdef"

(* The text of [Printf.sprintf "%Lx"] on the bits (lower-case, no leading
   zeros, "0" for +0.0), written nibble by nibble: every key is built
   from these, and Printf's format interpretation cost about 70 words a
   float.  The bits are split into two 32-bit halves so that the loop
   works on unboxed ints. *)
let float f =
  let bits = Int64.bits_of_float f in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let lo = Int64.to_int bits land 0xffff_ffff in
  let nibble i = (if i < 8 then lo lsr (4 * i) else hi lsr (4 * (i - 8))) land 15 in
  let len = ref 16 in
  while !len > 1 && nibble (!len - 1) = 0 do
    decr len
  done;
  let len = !len in
  String.init len (fun i -> hex_digits.[nibble (len - 1 - i)])

let int = string_of_int
let option enc = function None -> "-" | Some v -> "+" ^ enc v
let list enc xs = "[" ^ String.concat "," (List.map enc xs) ^ "]"
(* A named record: [fields "physical" [("lpoly", ...); ...]]. *)
let fields name kvs =
  name ^ "{" ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
