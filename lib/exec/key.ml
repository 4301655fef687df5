(* Canonical content keys for the memo tables.

   A key is a collision-free textual encoding of a value: floats are
   rendered as the hex of their IEEE-754 bit pattern (so 0.25 and
   0.25 +. 1e-17 produce different keys, and -0.0 differs from 0.0),
   and composite encodings carry field names, so two records that happen
   to hold the same floats in different fields never share a key.

   Every writer measures its text first and fills one string of exactly
   that size: a warm daemon request costs its keys' bytes and little
   else. *)

let hex_digits = "0123456789abcdef"

(* A float's bits as two 32-bit halves in ints, so that the digit loops
   below work on unboxed values.  They take the bits, not the float: a
   float passed to a function that is not inlined is boxed. *)
let high bits = Int64.to_int (Int64.shift_right_logical bits 32)
let low bits = Int64.to_int bits land 0xffff_ffff

(* The length of [Printf.sprintf "%Lx"] of the bits (lower-case, no
   leading zeros, "0" for +0.0). *)
let hex_length hi lo =
  let rec digits v n = if v = 0 then n else digits (v lsr 4) (n + 1) in
  if hi <> 0 then digits hi 8 else Int.max 1 (digits lo 0)

(* Writes the [len] digits that [hex_length] counted at [pos]. *)
let write_hex buf pos hi lo len =
  for i = 0 to len - 1 do
    let k = len - 1 - i in
    let nibble = (if k < 8 then lo lsr (4 * k) else hi lsr (4 * (k - 8))) land 15 in
    Bytes.unsafe_set buf (pos + i) hex_digits.[nibble]
  done

let float f =
  let bits = Int64.bits_of_float f in
  let hi = high bits and lo = low bits in
  let len = hex_length hi lo in
  let buf = Bytes.create len in
  write_hex buf 0 hi lo len;
  Bytes.unsafe_to_string buf

let floats ?(bracketed = true) a =
  let n = Array.length a in
  let len = ref (Int.max 0 (n - 1) + if bracketed then 2 else 0) in
  for i = 0 to n - 1 do
    let bits = Int64.bits_of_float a.(i) in
    len := !len + hex_length (high bits) (low bits)
  done;
  let buf = Bytes.create !len in
  let pos = ref 0 in
  if bracketed then begin
    Bytes.unsafe_set buf 0 '[';
    Bytes.unsafe_set buf (!len - 1) ']';
    pos := 1
  end;
  for i = 0 to n - 1 do
    if i > 0 then begin
      Bytes.unsafe_set buf !pos ',';
      incr pos
    end;
    let bits = Int64.bits_of_float a.(i) in
    let hi = high bits and lo = low bits in
    let digits = hex_length hi lo in
    write_hex buf !pos hi lo digits;
    pos := !pos + digits
  done;
  Bytes.unsafe_to_string buf

let int = string_of_int
let option enc = function None -> "-" | Some v -> "+" ^ enc v

(* "k=v;" for every field: one more byte than the fields take, since the
   last has no ';'. *)
let rec fields_length n = function
  | [] -> n
  | (k, v) :: rest -> fields_length (n + String.length k + String.length v + 2) rest

let rec write_fields buf pos = function
  | [] -> ()
  | (k, v) :: rest ->
    let kl = String.length k and vl = String.length v in
    Bytes.unsafe_blit_string k 0 buf pos kl;
    Bytes.unsafe_set buf (pos + kl) '=';
    Bytes.unsafe_blit_string v 0 buf (pos + kl + 1) vl;
    (match rest with [] -> () | _ :: _ -> Bytes.unsafe_set buf (pos + kl + 1 + vl) ';');
    write_fields buf (pos + kl + vl + 2) rest

let fields name kvs =
  let nl = String.length name in
  let buf = Bytes.create (nl + 2 + Int.max 0 (fields_length 0 kvs - 1)) in
  Bytes.unsafe_blit_string name 0 buf 0 nl;
  Bytes.unsafe_set buf nl '{';
  write_fields buf (nl + 1) kvs;
  Bytes.unsafe_set buf (Bytes.length buf - 1) '}';
  Bytes.unsafe_to_string buf
