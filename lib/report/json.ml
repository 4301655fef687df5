(* Dependency-free JSON subset reader/writer.  The parser is a tiny
   recursive-descent reader covering exactly what the subscale schemas can
   contain (objects, arrays, strings, numbers, null, booleans) —
   lib/report links against nothing, so no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* Recursion cap for the recursive-descent parser: the subscale schemas
   nest a handful of levels, so any input deeper than this is hostile or
   corrupt.  Failing with [Bad] keeps a daemon's parse step total — a
   deliberately deep line must not escape as [Stack_overflow]. *)
let max_depth = 64

(* C's printf, as Printf's "%.17g" and "%.0f" call it on a finite float,
   without the format interpreter's ~60 words a number. *)
external format_float : string -> float -> string = "caml_format_float"

(* Numbers must round-trip: 17 significant digits recover the exact double.
   Integral values print without the fraction so counters stay readable. *)
let render_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else format_float "%.17g" f

let render v =
  let buf = Buffer.create 256 in
  (* A quoted string with its body escaped: quotes, backslash, control
     bytes. *)
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (render_num f)
    | Str s -> str s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          str k;
          Buffer.add_char buf ':';
          go x)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  (* The next byte, or NUL past the end: no option to allocate per byte.
     Where a NUL byte in the input would read differently from the end,
     the position is tested first. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
        advance ();
        match peek () with
        | '"' -> advance (); Buffer.add_char buf '"'; go ()
        | '\\' -> advance (); Buffer.add_char buf '\\'; go ()
        | '/' -> advance (); Buffer.add_char buf '/'; go ()
        | 'n' -> advance (); Buffer.add_char buf '\n'; go ()
        | 't' -> advance (); Buffer.add_char buf '\t'; go ()
        | 'r' -> advance (); Buffer.add_char buf '\r'; go ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let is_hex = function
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
            | _ -> false
          in
          (* [int_of_string] accepts signs and underscores, so the digits
             are vetted first and the parse stays a [Bad], never a
             [Failure], on hostile input. *)
          if not (String.for_all is_hex hex) then fail "malformed \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "malformed \\u escape"
          in
          pos := !pos + 4;
          (* The schemas are ASCII; escapes only ever encode control bytes. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?';
          go ()
        | _ -> fail "unsupported escape")
      | c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while is_num_char (peek ()) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_lit () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((key, v) :: acc)
          | '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elems (v :: acc)
          | ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elems [])
      end
    | '"' -> Str (string_lit ())
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | _ -> Num (number ())
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse text =
  match parse_exn text with t -> Ok t | exception Bad msg -> Error msg

let member name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let field name = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad (Printf.sprintf "expected object around field %S" name))

let as_string what = function
  | Str s -> s
  | _ -> raise (Bad (Printf.sprintf "%s: expected string" what))

let as_number what = function
  | Num f -> f
  | _ -> raise (Bad (Printf.sprintf "%s: expected number" what))

let as_int what j =
  let f = as_number what j in
  if Float.is_integer f then int_of_float f
  else raise (Bad (Printf.sprintf "%s: expected integer" what))

let as_list what = function
  | Arr l -> l
  | _ -> raise (Bad (Printf.sprintf "%s: expected array" what))
