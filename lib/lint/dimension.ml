(* The dimension lattice behind the UNT unit-inference pass.

   Physical dimensions form the rational-exponent abelian group over the
   base quantities {m, s, V, A, K} — metres, seconds, volts, amperes,
   kelvins — which spans everything in the Eq. 1–8 model chain (F = A·s/V,
   J = V·A·s, W = V·A, eV reduces to V for the per-charge conventions this
   codebase uses).  Exponents are exact rationals so sqrt halves them
   without rounding: sqrt(m^2/V) = m/V^(1/2).

   On top of the group sit two abstract elements:

   - [Unknown] — the pass could not determine a dimension.  Unknown is
     absorbing under multiplication and assumed-compatible under addition;
     it never fires a rule (sound-but-conservative, like LNT001).
   - [Const] — a numeric literal.  Literals are dimension-polymorphic:
     [2.0 *. v] scales a voltage, [v +. 0.5] offsets one, so Const is the
     multiplicative identity and adopts the other side's dimension under
     addition.

   Orthogonally to the exponents, a dimension carries a [scale] tag: values
   produced by an explicit display conversion (Constants.to_nm,
   Constants.nm, per-cm^3 doping helpers) are tagged [Display] with the
   unit string that produced them.  Combining a Display-tagged length with
   an SI length is the nm-vs-cm trap UNT003 exists for. *)

(* --- exact rational exponents ------------------------------------------- *)

type rat = { num : int; den : int }
(* normalized: den > 0, gcd(|num|, den) = 1, zero is 0/1 *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let rat num den =
  if den = 0 then invalid_arg "Dimension.rat: zero denominator";
  if num = 0 then { num = 0; den = 1 }
  else
    let s = if den < 0 then -1 else 1 in
    let g = gcd (abs num) (abs den) in
    { num = s * num / g; den = s * den / g }

let rat_of_int n = { num = n; den = 1 }
let rat_zero = rat_of_int 0
let rat_add a b = rat ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let rat_neg a = { a with num = -a.num }
let rat_mul a b = rat (a.num * b.num) (a.den * b.den)
let rat_is_zero a = a.num = 0

let rat_to_string a =
  if a.den = 1 then string_of_int a.num
  else Printf.sprintf "%d/%d" a.num a.den

(* --- dimensions --------------------------------------------------------- *)

type scale = Si | Display of string

type dim = { m : rat; s : rat; v : rat; a : rat; k : rat; scale : scale }

type t = Unknown | Const | Dim of dim

let no_exponents = { m = rat_zero; s = rat_zero; v = rat_zero; a = rat_zero; k = rat_zero; scale = Si }

let dimensionless = Dim no_exponents

let base which =
  let d = no_exponents in
  Dim
    (match which with
     | `M -> { d with m = rat_of_int 1 }
     | `S -> { d with s = rat_of_int 1 }
     | `V -> { d with v = rat_of_int 1 }
     | `A -> { d with a = rat_of_int 1 }
     | `K -> { d with k = rat_of_int 1 })

let is_dimensionless = function
  | Dim d ->
    rat_is_zero d.m && rat_is_zero d.s && rat_is_zero d.v && rat_is_zero d.a
    && rat_is_zero d.k
  | Unknown | Const -> false

let equal_exponents a b =
  a.m = b.m && a.s = b.s && a.v = b.v && a.a = b.a && a.k = b.k

(* The scale of a product: display taint is sticky (nm * nm is still a
   display-scaled quantity), and a clash of two distinct display units is
   folded to the left tag — the exponent check is what matters there. *)
let combine_scale a b =
  match (a, b) with
  | Si, Si -> Si
  | Display _, _ -> a
  | Si, Display _ -> b

let scale_conflict a b =
  match (a.scale, b.scale) with
  | Si, Si -> false
  | Display da, Display db -> da <> db
  | Si, Display _ | Display _, Si ->
    (* Dimensionless values carry no length/voltage content, so their scale
       tag is vacuous; only a clash between dimensioned values matters. *)
    true

let scale_label = function Si -> "SI" | Display u -> u

(* --- group operations --------------------------------------------------- *)

let mul x y =
  match (x, y) with
  | Unknown, _ | _, Unknown -> Unknown
  | Const, d | d, Const -> d
  | Dim a, Dim b ->
    Dim
      { m = rat_add a.m b.m;
        s = rat_add a.s b.s;
        v = rat_add a.v b.v;
        a = rat_add a.a b.a;
        k = rat_add a.k b.k;
        scale = combine_scale a.scale b.scale }

let inv = function
  | Unknown -> Unknown
  | Const -> Const
  | Dim a ->
    Dim
      { a with
        m = rat_neg a.m;
        s = rat_neg a.s;
        v = rat_neg a.v;
        a = rat_neg a.a;
        k = rat_neg a.k }

let div x y = mul x (inv y)

let pow x r =
  match x with
  | Unknown -> Unknown
  | Const -> Const
  | Dim a ->
    if rat_is_zero r then dimensionless
    else
      Dim
        { a with
          m = rat_mul a.m r;
          s = rat_mul a.s r;
          v = rat_mul a.v r;
          a = rat_mul a.a r;
          k = rat_mul a.k r }

let sqrt_ x = pow x (rat 1 2)

(* --- rendering ---------------------------------------------------------- *)

(* Render "m^2*V/s" style: positive exponents first, then a "/" section for
   negatives; "1" when everything cancels. *)
let to_string = function
  | Unknown -> "unknown"
  | Const -> "numeric literal"
  | Dim d ->
    let comps = [ ("m", d.m); ("s", d.s); ("V", d.v); ("A", d.a); ("K", d.k) ] in
    let atom (n, e) =
      if e = rat_of_int 1 then n
      else if e.den = 1 then Printf.sprintf "%s^%d" n e.num
      else Printf.sprintf "%s^(%s)" n (rat_to_string e)
    in
    let pos = List.filter (fun (_, e) -> e.num > 0) comps in
    let neg =
      List.filter_map
        (fun (n, e) -> if e.num < 0 then Some (n, rat_neg e) else None)
        comps
    in
    let body =
      match (pos, neg) with
      | [], [] -> "1"
      | _, [] -> String.concat "*" (List.map atom pos)
      | [], _ -> "1/" ^ String.concat "/" (List.map atom neg)
      | _, _ ->
        String.concat "*" (List.map atom pos)
        ^ "/"
        ^ String.concat "/" (List.map atom neg)
    in
    (match d.scale with
     | Si -> body
     | Display u -> Printf.sprintf "%s [display:%s]" body u)

(* --- additive combination ----------------------------------------------- *)

(* The judgment for [+.], [-.], comparisons, Float.min/max, and if/match
   branch joins: either the two sides agree (possibly by one side adopting
   the other), or they conflict in exponents (UNT001 territory) or in
   length scale only (UNT003 territory — same physics, different unit
   system, the nm-vs-cm trap). *)
type combination =
  | Ok_dim of t
  | Mismatch of dim * dim       (* incompatible exponents *)
  | Scale_mix of dim * dim      (* same exponents, conflicting scale tags *)

(* Unknown adopts the known side: assuming the combination is correct
   (which is what "never fire on unknown" means) implies the unknown
   operand had the known operand's dimension, so the sum carries it too.
   This keeps inference alive through closure parameters and partial
   seeds without ever manufacturing a firing. *)
let add x y =
  match (x, y) with
  | Unknown, Unknown -> Ok_dim Unknown
  | Unknown, d | d, Unknown -> Ok_dim d
  | Const, d | d, Const -> Ok_dim d
  | Dim a, Dim b ->
    if not (equal_exponents a b) then Mismatch (a, b)
    else if scale_conflict a b then Scale_mix (a, b)
    else Ok_dim (Dim { a with scale = combine_scale a.scale b.scale })

(* Branch join for if/match/try: agreement propagates, disagreement (or any
   Unknown arm) degrades to Unknown rather than firing — control-flow joins
   are not arithmetic, so a mismatch there is not evidence of a bug. *)
let join x y =
  match (x, y) with
  | Const, d | d, Const -> d
  | Dim a, Dim b when equal_exponents a b && not (scale_conflict a b) ->
    Dim { a with scale = combine_scale a.scale b.scale }
  | _ -> Unknown
