(* Sound interval arithmetic for the validity abstract interpreter.

   An interval is a closed, non-empty set [lo, hi] of reals (endpoints may
   be infinite).  Every operation returns an interval that CONTAINS the
   image of its inputs — soundness over tightness: dependent subexpressions
   are re-widened (x - x is not 0) and every finite endpoint is pushed
   outward by a couple of ulps, which dominates the worst-case rounding of
   the libm kernels we model (exp/log/pow are within 1-2 ulps on glibc).

   NaN never enters an interval: constructors reject it, and operations
   whose candidate endpoints would be NaN (0 * inf at a corner) widen to
   the full line instead — again sound, never silent. *)

type t = { lo : float; hi : float }

exception Invalid of string

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    raise (Invalid (Printf.sprintf "Interval.make: NaN endpoint (%h, %h)" lo hi))
  else if lo > hi then
    raise (Invalid (Printf.sprintf "Interval.make: crossed endpoints (%g > %g)" lo hi))
  else { lo; hi }

let point v = make v v
let top = { lo = neg_infinity; hi = infinity }

let lo i = i.lo
let hi i = i.hi
let mem x i = Float.is_nan x = false && x >= i.lo && x <= i.hi
let straddles_zero i = i.lo < 0.0 && i.hi > 0.0
let contains_zero i = i.lo <= 0.0 && i.hi >= 0.0
let is_finite i = Float.is_finite i.lo && Float.is_finite i.hi

let to_string i = Printf.sprintf "[%.6g, %.6g]" i.lo i.hi

(* Outward rounding: one ulp covers correctly-rounded (+, -, *, /, sqrt);
   transcendentals get two. *)
let down x = if Float.is_finite x then Float.pred x else x
let up x = if Float.is_finite x then Float.succ x else x
let down2 x = down (down x)
let up2 x = up (up x)

let neg i = { lo = -.i.hi; hi = -.i.lo }
let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let sub a b = add a (neg b)

(* A rounded product keeps the sign of the exact one, even when it
   underflows, so a +0.0 lower corner (or a -0.0 upper one) already bounds
   it: only a nonzero corner steps out.  [Float.min] orders -0.0 below
   +0.0, so a +0.0 minimum means no corner is negative. *)
let mul a b =
  let c1 = a.lo *. b.lo and c2 = a.lo *. b.hi and c3 = a.hi *. b.lo and c4 = a.hi *. b.hi in
  if Float.is_nan c1 || Float.is_nan c2 || Float.is_nan c3 || Float.is_nan c4 then top
  else
    let lo = Float.min (Float.min c1 c2) (Float.min c3 c4)
    and hi = Float.max (Float.max c1 c2) (Float.max c3 c4) in
    {
      lo = (if Float.equal lo 0.0 && not (Float.sign_bit lo) then lo else down lo);
      hi = (if Float.equal hi 0.0 && Float.sign_bit hi then hi else up hi);
    }

let scale k i = mul (point k) i

(* [inv] of a zero-straddling interval is the whole line (the true image is
   two unbounded rays); callers that care distinguish the case up front via
   [straddles_zero]. *)
let inv i =
  if contains_zero i then
    if Float.equal i.lo 0.0 && Float.equal i.hi 0.0 then top
    else if Float.equal i.lo 0.0 then { lo = down (1.0 /. i.hi); hi = infinity }
    else if Float.equal i.hi 0.0 then { lo = neg_infinity; hi = up (1.0 /. i.lo) }
    else top
  else
    let c1 = 1.0 /. i.lo and c2 = 1.0 /. i.hi in
    { lo = down (Float.min c1 c2); hi = up (Float.max c1 c2) }

let div a b = mul a (inv b)

(* Monotone lifting: [f] non-decreasing over the interval's domain. *)
let mono_incr f i =
  let lo = f i.lo and hi = f i.hi in
  if Float.is_nan lo || Float.is_nan hi then
    raise (Invalid "Interval.mono_incr: function returned NaN on an endpoint")
  else make (down2 lo) (up2 hi)

let mono_decr f i = neg (mono_incr (fun x -> -.f x) i)

(* [f] non-decreasing in its first argument, non-increasing in its second. *)
let mono_incr_decr f a b =
  let lo = f a.lo b.hi and hi = f a.hi b.lo in
  if Float.is_nan lo || Float.is_nan hi then
    raise (Invalid "Interval.mono_incr_decr: function returned NaN on a corner")
  else make (down2 lo) (up2 hi)

let exp i = mono_incr Stdlib.exp i

(* [sqrt] on the nonnegative part only; the caller clamps (and flags)
   negative boxes first. *)
let sqrt i =
  if i.hi < 0.0 then raise (Invalid "Interval.sqrt: negative interval");
  let lo = if i.lo <= 0.0 then 0.0 else down (Stdlib.sqrt i.lo) in
  { lo; hi = up (Stdlib.sqrt i.hi) }

(* x ** c for x >= 0, c a constant. *)
let pow_const i c =
  if i.hi < 0.0 then raise (Invalid "Interval.pow_const: negative base");
  let clamped = { lo = Float.max i.lo 0.0; hi = i.hi } in
  if Float.equal c 0.0 then point 1.0
  else if c > 0.0 then mono_incr (fun x -> x ** c) clamped
  else if Float.equal clamped.lo 0.0 then { lo = down2 (clamped.hi ** c); hi = infinity }
  else mono_decr (fun x -> x ** c) clamped

let min_ a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let clamp_lo floor i = { lo = Float.max floor i.lo; hi = Float.max floor i.hi }

let widen ~rel i =
  let r = Float.abs rel in
  let a = i.lo -. (r *. Float.abs i.lo) and b = i.hi +. (r *. Float.abs i.hi) in
  make (down a) (up b)
