type t = Tt | Ff | Ss | Fs | Sf

let all = [ Tt; Ff; Ss; Fs; Sf ]

let name = function Tt -> "TT" | Ff -> "FF" | Ss -> "SS" | Fs -> "FS" | Sf -> "SF"

(* Speed of each polarity at a corner: +1 fast, -1 slow, 0 typical.  The
   first letter names the NFET, the second the PFET. *)
let speed corner polarity =
  match (corner, polarity) with
  | Tt, _ -> 0.0
  | Ff, _ -> 1.0
  | Ss, _ -> -1.0
  | Fs, Params.Nfet | Sf, Params.Pfet -> 1.0
  | Fs, Params.Pfet | Sf, Params.Nfet -> -1.0

(* 30 mV is a typical 3-sigma die-to-die threshold budget. *)
let vth_shift corner polarity = -.speed corner polarity *. 0.030

let mobility_scale corner polarity = 1.0 +. (speed corner polarity *. 0.08)

let apply corner (dev : Compact.t) =
  let shifted = Compact.with_vth_shift dev (vth_shift corner dev.Compact.polarity) in
  let mu = shifted.Compact.mu *. mobility_scale corner dev.Compact.polarity in
  { shifted with Compact.mu }
