(** SRAM bitline integrity in the sub-V_th regime.

    Sec. 2.3.2: "a small I_on/I_off in sub-V_th circuits already places
    tight limits on the maximum number of bits/line" (ref [16]).  During a
    read, one accessed cell discharges the bitline with I_on while the
    other N-1 cells on the line leak I_off each, possibly in the opposing
    direction; sensing needs the read current to beat the aggregate leak by
    a margin. *)

val max_bits_per_line : Device.Compact.t -> vdd:float -> int
(** Largest N with I_on >= 4 (N - 1) I_off, both currents at [vdd]: a
    conservative sense-amp margin of 4. *)
