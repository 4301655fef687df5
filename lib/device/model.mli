(** The model: the float instance of {!Eqs.Make}, which {!Compact},
    [Circuits.Inverter], [Analysis.Delay] and [Analysis.Energy] call.

    It is the chain's own text with {!Eqs.Float_num}'s operations, compiled
    as one module (this directory's dune file writes it from eqs.ml) so
    that every operation is direct float code, bit for bit
    [Eqs.Make (Eqs.Float_num)]. *)

include Eqs.S with type num = float
