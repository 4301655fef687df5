# Writes model.ml from eqs.ml: the body of Eqs.Float_num (the float
# operations) followed by the body of Eqs.Make (the chain), so the model
# is the chain's own text with every operation a known float function.
BEGIN {
  print "(* Generated from eqs.ml by model.awk (see dune); do not edit. *)"
  print "open Eqs"
}
/^module Float_num : NUM with type t = float = struct$/ { copy = 1; next }
/^module Make \(N : NUM\) : S with type num = N\.t = struct$/ { copy = 1; next }
copy && /^end$/ { copy = 0; next }
copy && /^  type t = float$/ { next }
copy && /^  type num = N\.t$/ { print "  type num = float"; next }
copy && /^  open N$/ { next }
copy { print }
