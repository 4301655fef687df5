(** Structured static-analysis diagnostics.

    Every rule in the checker reports through this one type so the CLI,
    the tests and library callers all consume the same shape: a stable
    rule id (grep-able, e.g. ["net-floating-node"]), a severity, a
    human-readable location (node/net/parameter names, not internal
    indices) and a fix hint where one is known. *)

type severity = Error | Warning | Info

type t = {
  rule : string;  (** stable rule identifier, kebab-case, namespaced by layer *)
  severity : severity;
  location : string;  (** where, in user vocabulary ("node \"out\"", "gate oxide") *)
  message : string;  (** what is wrong *)
  hint : string option;  (** how to fix it, when a fix is known *)
}

val make : ?hint:string -> rule:string -> severity:severity -> location:string -> string -> t

val error : ?hint:string -> rule:string -> location:string -> string -> t
val warning : ?hint:string -> rule:string -> location:string -> string -> t
val info : rule:string -> location:string -> string -> t

val severity_label : severity -> string

val sort : t list -> t list

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val has_errors : t list -> bool

val to_string : t -> string
(** ["error[net-floating-node] node \"x\": ... (hint: ...)"]. *)

val summary : t list -> string
(** ["clean"] or ["2 error(s), 1 warning(s), 0 info"]. *)

val exit_code : t list -> int
(** 0 when error-free (warnings allowed), 1 otherwise — the contract of
    [subscale check]. *)
