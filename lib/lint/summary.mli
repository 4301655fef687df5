(** The lint effect engine shared by LNT001, ALS001-004 and RAC001-005.

    One context per {!Callgraph} entry, built in a single walk; one
    summary record per definition (per-parameter ownership effects plus
    may-raise / may-block / locks-acquired), computed by one bounded
    monotone fixpoint; and the {!Flow} root analysis the checking passes
    read.  Ownership keeps the "unknown never fires" contract (an
    unresolved callee is effect-free); may-raise inverts it (an unresolved
    callee may raise). *)

(** {1 Tables} *)

type slot = Pos of int | Lab of string
(** Argument slot in a calling convention: position among the unlabelled
    arguments, or a label name. *)

type call_effects = {
  ce_mutated : slot list;
  ce_buffer_mutated : slot list;  (** subset of [ce_mutated]: buffer-flavored *)
  ce_stored : slot list;
  ce_returns : slot option;       (** the result aliases this argument *)
}

val primitive_call_effects : string -> call_effects option
(** The one table of in-place primitives (flat-buffer writes, container
    and array mutators), by normalized path name. *)

val is_mutator : string -> bool
(** Does the named primitive write one of its arguments in place? *)

val unlock_names : string list
val atomic_get_names : string list

val blocking_ok : Parsetree.attributes -> bool
(** [[@blocking_ok]] on the binding: by-design IO under a lock; suppresses
    RAC005 in the definition and stops may-block propagation to callers. *)

(** {1 Contexts and summaries} *)

type effect_ = { mutated : bool; buffer_mut : bool; stored : bool; returned : bool }
(** [buffer_mut]: the mutation evidence bottoms out in a flat-buffer
    primitive (Bigarray/Fvec/Stencil5/Sparse_lu) rather than a classic container —
    the ALS pass convicts on buffer-flavored evidence only. *)

type lock_kind =
  | Kmod    (** module-level mutex: the class names one instance *)
  | Kfield  (** record-field mutex: one class, many instances *)
  | Klocal  (** let-bound in the current definition *)
  | Kparam  (** passed in as a bare parameter *)

type sum = {
  effects : effect_ array;  (** one per parameter, in currying order *)
  raises : bool;
  blocks : bool;
  acq : (string * lock_kind) list;  (** acquired lock classes, sorted *)
  pacq : (int * string list * string option) list;
      (** parameter-rooted acquisitions: index, projection trail, class *)
}

type env
type ctx

val compute : Callgraph.t -> env
(** Build every context, then run the fixpoint over every definition. *)

val callgraph : env -> Callgraph.t
val ctx : env -> Callgraph.def -> ctx
val sum : env -> Callgraph.def -> sum

val ctx_def : ctx -> Callgraph.def

val parallel_sites : ctx -> (string * Typedtree.expression) list
(** Literal closures passed to a parallel entry point, with the entry's
    name, in source order. *)

val callees : ctx -> Callgraph.def list
(** Every resolved call in the body, closures included. *)

val seeds : ctx -> Callgraph.def list
(** Resolved calls inside closures passed to a crossing entry point, plus
    named functions passed to one: where domain-crossing code starts. *)

val alias : ctx -> string -> Typedtree.expression option
(** The right-hand side of [let x = e], by [Ident.unique_name]. *)

val local_fun : ctx -> string -> Typedtree.expression option
(** A let-bound local function, by [Ident.unique_name]. *)

val atomic_get : ctx -> string -> Typedtree.expression option
(** [let x = Atomic.get a]: the atomic [a], by [x]'s unique name. *)

val call_effects : ctx -> Path.t -> call_effects option
(** Effects of calling the named function from this definition: the
    primitive table first, then the summary of a resolved definition,
    else [None]. *)

val actual_of_slot :
  (Asttypes.arg_label * Typedtree.expression option) list ->
  slot ->
  Typedtree.expression option
(** The call-site argument occupying a slot, if supplied. *)

(** Root/alias tracking over one definition's body. *)
module Flow : sig
  type base =
    | Param of int     (** parameter of the enclosing definition *)
    | Local of string  (** [Ident.unique_name] bound inside the definition *)
    | Outer of string  (** module-level value or capture from outside *)

  type root = { base : base; rev_fields : string list }
  (** A value's origin plus its field-projection trail (innermost first):
      [s.sys] roots at [s] with trail [["sys"]]. *)

  val roots : ctx -> Typedtree.expression -> root list
  (** What an expression can alias, through let-chains, field projections,
      single-argument constructors, and callees known to return an
      argument.  Unknown shapes yield []. *)

  val overlapping_roots : root -> root -> bool
  (** Same base and one projection trail extends the other: [s] overlaps
      [s.sys]; [s.sys] does not overlap [s.work]. *)

  val tails : Typedtree.expression -> Typedtree.expression list
  (** Result expressions of a body: tail positions flattened through
      constructors, tuples and records. *)
end

(** {1 Lock identity and call classification} *)

type lock = {
  l_cls : string option;
      (** static class: ["Store.t.pending_lock"], ["Memo.registry_lock"] *)
  l_kind : lock_kind;
  l_roots : Flow.root list;  (** instance identity within one def *)
  l_name : string;           (** printable site name ("t.pending_lock") *)
  l_site : Location.t;       (** acquisition site *)
}

val lock_of_expr : ctx -> Typedtree.expression -> site:Location.t -> lock option
(** A mutex expression's identity; [None] when neither a class nor a root
    is known (untracked, never convicted). *)

val pname : Typedtree.expression -> string
(** Printable name of a lock or state expression. *)

val strip_stamp : string -> string
val head_name : Types.type_expr -> string option

type call_kind =
  | Clock
  | Cunlock
  | Cprotect
  | Cfun_protect
  | Catomic_get
  | Catomic_set
  | Ccrossing
  | Chof
  | Csafe
  | Cdiverging
  | Cblocking
  | Clocal_fun of string  (** unique name of a let-bound local function *)
  | Cresolved of Callgraph.def
  | Cunknown

val classify : ctx -> Path.t -> call_kind * string
(** What a call does for the lockset analysis, and its demangled name. *)

val catch_all_case : Typedtree.value Typedtree.case -> bool

val matches : string list -> string -> bool
val dname : Path.t -> string
val is_fun : Typedtree.expression -> bool
