(** A satisfying assignment: symbolic variable -> concrete value.

    Variables absent from the model are unconstrained and read as zero,
    which matches what STP reports for don't-care inputs. *)

type t

val empty : unit -> t
val of_bindings : (Expr.var * int64) list -> t
val set : t -> Expr.var -> int64 -> unit

val copy : t -> t
(** An independent copy: setting one never changes the other. *)

val get : t -> Expr.var -> int64
(** Value of a variable, normalized to its width; [0] when unbound. *)

val mem : t -> Expr.var -> bool

val bindings : t -> (Expr.var * int64) list
(** All bound variables, sorted by variable id. *)

val eval_bv : t -> Expr.bv -> int64
(** Memoized evaluation of a term under the model. *)

val eval_bool : t -> Expr.boolean -> bool

val satisfies : t -> Expr.boolean list -> bool
(** Does the model satisfy all the given constraints?  Used to double-check
    inconsistency witnesses before shipping them. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
