(** Hash-consed bitvector and boolean expressions (the QF_BV fragment).

    Every node carries a unique id assigned at interning time, so structural
    equality is physical equality ([==]) and id comparison; this property
    underpins cheap trace comparison and solver memoization across SOFT.

    Bitvector widths range over [1..64]; concrete values are [int64]
    normalized to their width (high bits zero).  Smart constructors perform
    constant folding and algebraic simplification, so a term built only from
    constants is itself a [Const]. *)

(** {1 Types} *)

type unop = Bnot  (** bitwise complement *) | Neg  (** two's-complement negation *)

type binop =
  | Add
  | Sub
  | Mul
  | Andb
  | Orb
  | Xorb
  | Shl  (** left shift; amounts >= width give zero *)
  | Lshr  (** logical right shift; amounts >= width give zero *)

type cmp =
  | Eq
  | Ult  (** unsigned less-than *)
  | Ule  (** unsigned less-or-equal *)
  | Slt  (** signed less-than *)
  | Sle  (** signed less-or-equal *)

type bv = private { id : int; width : int; node : bv_node }
(** A bitvector term. [id] is the hash-consing identity. *)

and bv_node =
  | Const of int64
  | Var of var
  | Unop of unop * bv
  | Binop of binop * bv * bv
  | Ite of boolean * bv * bv
  | Extract of bv * int * int  (** [Extract (e, hi, lo)], bits inclusive *)
  | Concat of bv * bv  (** [Concat (high, low)] *)
  | Zext of bv
  | Sext of bv

and boolean = private { bid : int; bnode : bool_node }
(** A boolean formula over bitvector atoms. *)

and bool_node =
  | True
  | False
  | Cmp of cmp * bv * bv
  | Not of boolean
  | And of boolean * boolean
  | Or of boolean * boolean

and var
(** A symbolic variable.  Variables are interned globally by name: two
    [var] calls with the same name return the same variable, which is what
    lets two independently-executed agents share an input namespace. *)

exception Width_mismatch of string
(** Raised when an operation combines bitvectors of different widths, or a
    variable name is reused at a different width. *)

(** {1 Widths and normalization} *)

val mask : int -> int64
(** [mask w] is the all-ones value of width [w]. *)

val norm : int -> int64 -> int64
(** [norm w v] truncates [v] to its low [w] bits. *)

val to_signed : int -> int64 -> int64
(** [to_signed w v] sign-extends the normalized width-[w] value [v] into a
    full [int64]. *)

(** {1 Variables} *)

val var : width:int -> string -> bv
(** [var ~width name] is the bitvector variable [name], creating it on
    first use. @raise Width_mismatch if [name] exists at another width. *)

val make_var : string -> int -> var
(** Like {!var} but returns the variable handle itself. *)

val of_var : var -> bv
val var_by_id : int -> var option
val var_name : var -> string
val var_width : var -> int
val var_id : var -> int
val all_vars : unit -> var list

(** {1 Bitvector constructors} *)

val const : width:int -> int64 -> bv
val width : bv -> int
val is_const : bv -> bool
val const_value : bv -> int64 option

val unop : unop -> bv -> bv
val binop : binop -> bv -> bv -> bv
val bnot : bv -> bv
val neg : bv -> bv
val add : bv -> bv -> bv
val sub : bv -> bv -> bv
val mul : bv -> bv -> bv
val logand : bv -> bv -> bv
val logor : bv -> bv -> bv
val logxor : bv -> bv -> bv
val shl : bv -> bv -> bv
val lshr : bv -> bv -> bv

val extract : hi:int -> lo:int -> bv -> bv
(** [extract ~hi ~lo e] is bits [hi..lo] of [e], inclusive, LSB 0. *)

val concat : bv -> bv -> bv
(** [concat high low]; result width is the sum (at most 64). *)

val zext : width:int -> bv -> bv
val sext : width:int -> bv -> bv
val ite : boolean -> bv -> bv -> bv

(** {1 Boolean constructors} *)

val tru : boolean
val fls : boolean
val of_bool : bool -> boolean
val is_true : boolean -> bool
val is_false : boolean -> bool

val cmp : cmp -> bv -> bv -> boolean
val eq : bv -> bv -> boolean
val neq : bv -> bv -> boolean
val ult : bv -> bv -> boolean
val ule : bv -> bv -> boolean
val ugt : bv -> bv -> boolean
val uge : bv -> bv -> boolean
val slt : bv -> bv -> boolean
val sle : bv -> bv -> boolean

val eq_const : bv -> int64 -> boolean
val neq_const : bv -> int64 -> boolean

val not_ : boolean -> boolean
val and_ : boolean -> boolean -> boolean
val or_ : boolean -> boolean -> boolean
val implies : boolean -> boolean -> boolean

val conj : boolean list -> boolean
(** Left-fold conjunction; [conj [] = tru]. *)

val disj : boolean list -> boolean
(** Left-fold disjunction; [disj [] = fls]. *)

val balanced_conj : boolean list -> boolean
(** Conjunction as a balanced tree, minimizing nesting depth — the shape
    SOFT hands to the solver. *)

val balanced_disj : boolean list -> boolean
(** Disjunction as a balanced tree (the grouping tool's or-trees,
    paper §4.2). *)

(** {1 Traversal and metrics} *)

val iter_bool : on_bv:(bv -> unit) -> on_bool:(boolean -> unit) -> boolean -> unit
val iter_bv : on_bv:(bv -> unit) -> on_bool:(boolean -> unit) -> bv -> unit

val bool_size : boolean -> int
(** Number of boolean operations (comparisons and connectives) in the
    formula, counting shared subterms once — the "constraint size" metric
    of the paper's Table 2. *)

val vars_of_bool : boolean -> var list
val vars_of_bv : bv -> var list

(** {1 Evaluation} *)

val eval_bv : (var -> int64) -> bv -> int64
(** Evaluate under an assignment.  Recursive over the term structure; for
    heavily shared DAGs prefer {!eval_bv_memo}. *)

val eval_bool : (var -> int64) -> boolean -> bool

val eval_bv_memo : (var -> int64) -> bv -> int64
(** Like {!eval_bv} but visits each distinct node once. *)

val eval_bool_memo : (var -> int64) -> boolean -> bool

(** {1 Printing} *)

val pp_bv : Format.formatter -> bv -> unit
val pp_bool : Format.formatter -> boolean -> unit
val bv_to_string : bv -> string
val bool_to_string : boolean -> string

(** {1 Hash-cons table accounting}

    The interning tables are global and append-only: node ids are identity
    and live expressions hold physical pointers to their children, so
    nothing can ever be evicted without breaking hash-consing.  Growth is
    therefore {e reported} ({!live_nodes}, folded into solver stats)
    rather than reclaimed. *)

val live_nodes : unit -> int
(** Total interned nodes across the bitvector, boolean and variable
    tables — the gauge reported through [Solver] stats. *)

val table_sizes : unit -> int * int * int
(** [(bv, bool, vars)] table sizes, individually. *)

val reset_for_testing : unit -> unit
(** Drop all interning tables (invalidates every existing expression);
    tests only. *)
