(* Solver frontend: the STP-shaped API that the rest of SOFT talks to.

   A query is a conjunction of boolean expressions.  The pipeline is:
   1. constant-level short-circuit (hash-consing already folded constants),
   2. the exact-key memo: an LRU over the set of constraint ids, which
      pays off because path exploration re-checks shared path-condition
      prefixes,
   3. the interval/bit-mask pre-filter (sound UNSAT-only),
   4. bit-blast + CDCL SAT, with model extraction on SAT.

   Every query may carry a resource budget (conflicts, decisions,
   wall-clock).  An exhausted budget yields the third outcome [Unknown],
   which is never cached: a later identical query may carry a larger
   budget and deserves a fresh attempt.

   Domain-safety: all mutable frontend state — the memo cache, the stats
   counters, the certify flag, the query hook and the default budget —
   lives in a per-domain [ctx] held in [Domain.DLS].  Each domain that
   issues queries owns an independent solver context; nothing here is
   shared across domains, so the crosscheck worker pool runs [check]
   concurrently without locks.  A freshly spawned domain starts from the
   built-in defaults; parallel drivers snapshot the parent's
   configuration ({!snapshot_config}) and install it in each worker
   ({!apply_config}), then fold the workers' counters back with
   {!merge_stats}. *)

type unknown_reason =
  | Out_of_conflicts
  | Out_of_decisions
  | Out_of_time
  | Proof_failed of string

type result = Sat of Model.t | Unsat | Unknown of unknown_reason

exception Solver_error of string * Expr.boolean list

let unknown_reason_to_string = function
  | Out_of_conflicts -> "conflict budget exhausted"
  | Out_of_decisions -> "decision budget exhausted"
  | Out_of_time -> "time budget exhausted"
  | Proof_failed msg -> "unsat proof rejected: " ^ msg

(* --- budgets --------------------------------------------------------- *)

type budget = {
  b_max_conflicts : int option;
  b_max_decisions : int option;
  b_timeout_ms : int option; (* per-query wall clock, monotonic *)
}

let no_budget = { b_max_conflicts = None; b_max_decisions = None; b_timeout_ms = None }

let budget ?max_conflicts ?max_decisions ?timeout_ms () =
  { b_max_conflicts = max_conflicts; b_max_decisions = max_decisions; b_timeout_ms = timeout_ms }

let is_unlimited b = b = no_budget

type stats = {
  mutable queries : int;
  mutable const_hits : int;
  mutable interval_hits : int;
  mutable cache_hits : int;
  mutable sat_calls : int;
  mutable sat_results : int;
  mutable unsat_results : int;
  mutable unknown_results : int;
  mutable cache_evictions : int;
  mutable solver_time : float;
  mutable proofs_checked : int;
  mutable proofs_failed : int;
  mutable sessions_opened : int;
  mutable assumption_solves : int;
  mutable scratch_fallbacks : int;
  mutable tiny_session_fallbacks : int; (* always 0, see solver.mli *)
  mutable learnt_retained : int;
  (* the next eight are always 0, see solver.mli *)
  mutable canonical_hits : int;
  mutable canon_small_skips : int;
  mutable rows_pruned : int;
  mutable pairs_skipped_by_pruning : int;
  mutable shared_solves : int;
  mutable bases_adopted : int;
  mutable clauses_exported : int;
  mutable clauses_imported : int;
  mutable expr_nodes : int;
}

let fresh_stats () = {
  queries = 0;
  const_hits = 0;
  interval_hits = 0;
  cache_hits = 0;
  sat_calls = 0;
  sat_results = 0;
  unsat_results = 0;
  unknown_results = 0;
  cache_evictions = 0;
  solver_time = 0.0;
  proofs_checked = 0;
  proofs_failed = 0;
  sessions_opened = 0;
  assumption_solves = 0;
  scratch_fallbacks = 0;
  tiny_session_fallbacks = 0;
  learnt_retained = 0;
  canonical_hits = 0;
  canon_small_skips = 0;
  rows_pruned = 0;
  pairs_skipped_by_pruning = 0;
  shared_solves = 0;
  bases_adopted = 0;
  clauses_exported = 0;
  clauses_imported = 0;
  expr_nodes = 0;
}

(* --- the per-domain context ------------------------------------------ *)

let default_cache_capacity = 65536

(* A bounded map with recency tracking: a hashtable over an intrusive
   doubly-linked list ordered least- to most-recently used.  [find]
   moves the entry to the back, so bounded eviction from the front
   discards what has gone longest without a hit — entries that keep
   hitting are never swept out with a cold half, which the old FIFO
   (insertion-order) eviction could not guarantee. *)
module Lru = struct
  type ('k, 'v) node = {
    nkey : 'k;
    mutable value : 'v;
    mutable prev : ('k, 'v) node option;
    mutable next : ('k, 'v) node option;
  }

  type ('k, 'v) t = {
    tbl : ('k, ('k, 'v) node) Hashtbl.t;
    mutable head : ('k, 'v) node option; (* least recently used *)
    mutable tail : ('k, 'v) node option; (* most recently used *)
  }

  let create n = { tbl = Hashtbl.create n; head = None; tail = None }
  let length t = Hashtbl.length t.tbl

  let clear t =
    Hashtbl.reset t.tbl;
    t.head <- None;
    t.tail <- None

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_back t n =
    n.prev <- t.tail;
    n.next <- None;
    (match t.tail with Some old -> old.next <- Some n | None -> t.head <- Some n);
    t.tail <- Some n

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> None
    | Some n ->
      unlink t n;
      push_back t n;
      Some n.value

  let add t k v =
    match Hashtbl.find_opt t.tbl k with
    | Some n ->
      n.value <- v;
      unlink t n;
      push_back t n
    | None ->
      let n = { nkey = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_back t n

  let evict_to t target =
    while length t > target do
      match t.head with
      | None -> Hashtbl.reset t.tbl (* defensive: list and table disagree *)
      | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.nkey
    done
end

type ctx = {
  c_stats : stats;
  c_scratch : Bitblast.ctx; (* the domain's scratch solver, reset per query *)
  c_cache : (int list, result) Lru.t;
  mutable c_capacity : int;
  mutable c_certify : bool;
  mutable c_hook : unit -> unit;
  mutable c_budget : budget; (* applied to queries with no explicit [?budget] *)
}

let create_ctx () = {
  c_stats = fresh_stats ();
  c_scratch = Bitblast.create ();
  c_cache = Lru.create 4096;
  c_capacity = default_cache_capacity;
  c_certify = false;
  c_hook = (fun () -> ());
  c_budget = no_budget;
}

let dls_key : ctx Domain.DLS.key = Domain.DLS.new_key create_ctx

let ctx () = Domain.DLS.get dls_key

(* Queries that do not pass an explicit [?budget] fall back to this; the
   CLI sets it from --budget-ms / --max-conflicts so the budget reaches
   every solver call without threading a parameter through each layer. *)
let set_default_budget b = (ctx ()).c_budget <- b
let get_default_budget () = (ctx ()).c_budget

let stats () = (ctx ()).c_stats

let reset_stats () =
  let s = stats () in
  s.queries <- 0;
  s.const_hits <- 0;
  s.interval_hits <- 0;
  s.cache_hits <- 0;
  s.sat_calls <- 0;
  s.sat_results <- 0;
  s.unsat_results <- 0;
  s.unknown_results <- 0;
  s.cache_evictions <- 0;
  s.solver_time <- 0.0;
  s.proofs_checked <- 0;
  s.proofs_failed <- 0;
  s.sessions_opened <- 0;
  s.assumption_solves <- 0;
  s.scratch_fallbacks <- 0;
  s.learnt_retained <- 0;
  s.expr_nodes <- 0

(* [expr_nodes] is a gauge over a single global table, not a per-domain
   counter: capture reads the current table size, merge takes the max so
   folding several workers' snapshots never double-counts shared nodes. *)
let capture_expr_stats () =
  let s = stats () in
  s.expr_nodes <- Expr.live_nodes ()

let merge_stats ~into:dst (src : stats) =
  dst.queries <- dst.queries + src.queries;
  dst.const_hits <- dst.const_hits + src.const_hits;
  dst.interval_hits <- dst.interval_hits + src.interval_hits;
  dst.cache_hits <- dst.cache_hits + src.cache_hits;
  dst.sat_calls <- dst.sat_calls + src.sat_calls;
  dst.sat_results <- dst.sat_results + src.sat_results;
  dst.unsat_results <- dst.unsat_results + src.unsat_results;
  dst.unknown_results <- dst.unknown_results + src.unknown_results;
  dst.cache_evictions <- dst.cache_evictions + src.cache_evictions;
  dst.solver_time <- dst.solver_time +. src.solver_time;
  dst.proofs_checked <- dst.proofs_checked + src.proofs_checked;
  dst.proofs_failed <- dst.proofs_failed + src.proofs_failed;
  dst.sessions_opened <- dst.sessions_opened + src.sessions_opened;
  dst.assumption_solves <- dst.assumption_solves + src.assumption_solves;
  dst.scratch_fallbacks <- dst.scratch_fallbacks + src.scratch_fallbacks;
  dst.learnt_retained <- dst.learnt_retained + src.learnt_retained;
  dst.expr_nodes <- max dst.expr_nodes src.expr_nodes

(* --- memo cache ------------------------------------------------------- *)

let set_cache_capacity n =
  if n <= 0 then invalid_arg "Solver.set_cache_capacity: capacity must be positive";
  (ctx ()).c_capacity <- n

let clear_cache () = Lru.clear (ctx ()).c_cache

(* Bounded eviction: on reaching capacity, discard the *colder half* of
   the entries (least-recently-used first) instead of flushing the whole
   table.  A full flush right after hitting capacity costs a worst-case
   thrash: every warm prefix entry is re-solved at once.  Dropping the
   half that has gone longest without a hit keeps the hot half resident
   while bounding memory the same way. *)
let cache_evict c lru =
  c.c_stats.cache_evictions <- c.c_stats.cache_evictions + 1;
  Lru.evict_to lru (c.c_capacity / 2)

let cache_add c key r =
  if Lru.length c.c_cache >= c.c_capacity then cache_evict c c.c_cache;
  Lru.add c.c_cache key r

let cache_key conds = List.sort_uniq compare (List.map (fun (b : Expr.boolean) -> b.Expr.bid) conds)

(* --- certification ---------------------------------------------------- *)

(* When on, every Unsat leaving the SAT core must carry a DRUP proof that
   the independent checker (Proof) accepts; a rejected proof downgrades
   the answer to [Unknown (Proof_failed _)] — an unproven Unsat is never
   trusted.  The interval pre-filter is bypassed so that no Unsat reaches
   a caller without a proof (constant folding of a literal [false]
   conjunct is the one exemption: the refutation is the constant itself). *)
let set_certify b =
  let c = ctx () in
  if b <> c.c_certify then begin
    c.c_certify <- b;
    (* memoized entries from the other regime are not proof-backed (or
       were needlessly strict); drop them *)
    clear_cache ()
  end

let certify_enabled () = (ctx ()).c_certify

(* Called on every query that reaches the SAT core, after the deadline is
   anchored and before the search starts.  Fault injection installs a
   closure here (scoped to the crosscheck phase) that may raise or skew
   the clock; by default it does nothing.  The hook is per-domain: a
   worker installing it for a pair's scope never perturbs another
   domain's queries. *)
let set_query_hook f = (ctx ()).c_hook <- f

(* --- configuration hand-off across domains ---------------------------- *)

type config = {
  cfg_budget : budget;
  cfg_certify : bool;
  cfg_cache_capacity : int;
}

let snapshot_config () =
  let c = ctx () in
  {
    cfg_budget = c.c_budget;
    cfg_certify = c.c_certify;
    cfg_cache_capacity = c.c_capacity;
  }

let apply_config cfg =
  let c = ctx () in
  c.c_budget <- cfg.cfg_budget;
  c.c_capacity <- cfg.cfg_cache_capacity;
  if c.c_certify <> cfg.cfg_certify then begin
    c.c_certify <- cfg.cfg_certify;
    clear_cache ()
  end

(* --- the query pipeline ----------------------------------------------- *)

(* Every scratch query reuses the domain's one blaster and SAT instance:
   resetting keeps their arrays and tables, so a query allocates nothing
   per clause and nothing per query that feeds the major heap (DESIGN
   §5.12), and the search is the one a fresh instance makes.  The reset
   comes first, so a query that raised (a fault from the query hook) leaves
   nothing behind.  Nothing may issue a query while one is in flight on
   the same domain — the query hook included. *)
let run_sat ?(fire_hook = true) c budget conds =
  c.c_stats.sat_calls <- c.c_stats.sat_calls + 1;
  let t0 = Mono.now () in
  let bctx = c.c_scratch in
  Bitblast.reset ~proof:c.c_certify bctx;
  List.iter (Bitblast.assert_bool bctx) conds;
  (* the deadline is anchored before bit-blasting, so blast time counts
     against the same per-query budget as the search *)
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) budget.b_timeout_ms
  in
  if fire_hook then c.c_hook ();
  let r =
    match
      Sat.solve ?max_conflicts:budget.b_max_conflicts
        ?max_decisions:budget.b_max_decisions ?deadline bctx.Bitblast.sat
    with
    | Sat.Sat -> Sat (Bitblast.extract_model bctx)
    | Sat.Unsat ->
      if not c.c_certify then Unsat
      else begin
        c.c_stats.proofs_checked <- c.c_stats.proofs_checked + 1;
        match
          Proof.check_derivation
            (Sat.original_clauses bctx.Bitblast.sat)
            (Sat.proof_steps bctx.Bitblast.sat)
        with
        | Proof.Valid -> Unsat
        | Proof.Invalid msg ->
          c.c_stats.proofs_failed <- c.c_stats.proofs_failed + 1;
          Unknown (Proof_failed msg)
      end
    | Sat.Unknown Sat.Conflicts -> Unknown Out_of_conflicts
    | Sat.Unknown Sat.Decisions -> Unknown Out_of_decisions
    | Sat.Unknown Sat.Time -> Unknown Out_of_time
  in
  c.c_stats.solver_time <- c.c_stats.solver_time +. Mono.elapsed t0;
  r

(* The frontend pipeline is split in two halves around the back end.
   [front] is everything before the core: constant folding, the memo
   cache and the interval filter.  It either decides the query
   ([Decided]) or hands back the surviving conjunction ([Pending]).
   [settle] is everything after it: result counters, the model sanity
   check and memoization.  [check_with] runs the two halves around a
   pluggable core; the crosscheck's all-SAT row query runs [front] per
   pair, decides the survivors of a whole row in one row query, and
   [settle]s each pair's answer, so both see one set of stats and memo
   rules. *)
type pending = { p_conds : Expr.boolean list; p_key : int list; p_use_cache : bool }

type front = Decided of result | Pending of pending

let pending_conds p = p.p_conds

let resolve_budget = function Some b -> b | None -> (ctx ()).c_budget

let front ?(use_interval = true) ?(use_cache = true) conds =
  let c = ctx () in
  c.c_stats.queries <- c.c_stats.queries + 1;
  (* drop trivially-true conjuncts; answer immediately on any false *)
  let conds = List.filter (fun cond -> not (Expr.is_true cond)) conds in
  if List.exists Expr.is_false conds then begin
    c.c_stats.const_hits <- c.c_stats.const_hits + 1;
    Decided Unsat
  end
  else if conds = [] then begin
    c.c_stats.const_hits <- c.c_stats.const_hits + 1;
    Decided (Sat (Model.empty ()))
  end
  else
    let key = if use_cache then cache_key conds else [] in
    match if use_cache then Lru.find c.c_cache key else None with
    | Some r ->
      c.c_stats.cache_hits <- c.c_stats.cache_hits + 1;
      (* the hit replaces a solve that would have fired the query hook
         once; consume that draw here (the hook may raise).  Per-domain
         caches warm differently at different [-j], so a draw skipped on
         a hit is exactly what would make a chaos fault schedule — and
         hence the report — depend on the worker count. *)
      c.c_hook ();
      Decided r
    | None ->
      (* certify mode bypasses the interval filter: its Unsat answers
         carry no proof, and the whole point is never to publish one *)
      if use_interval && (not c.c_certify) && Interval.check conds = Interval.Unsat
      then begin
        c.c_stats.interval_hits <- c.c_stats.interval_hits + 1;
        c.c_stats.unsat_results <- c.c_stats.unsat_results + 1;
        (* never cached: an interval refutation consumes no query-hook
           draw, while a cache hit consumes exactly one — the draw of the
           core solve it replaces.  Caching one would let the same query
           cost zero draws on the domain that decided it fresh and one
           draw on a domain replaying it from cache, making the
           fault-injection schedule — and hence a chaos report — depend
           on per-domain cache warmth, i.e. on the worker count.
           Replaying the filter costs about what the hit would, so the
           entry is not missed. *)
        Decided Unsat
      end
      else Pending { p_conds = conds; p_key = key; p_use_cache = use_cache }

let settle p r =
  let c = ctx () in
  (match r with
   | Sat m ->
     c.c_stats.sat_results <- c.c_stats.sat_results + 1;
     (* sanity: the model must actually satisfy the query.  A raised
        error, not an assert — asserts vanish under --release, which
        would silently disable the check exactly when it matters. *)
     if not (Model.satisfies m p.p_conds) then
       raise (Solver_error ("SAT model does not satisfy the query", p.p_conds))
   | Unsat -> c.c_stats.unsat_results <- c.c_stats.unsat_results + 1
   | Unknown _ -> c.c_stats.unknown_results <- c.c_stats.unknown_results + 1);
  (* never cache Unknown: it reflects this call's budget, not the query *)
  (match r with
   | Unknown _ -> ()
   | Sat _ | Unsat -> if p.p_use_cache then cache_add c p.p_key r);
  r

(* [core budget conds] is invoked only for queries that survive the front
   half.  [check] instantiates it with the scratch SAT core;
   [Session.pair] with an assumption solve on a template row. *)
let check_with ?use_interval ?use_cache ?budget ~core conds =
  let budget = resolve_budget budget in
  match front ?use_interval ?use_cache conds with
  | Decided r -> r
  | Pending p -> settle p (core budget p.p_conds)

let check ?use_interval ?use_cache ?budget conds =
  check_with ?use_interval ?use_cache ?budget
    ~core:(fun budget conds -> run_sat (ctx ()) budget conds)
    conds

(* A raw scratch SAT solve on the calling domain's context, bypassing the
   frontend pipeline.  [fire_hook=false] suppresses the query hook: a
   template row uses this to re-derive the witness scratch mode would
   publish without consuming a fault-injection draw the scratch mode
   would not consume. *)
let solve_scratch ?fire_hook budget conds = run_sat ?fire_hook (ctx ()) budget conds

let run_query_hook () = (ctx ()).c_hook ()

let is_sat ?use_interval ?use_cache ?budget conds =
  match check ?use_interval ?use_cache ?budget conds with
  | Sat _ -> true
  | Unsat | Unknown _ -> false

let get_model ?use_interval ?use_cache ?budget conds =
  match check ?use_interval ?use_cache ?budget conds with
  | Sat m -> Some m
  | Unsat | Unknown _ -> None

(* Validity of an implication: pc ⊨ c  iff  pc ∧ ¬c is unsat.  An Unknown
   on the negation means we cannot certify the entailment — answer [false]
   (the sound direction for every current caller). *)
let entails ?budget pc c =
  match check ?budget (Expr.not_ c :: pc) with
  | Unsat -> true
  | Sat _ | Unknown _ -> false

let pp_stats fmt () =
  capture_expr_stats ();
  let s = stats () in
  Format.fprintf fmt
    "queries=%d const=%d interval=%d cache=%d sat_calls=%d (sat=%d unsat=%d unknown=%d) evictions=%d time=%.3fs expr_nodes=%d"
    s.queries s.const_hits s.interval_hits s.cache_hits s.sat_calls
    s.sat_results s.unsat_results s.unknown_results s.cache_evictions
    s.solver_time s.expr_nodes;
  if s.proofs_checked > 0 then
    Format.fprintf fmt " proofs=%d/%d"
      (s.proofs_checked - s.proofs_failed)
      s.proofs_checked;
  if s.sessions_opened > 0 then
    Format.fprintf fmt " sessions=%d assumption_solves=%d fallbacks=%d learnt_retained=%d"
      s.sessions_opened s.assumption_solves s.scratch_fallbacks s.learnt_retained
