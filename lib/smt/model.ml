(* A satisfying assignment: Expr variable id -> concrete value.  Variables
   absent from the table are unconstrained and default to zero, which is
   also what STP reports for don't-care inputs. *)

type t = (int, int64) Hashtbl.t

let empty () : t = Hashtbl.create 8

let of_bindings bindings : t =
  let t = Hashtbl.create (List.length bindings) in
  List.iter (fun ((v : Expr.var), value) -> Hashtbl.replace t (Expr.var_id v) value) bindings;
  t

let set (t : t) v value = Hashtbl.replace t (Expr.var_id v) value

let copy : t -> t = Hashtbl.copy

let get (t : t) v =
  match Hashtbl.find_opt t (Expr.var_id v) with
  | Some value -> Int64.logand value (Expr.mask (Expr.var_width v))
  | None -> 0L

let mem (t : t) v = Hashtbl.mem t (Expr.var_id v)

let bindings (t : t) =
  Hashtbl.fold
    (fun vid value acc ->
      match Expr.var_by_id vid with Some v -> (v, value) :: acc | None -> acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> compare (Expr.var_id a) (Expr.var_id b))

let eval_bv (t : t) e = Expr.eval_bv_memo (fun v -> get t v) e
let eval_bool (t : t) b = Expr.eval_bool_memo (fun v -> get t v) b

(* Does this model satisfy all the given constraints?  Used by tests and by
   the crosscheck phase to double-check witnesses. *)
let satisfies (t : t) conds = List.for_all (eval_bool t) conds

let pp fmt (t : t) =
  let bs = bindings t in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (v, value) ->
      Format.fprintf fmt "%s = 0x%Lx (%Lu)@ " (Expr.var_name v) value value)
    bs;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
