(* Explicit fault schedules (see the .mli for the format).  This module
   is deliberately independent of {!Chaos}: a site names its injection
   point by string, so schedules can be parsed, diffed and minimized
   without resolving them — resolution (and rejection of unknown point
   names) happens when {!Chaos.scripted} turns a schedule into a plan. *)

let magic = "soft-schedule 1"

type site = { s_point : string; s_key : int option; s_index : int }

let compare_site a b =
  match compare a.s_point b.s_point with
  | 0 -> (
    match compare a.s_key b.s_key with
    | 0 -> compare a.s_index b.s_index
    | c -> c)
  | c -> c

let pp_site fmt s =
  Format.fprintf fmt "%s/%s/%d" s.s_point
    (match s.s_key with None -> "-" | Some k -> string_of_int k)
    s.s_index

type t = { t_meta : (string * string) list; t_sites : site list }

let bad_meta_key k =
  k = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') k

let make ?(meta = []) sites =
  List.iter
    (fun (k, _) ->
      if bad_meta_key k then
        invalid_arg (Printf.sprintf "Schedule.make: malformed meta key %S" k))
    meta;
  List.iter
    (fun s ->
      if s.s_point = "" || String.contains s.s_point ' ' then
        invalid_arg (Printf.sprintf "Schedule.make: malformed point name %S" s.s_point);
      if s.s_index < 0 then invalid_arg "Schedule.make: negative draw index")
    sites;
  { t_meta = meta; t_sites = List.sort_uniq compare_site sites }

let sites t = t.t_sites
let cardinal t = List.length t.t_sites
let mem t s = List.exists (fun s' -> compare_site s s' = 0) t.t_sites
let meta t k = List.assoc_opt k t.t_meta
let meta_all t = t.t_meta
let with_meta meta t = make ~meta t.t_sites

let site_line s =
  Printf.sprintf "s %s %s %d" s.s_point
    (match s.s_key with None -> "-" | Some k -> string_of_int k)
    s.s_index

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "meta %s %s\n" k (String.escaped v)))
    t.t_meta;
  List.iter
    (fun s ->
      Buffer.add_string buf (site_line s);
      Buffer.add_char buf '\n')
    t.t_sites;
  let body = Buffer.contents buf in
  body ^ "sum " ^ Digest.to_hex (Digest.string body) ^ "\n"

let parse_site line =
  match String.split_on_char ' ' line with
  | [ "s"; point; key; index ] -> (
    let key =
      match key with
      | "-" -> Ok None
      | k -> (
        match int_of_string_opt k with
        | Some k -> Ok (Some k)
        | None -> Error ())
    in
    match (key, int_of_string_opt index) with
    | Ok key, Some index when index >= 0 && point <> "" ->
      Some { s_point = point; s_key = key; s_index = index }
    | _ -> None)
  | _ -> None

let parse_meta line =
  (* "meta <key> <escaped value>": the value is everything after the
     second space, unescaped — String.escaped leaves spaces intact, so
     values round-trip with embedded spaces. *)
  if String.length line < 5 || String.sub line 0 5 <> "meta " then None
  else
    match String.index_from_opt line 5 ' ' with
    | None -> None
    | Some sp -> (
      let key = String.sub line 5 (sp - 5) in
      let esc = String.sub line (sp + 1) (String.length line - sp - 1) in
      if bad_meta_key key then None
      else
        match Scanf.unescaped esc with
        | v -> Some (key, v)
        | exception (Scanf.Scan_failure _ | Failure _) -> None)

let of_string text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' text with
  | [] | [ _ ] -> err "schedule: empty input"
  | first :: _ when first <> magic -> err "schedule: bad magic %S" first
  | _ :: rest -> (
    (* the file ends "sum <hex>\n": after the final newline split leaves
       a trailing "" element *)
    let rec split_body acc = function
      | [ sum; "" ] -> Ok (List.rev acc, sum)
      | [ sum ] -> Ok (List.rev acc, sum)
      | line :: tl -> split_body (line :: acc) tl
      | [] -> err "schedule: missing sum trailer"
    in
    match split_body [] rest with
    | Error e -> Error e
    | Ok (body_lines, sum_line) ->
      if String.length sum_line < 4 || String.sub sum_line 0 4 <> "sum " then
        err "schedule: missing sum trailer (got %S)" sum_line
      else begin
        let body =
          String.concat "" (List.map (fun l -> l ^ "\n") (magic :: body_lines))
        in
        let want = String.sub sum_line 4 (String.length sum_line - 4) in
        if Digest.to_hex (Digest.string body) <> String.lowercase_ascii want then
          err "schedule: checksum mismatch"
        else
          let rec parse meta sites = function
            | [] -> Ok (make ~meta:(List.rev meta) sites)
            | line :: tl -> (
              if line = "" then parse meta sites tl
              else
                match parse_site line with
                | Some s -> parse meta (s :: sites) tl
                | None -> (
                  match parse_meta line with
                  | Some kv -> parse (kv :: meta) sites tl
                  | None -> err "schedule: malformed line %S" line))
          in
          parse [] [] body_lines
      end)

let save path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (to_string t));
  Sys.rename tmp path

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "schedule: no such file %s" path)
  else of_string (In_channel.with_open_bin path In_channel.input_all)

let pp fmt t =
  Format.fprintf fmt "schedule(%d site%s%s)" (cardinal t)
    (if cardinal t = 1 then "" else "s")
    (match meta t "workload" with None -> "" | Some w -> " workload=" ^ w)
