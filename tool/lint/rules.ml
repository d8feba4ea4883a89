(* xmplint analysis passes.

   Each file is parsed by the compiler's own parser (compiler-libs'
   [Parse.implementation] / [Parse.interface]), so strings, char
   literals, quoted strings and nested comments are exactly what OCaml
   says they are. One [Ast_iterator] walk per file then visits every
   longident in expressions, patterns, types and module paths, every
   binary operator application and every toplevel binding; each rule is
   a case of that walk. Rules are scoped by the top-level directory a
   file lives in; findings are filtered against the waiver pragmas in
   the file's comments ({!Pragma}) afterwards (see [lint_source]).

   Path rules (anywhere a banned longident appears): wall-clock,
   unix-in-lib, unseeded-random, obj-magic, stdout-in-lib,
   direct-printf. Value rules: bare-compare (polymorphic compare used
   as a value), poly-compare-time (a polymorphic comparison with a
   timestamp-named operand), packet-release (a lib/ file acquires pooled
   packets but never releases one). File rule: missing-mli.

   Declaration-level rules:
   - [mutable-global]  module-toplevel mutable state in lib/ — a latent
     data race under OCaml 5 Domains sharding and a determinism hazard;
     rejected unless converted to Atomic.t / localized, or waived with a
     *justified* pragma.
   - [unit-suffix]     additive/comparison operators (and bindings or
     record fields) joining names whose unit suffixes disagree (_ns vs
     _us, _bytes vs _pkts, …) without an explicit conversion in the
     enclosing statement.
   - [hashtbl-order]   Hashtbl.iter / Hashtbl.fold in lib/ without the
     sorted-iteration idiom — iteration order is unspecified and
     hash-function dependent, so it must never reach output or digests. *)

open Parsetree

type category = Lib | Bin | Bench | Examples | Test | OtherDir

let category_of path =
  match String.index_opt path '/' with
  | None -> OtherDir
  | Some i -> (
    match String.sub path 0 i with
    | "lib" -> Lib
    | "bin" -> Bin
    | "xbench" -> Bench
    | "examples" -> Examples
    | "test" -> Test
    | _ -> OtherDir)

(* File-level waivers: (rule, exact path) pairs. *)
let file_allowlist =
  [
    (* the scenario runner forks workers and times whole simulations; it
       is process orchestration, not simulator code *)
    ("wall-clock", "lib/runner/runner.ml");
    ("unix-in-lib", "lib/runner/runner.ml");
    (* the sanctioned stdout sinks *)
    ("stdout-in-lib", "lib/stats/table.ml");
    ("stdout-in-lib", "lib/experiments/render.ml");
    (* the runner replays captured scenario output to stdout *)
    ("stdout-in-lib", "lib/runner/runner.ml");
    (* the sanctioned stderr sinks: the invariant checker's Warn mode and
       the runner's progress lines *)
    ("direct-printf", "lib/check/invariant.ml");
    ("direct-printf", "lib/runner/runner.ml");
    (* the transport acquires pooled packets and hands ownership to
       Node.send; the network layer (links, discs, endpoints) releases *)
    ("packet-release", "lib/transport/tcp.ml");
  ]

let file_allowed rule path = List.mem (rule, path) file_allowlist

let wall_clock_idents =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.gmtime";
    "Unix.localtime";
    "Sys.time";
  ]

let stdout_idents =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.print_flush";
    "Stdlib.print_string";
    "Stdlib.print_endline";
    "Stdlib.print_newline";
    "Stdlib.print_char";
    "Stdlib.print_int";
    "Stdlib.print_float";
  ]

let stderr_idents =
  [
    "Printf.eprintf";
    "Format.eprintf";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "prerr_char";
    "prerr_int";
    "prerr_float";
    "prerr_bytes";
    "Stdlib.prerr_string";
    "Stdlib.prerr_endline";
    "Stdlib.prerr_newline";
  ]

let bare_compare_idents = [ "compare"; "Stdlib.compare"; "Hashtbl.hash" ]

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let has_prefix s pre =
  let ls = String.length s and lp = String.length pre in
  ls >= lp && String.sub s 0 lp = pre

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* Names that denote simulated timestamps (or RTTs, which are Time.t in
   the transport layer). Comparisons on one of these must go through
   Time.compare / Int.compare. *)
let timeish name =
  let last = last_component name in
  List.mem last
    [ "time"; "now"; "ts"; "deadline"; "interval"; "rtt"; "srtt"; "min_rtt" ]
  || has_suffix last "_time"
  || has_suffix last "_deadline"
  || has_suffix last "_at"
  || has_suffix last "_ts"

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Pooled-packet balance: Packet.data/ack/of_image acquire a record
   from the domain-local pool, and exactly one owner must release it
   (or hand it to a sink that does). A lib/ file that acquires but
   never mentions Packet.release is either leaking pool records —
   silent, since the pool just grows — or transferring ownership, in
   which case it belongs on the allowlist with the hand-off spelled
   out. Exact-path matching keeps Packet.data_wire_bytes and friends
   out of scope. *)
let packet_acquire_idents =
  [
    "Packet.data"; "Packet.ack"; "Packet.of_image"; "Xmp_net.Packet.data";
    "Xmp_net.Packet.ack"; "Xmp_net.Packet.of_image";
  ]

let packet_release_idents = [ "Packet.release"; "Xmp_net.Packet.release" ]

(* Constructors whose result is shared mutable state when bound at
   module toplevel. Atomic.make is deliberately absent: atomics are the
   sanctioned domain-safe representation. *)
let mutable_constructors =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.create_float";
    "Array.init";
    "Queue.create";
    "Stack.create";
    "Weak.create";
  ]

let unit_of_ident name =
  let last = String.lowercase_ascii (last_component name) in
  if has_suffix last "_ns" then Some "ns"
  else if has_suffix last "_us" then Some "us"
  else if has_suffix last "_ms" then Some "ms"
  else if has_suffix last "_sec" || has_suffix last "_s" then Some "s"
  else if has_suffix last "_bytes" then Some "bytes"
  else if has_suffix last "_bits" then Some "bits"
  else if has_suffix last "_pkts" then Some "pkts"
  else if has_suffix last "_bps" || has_suffix last "rate" then Some "rate"
  else None

let unit_ops = [ "+"; "-"; "+."; "-."; "="; "<>"; "<"; ">"; "<="; ">=" ]

let conversion_literals =
  [
    "1000"; "1_000"; "1000000"; "1_000_000"; "1000000000"; "1_000_000_000";
    "1e3"; "1e6"; "1e9"; "1e-3"; "1e-6"; "1e-9";
  ]

let is_conversion_name name =
  let last = last_component name in
  has_prefix name "Time."
  || has_prefix name "Units."
  || (let rec contains i =
        i + 6 <= String.length name
        && (String.sub name i 6 = ".Time." || contains (i + 1))
      in
      contains 0)
  || has_prefix last "to_"
  || has_prefix last "of_"

let is_conversion_literal lit =
  List.mem lit conversion_literals
  || String.contains lit 'e'
     && String.length lit > 1
     && (match lit.[0] with '0' .. '9' -> true | _ -> false)

let is_hashtbl_iteration name =
  let last = last_component name in
  (last = "iter" || last = "fold")
  &&
  (* "Hashtbl.iter", "Hashtbl.Make(K).iter" style paths; module-local
     hashtable instances cannot be recognized without type information *)
  match String.rindex_opt name '.' with
  | None -> false
  | Some i -> (
    let path = String.sub name 0 i in
    has_suffix path "Hashtbl" || has_prefix path "Hashtbl.")

(* ------------------------------------------------------------------ *)
(* AST helpers                                                          *)

let rec name_of : Longident.t -> string = function
  | Lident s -> s
  | Ldot (p, s) -> name_of p ^ "." ^ s
  | Lapply (p, _) -> name_of p

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* The name an operand denotes when it is a bare path or a field access,
   and whether it is dotted ([t.time], [M.now]) rather than a bare
   variable. *)
let operand e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> Some (n, false)
  | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) ->
    Some (name_of txt, true)
  | _ -> None

let is_option e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident ("None" | "Some"); _ }, _) -> true
  | _ -> false

(* Expressions whose sub-expressions are separate statements: the
   unit-suffix rule looks for a conversion only up to these. *)
let is_statement e =
  match e.pexp_desc with
  | Pexp_let _ | Pexp_sequence _ | Pexp_ifthenelse _ | Pexp_match _
  | Pexp_try _ | Pexp_fun _ | Pexp_function _ | Pexp_while _ | Pexp_for _
  | Pexp_record _ | Pexp_array _ | Pexp_letmodule _ | Pexp_letop _
  | Pexp_construct ({ txt = Lident "::"; _ }, _) ->
    true
  | _ -> false

(* Does [e], short of any nested statement, name a conversion (a
   Time. or Units. path, a to_ or of_ function) or use a power-of-10
   literal? *)
let has_conversion e =
  let found = ref false in
  let name { Location.txt; _ } =
    if is_conversion_name (name_of txt) then found := true
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it sub ->
          if sub == e || not (is_statement sub) then begin
            (match sub.pexp_desc with
            | Pexp_ident lid | Pexp_construct (lid, _) | Pexp_field (_, lid)
              ->
              name lid
            | Pexp_constant (Pconst_integer (lit, _) | Pconst_float (lit, _))
              ->
              if is_conversion_literal lit then found := true
            | _ -> ());
            Ast_iterator.default_iterator.expr it sub
          end);
      typ =
        (fun it t ->
          (match t.ptyp_desc with Ptyp_constr (lid, _) -> name lid | _ -> ());
          Ast_iterator.default_iterator.typ it t);
    }
  in
  it.expr it e;
  !found

(* The first mutable allocation a toplevel right-hand side performs at
   module initialisation, as (line, what): a mutable constructor (even
   one only named in a type annotation) or a record literal initialising
   a field declared [mutable] in this file. Lambda bodies allocate per
   call and are skipped. *)
let first_mutable ~mutable_fields e =
  let hits = ref [] in
  let hit (loc : Location.t) what =
    hits := (loc.loc_start.pos_cnum, line_of loc, what) :: !hits
  in
  let constructor { Location.txt; loc } =
    let n = name_of txt in
    if List.mem n mutable_constructors then hit loc n
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ ->
            (match e.pexp_desc with
            | Pexp_ident lid -> constructor lid
            | Pexp_record (fields, _) ->
              List.iter
                (fun ({ Location.txt; loc }, _) ->
                  let f = last_component (name_of txt) in
                  if List.mem f mutable_fields then
                    hit loc ("record with mutable field " ^ f))
                fields
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) -> constructor lid
          | _ -> ());
          Ast_iterator.default_iterator.typ it t);
    }
  in
  it.expr it e;
  match List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !hits with
  | (_, line, what) :: _ -> Some (line, what)
  | [] -> None

(* Field names declared [mutable] by the file's toplevel type items; a
   toplevel record literal initialising one of them is shared mutable
   state. *)
let mutable_fields_of str =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      label_declaration =
        (fun it ld ->
          if ld.pld_mutable = Asttypes.Mutable then
            acc := ld.pld_name.txt :: !acc;
          Ast_iterator.default_iterator.label_declaration it ld);
    }
  in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_type (_, decls) -> List.iter (it.type_declaration it) decls
      | _ -> ())
    str;
  !acc

(* ------------------------------------------------------------------ *)
(* The walk                                                             *)

type ctx = {
  rep : Report.t;
  path : string;
  cat : category;
  ml : bool;
  mutable decl : string option;  (** enclosing toplevel declaration *)
  mutable sorted : bool;  (** the declaration names a sort* function *)
  mutable iterations : (int * string) list;
      (** its Hashtbl.iter / Hashtbl.fold uses, as (line, path) *)
  mutable statement : expression option;  (** innermost enclosing statement *)
  mutable fresh : bool;  (** the next expression starts a statement *)
  mutable acquire : (int * int * string) option;
      (** first pooled-packet acquire, as (offset, line, path) *)
  mutable releases : bool;
}

let add c ?decl ~line ~rule msg =
  Report.add c.rep ?decl ~path:c.path ~line ~rule msg

let lib_only c rule = c.cat = Lib && not (file_allowed rule c.path)

(* Every longident: expression, constructor, field, type, module path. *)
let check_name c ~line name =
  if
    List.mem name wall_clock_idents
    && c.cat <> Bench
    && not (file_allowed "wall-clock" c.path)
  then
    add c ~line ~rule:"wall-clock"
      (Printf.sprintf
         "%s reads the wall clock; simulated time must come from Sim.now" name);
  if name = "Obj.magic" then
    add c ~line ~rule:"obj-magic" "Obj.magic defeats the type system";
  if name = "Random.self_init" || name = "Random.State.make_self_init" then
    add c ~line ~rule:"unseeded-random"
      (name ^ " is nondeterministic; seed explicitly")
  else if
    has_prefix name "Random."
    && not (name = "Random.State" || has_prefix name "Random.State.")
  then
    add c ~line ~rule:"unseeded-random"
      (name
     ^ " uses the global RNG; use Random.State.* with an explicit seed \
        (Sim.rng)");
  if
    (c.cat = Lib || c.cat = Bin || c.cat = Examples)
    && has_prefix name "Unix."
    && not (file_allowed "unix-in-lib" c.path)
    && not (file_allowed "wall-clock" c.path)
  then
    add c ~line ~rule:"unix-in-lib"
      (name ^ ": the Unix module is off-limits in simulator code");
  if List.mem name stdout_idents && lib_only c "stdout-in-lib" then
    add c ~line ~rule:"stdout-in-lib"
      (name
     ^ " prints to stdout from lib/; route through Render/Table");
  if List.mem name stderr_idents && lib_only c "direct-printf" then
    add c ~line ~rule:"direct-printf"
      (name
     ^ " is an ad-hoc stderr diagnostic in lib/; record telemetry instead");
  if has_prefix (last_component name) "sort" then c.sorted <- true

(* A longident used as a value. *)
let check_value c { Location.txt; loc } =
  let name = name_of txt and line = line_of loc in
  if c.cat = Lib && List.mem name bare_compare_idents then
    add c ~line ~rule:"bare-compare"
      (name
     ^ " is polymorphic; use Time.compare / Int.compare / Float.compare");
  (* the walk is not strictly in source order: keep the earliest *)
  let offset = loc.loc_start.pos_cnum in
  (if List.mem name packet_acquire_idents then
     match c.acquire with
     | Some (first, _, _) when first <= offset -> ()
     | Some _ | None -> c.acquire <- Some (offset, line, name));
  if List.mem name packet_release_idents then c.releases <- true;
  if c.ml && c.cat = Lib && is_hashtbl_iteration name then
    c.iterations <- (line, name) :: c.iterations

(* [unit-suffix] on two names joined by [op] at [line]; [conv] is the
   expression searched for an explicit conversion. *)
let check_units c ~op ~line a b ~conv =
  match (Option.bind a unit_of_ident, Option.bind b unit_of_ident) with
  | Some u1, Some u2
    when u1 <> u2 && c.ml && c.cat = Lib && not (has_conversion conv) ->
    add c ?decl:c.decl ~line ~rule:"unit-suffix"
      (Printf.sprintf
         "'%s' joins a '%s'-unit value and a '%s'-unit value with no explicit \
          conversion (Time.to_ns / Units.* / a power-of-10 literal) in the \
          expression"
         op u1 u2)
  | _ -> ()

let operand_name e = Option.map fst (operand e)

(* A binary operator application [a op b]. *)
let check_operator c ~op ~line a b =
  let timeish_operand e =
    Option.fold ~none:false ~some:timeish (operand_name e)
  in
  let dotted_timeish e =
    match operand e with Some (n, true) -> timeish n | _ -> false
  in
  let flagged =
    match op with
    | "=" | "<>" ->
      (* equality on a timestamp (or Time.t option) field access; bare
         variables are too often plain counters to flag *)
      (dotted_timeish a && (is_option b || timeish_operand b))
      || (dotted_timeish b && is_option a)
    | _ -> timeish_operand a || timeish_operand b
  in
  if c.cat = Lib && List.mem op comparison_ops && flagged then
    add c ~line ~rule:"poly-compare-time"
      (Printf.sprintf
         "polymorphic %s next to a timestamp; use Time.compare (or \
          Option.is_none/is_some)"
         op);
  if List.mem op unit_ops then
    Option.iter
      (fun conv ->
        check_units c ~op ~line (operand_name a) (operand_name b) ~conv)
      c.statement

let walker c =
  let open Ast_iterator in
  let name { Location.txt; loc } =
    check_name c ~line:(line_of loc) (name_of txt)
  in
  let expr it e =
    let statement = c.statement and fresh = c.fresh in
    if fresh then c.statement <- Some e;
    (match e.pexp_desc with
    | Pexp_ident lid ->
      name lid;
      check_value c lid
    | Pexp_construct (lid, _) | Pexp_field (_, lid) -> name lid
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident op; loc }; _ },
          [ (Nolabel, a); (Nolabel, b) ] ) ->
      check_operator c ~op ~line:(line_of loc) a b
    | Pexp_record (fields, _) ->
      List.iter
        (fun ({ Location.txt; loc }, v) ->
          check_units c ~op:"=" ~line:(line_of loc) (Some (name_of txt))
            (operand_name v) ~conv:v)
        fields
    | _ -> ());
    c.fresh <- is_statement e;
    default_iterator.expr it e;
    c.statement <- statement;
    c.fresh <- fresh
  in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) -> name lid
    | Ppat_var { txt; _ } -> if has_prefix txt "sort" then c.sorted <- true
    | _ -> ());
    default_iterator.pat it p
  in
  let typ it t =
    (match t.ptyp_desc with Ptyp_constr (lid, _) -> name lid | _ -> ());
    default_iterator.typ it t
  in
  let module_expr it m =
    (match m.pmod_desc with Pmod_ident lid -> name lid | _ -> ());
    default_iterator.module_expr it m
  in
  let module_type it m =
    (match m.pmty_desc with Pmty_ident lid -> name lid | _ -> ());
    default_iterator.module_type it m
  in
  let value_binding it vb =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; loc } ->
      check_units c ~op:"=" ~line:(line_of loc) (Some txt)
        (operand_name vb.pvb_expr) ~conv:vb.pvb_expr
    | _ -> ());
    default_iterator.value_binding it vb
  in
  {
    default_iterator with
    expr;
    pat;
    typ;
    module_expr;
    module_type;
    value_binding;
  }

let binding_name vb =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None

let check_mutable_global c ~mutable_fields vb =
  match binding_name vb with
  | Some name when c.cat = Lib -> (
    match first_mutable ~mutable_fields vb.pvb_expr with
    | Some (line, what) ->
      add c ~line ~rule:"mutable-global" ~decl:name
        (Printf.sprintf
           "toplevel binding '%s' holds shared mutable state (%s): a data \
            race once the simulator shards across Domains. Convert to \
            Atomic.t, localize it, or annotate (* xmplint: allow \
            mutable-global — <justification> *)"
           name what)
    | None -> ())
  | _ -> ()

(* Walk one toplevel declaration, then report its unsorted Hashtbl
   iterations. *)
let declaration c decl walk =
  c.decl <- decl;
  c.sorted <- false;
  c.iterations <- [];
  c.fresh <- true;
  walk ();
  if not c.sorted then
    List.iter
      (fun (line, name) ->
        add c ?decl ~line ~rule:"hashtbl-order"
          (Printf.sprintf
             "%s iterates in unspecified hash order; fold to a list and \
              List.sort before anything order-sensitive (sorted-iteration \
              idiom), or waive with a pragma if the order provably cannot \
              reach output or digests"
             name))
      (List.rev c.iterations)

let walk_structure c str =
  let it = walker c in
  let mutable_fields = mutable_fields_of str in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            declaration c (binding_name vb) (fun () ->
                check_mutable_global c ~mutable_fields vb;
                it.value_binding it vb))
          bindings
      | Pstr_module { pmb_name = { txt; _ }; _ } ->
        declaration c txt (fun () -> it.structure_item it si)
      | _ -> declaration c None (fun () -> it.structure_item it si))
    str

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                      *)

type ast = Impl of structure | Intf of signature

(* Parse with the compiler's own parser; the pragmas come from the
   comments its lexer collected on the way. *)
let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  let ast =
    try
      Ok
        (if Filename.check_suffix path ".mli" then
           Intf (Parse.interface lexbuf)
         else Impl (Parse.implementation lexbuf))
    with exn -> Error exn
  in
  (ast, Pragma.of_comments (Lexer.comments ()))

(* Rules whose pragma waivers must carry a justification. *)
let justified_waiver_rules = [ "mutable-global" ]

let lint_source rep ~path src =
  let local = Report.create () in
  let c =
    {
      rep = local;
      path;
      cat = category_of path;
      ml = Filename.check_suffix path ".ml";
      decl = None;
      sorted = false;
      iterations = [];
      statement = None;
      fresh = true;
      acquire = None;
      releases = false;
    }
  in
  let ast, pragmas = parse ~path src in
  (match ast with
  | Ok (Impl str) -> walk_structure c str
  | Ok (Intf sg) ->
    let it = walker c in
    it.signature it sg
  | Error exn ->
    let line =
      match Location.error_of_exn exn with
      | Some (`Ok { Location.main = { loc; _ }; _ }) -> line_of loc
      | Some `Already_displayed | None -> 1
    in
    add c ~line ~rule:"parse-error"
      "not valid OCaml; nothing else was checked");
  (match c.acquire with
  | Some (_, line, name)
    when (not c.releases) && lib_only c "packet-release" ->
    add c ~line ~rule:"packet-release"
      (name
     ^ " acquires a pooled packet but this file never calls Packet.release; \
        release it, hand it to a releasing sink, or allowlist the file as an \
        ownership hand-off point")
  | Some _ | None -> ());
  let keep (f : Report.finding) =
    let waived =
      if List.mem f.rule justified_waiver_rules then Pragma.waived_justified
      else Pragma.waived
    in
    not (waived pragmas ~line:f.line ~rule:f.rule)
  in
  rep.Report.findings <- List.filter keep local.findings @ rep.Report.findings

let check_mli_presence rep files =
  List.iter
    (fun path ->
      if category_of path = Lib && Filename.check_suffix path ".ml" then begin
        let mli = path ^ "i" in
        if not (List.mem mli files) then
          Report.add rep ~path ~line:1 ~rule:"missing-mli"
            "lib/ module without an interface file"
      end)
    files
