(* Tests for the xmplint analysis engine (tool/lint as Xmplint_lib):
   the pragma grammar, the rules against their fixture files (including
   the lexical and parse-tree edge cases a token scanner gets wrong), a
   self-lint of the linter's own sources, and an end-to-end run of
   main.exe proving an injected finding exits nonzero with a JSON report
   naming the rule. *)

module Pragma = Xmplint_lib.Pragma
module Rules = Xmplint_lib.Rules
module Report = Xmplint_lib.Report

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Under `dune runtest` the cwd is _build/default/test (the declared deps
   place tool/lint alongside); under `dune exec` from the repo root it is
   the root itself. Resolve whichever layout we are in. *)
let tool_dir =
  if Sys.file_exists "../tool/lint" then "../tool/lint" else "tool/lint"

let fixture_dir = Filename.concat tool_dir "fixtures/lib"

let main_exe =
  let candidates =
    [ Filename.concat tool_dir "main.exe"; "_build/default/tool/lint/main.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* Lint one fixture as if it lived under lib/ so lib-scoped rules fire. *)
let lint_fixture name =
  let rep = Report.create () in
  Rules.lint_source rep
    ~path:("lib/" ^ name)
    (read_file (Filename.concat fixture_dir name));
  Report.sorted rep

let rule_decls rule findings =
  List.filter_map
    (fun (f : Report.finding) -> if f.rule = rule then f.decl else None)
    findings

let rule_count rule findings =
  List.length
    (List.filter (fun (f : Report.finding) -> f.Report.rule = rule) findings)

(* ------------------------------------------------------------------ *)
(* Pragmas, read from the comments the compiler's lexer collects *)

let test_pragmas () =
  let src =
    "(* xmplint: allow mutable-global — justified because reasons *)\n\
     let a = ref 0\n\
     (* xmplint: allow unit-suffix *)\n\
     let b = 1\n"
  in
  let _, pragmas = Rules.parse ~path:"lib/x.ml" src in
  Alcotest.(check int) "two pragmas" 2 (List.length pragmas);
  Alcotest.(check bool) "waived on next line" true
    (Pragma.waived pragmas ~line:2 ~rule:"mutable-global");
  Alcotest.(check bool) "justified" true
    (Pragma.waived_justified pragmas ~line:2 ~rule:"mutable-global");
  Alcotest.(check bool) "unit-suffix pragma has no justification" false
    (Pragma.waived_justified pragmas ~line:4 ~rule:"unit-suffix");
  Alcotest.(check bool) "still a plain waiver" true
    (Pragma.waived pragmas ~line:4 ~rule:"unit-suffix");
  Alcotest.(check bool) "rule mismatch does not waive" false
    (Pragma.waived pragmas ~line:2 ~rule:"unit-suffix")

(* ------------------------------------------------------------------ *)
(* Rules on fixtures *)

let test_mutable_global_fixture () =
  let findings = lint_fixture "mutable_global_cases.ml" in
  let decls = rule_decls "mutable-global" findings in
  Alcotest.(check (list string))
    "flagged declarations"
    [
      "hits"; "table"; "scratch"; "slots"; "shared_cell"; "annotated";
      "unjustified";
    ]
    decls;
  List.iter
    (fun negative ->
      Alcotest.(check bool)
        (negative ^ " not flagged")
        false
        (List.mem negative decls))
    [ "make_counter"; "fresh_table"; "thunk"; "limit"; "names";
      "safe_counter"; "interned" ]

let test_unit_suffix_fixture () =
  let findings = lint_fixture "unit_suffix_cases.ml" in
  let decls = rule_decls "unit-suffix" findings in
  Alcotest.(check (list string))
    "flagged declarations" [ "total_wait"; "over_quota"; "drift" ] decls;
  Alcotest.(check bool) "pragma waives" false (List.mem "waived_mix" decls);
  Alcotest.(check bool) "same unit ok" false (List.mem "sum_ns" decls);
  Alcotest.(check bool) "literal converts" false (List.mem "total_ns" decls)

let test_hashtbl_order_fixture () =
  let findings = lint_fixture "hashtbl_order_cases.ml" in
  let decls = rule_decls "hashtbl-order" findings in
  Alcotest.(check (list string)) "flagged declarations" [ "dump"; "keys" ] decls;
  List.iter
    (fun negative ->
      Alcotest.(check bool)
        (negative ^ " not flagged")
        false
        (List.mem negative decls))
    [ "sorted_keys"; "sorted_pairs"; "list_iter"; "restore" ]

let test_packet_release_fixtures () =
  let leak = lint_fixture "packet_release_leak.ml" in
  Alcotest.(check int) "leaking file flagged once" 1
    (rule_count "packet-release" leak);
  let balanced = lint_fixture "packet_release_balanced.ml" in
  Alcotest.(check int) "balanced file clean" 0
    (rule_count "packet-release" balanced);
  (* the rule is lib-scoped: tests build throwaway packets freely *)
  let rep = Report.create () in
  Rules.lint_source rep ~path:"test/packet_release_leak.ml"
    (read_file (Filename.concat fixture_dir "packet_release_leak.ml"));
  Alcotest.(check int) "test/ exempt" 0
    (rule_count "packet-release" (Report.sorted rep));
  (* the allowlisted hand-off path acquires without releasing by design:
     the same leaking source is clean when attributed to it *)
  let rep = Report.create () in
  Rules.lint_source rep ~path:"lib/transport/tcp.ml"
    (read_file (Filename.concat fixture_dir "packet_release_leak.ml"));
  Alcotest.(check int) "hand-off allowlist suppresses" 0
    (rule_count "packet-release" (Report.sorted rep))

let test_bad_example_still_fires () =
  let findings = lint_fixture "bad_example.ml" in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        ("rule " ^ rule ^ " fires")
        true
        (rule_count rule findings > 0))
    [
      "wall-clock"; "unix-in-lib"; "unseeded-random"; "obj-magic";
      "poly-compare-time"; "bare-compare"; "stdout-in-lib"; "direct-printf";
    ]

(* "line:rule" or "line:rule(decl)" per finding *)
let brief findings =
  List.map
    (fun (f : Report.finding) ->
      Printf.sprintf "%d:%s%s" f.line f.rule
        (match f.decl with Some d -> "(" ^ d ^ ")" | None -> ""))
    findings

(* Legal OCaml a hand-written lexer gets wrong: every Obj.magic after
   one of these edges is flagged, and none quoted inside a literal or a
   comment. *)
let test_lexical_edges () =
  Alcotest.(check (list string))
    "findings"
    [ "7:obj-magic"; "10:obj-magic"; "13:obj-magic" ]
    (brief (lint_fixture "lexical_edges.ml"))

(* Where the parse tree, not token adjacency, decides a finding. *)
let test_parse_tree_edges () =
  Alcotest.(check (list string))
    "findings"
    [
      "8:poly-compare-time"; "19:mutable-global(pair)";
      "23:unit-suffix(wait_ns)"; "25:unit-suffix(fields)";
      "32:mutable-global(cells)";
    ]
    (brief (lint_fixture "parse_tree_edges.ml"))

(* A file the compiler cannot parse is a finding, never a silent pass. *)
let test_parse_error () =
  let rep = Report.create () in
  Rules.lint_source rep ~path:"lib/broken.ml" "let ok = 1\nlet x = in\n";
  Alcotest.(check (list string))
    "findings" [ "2:parse-error" ] (brief (Report.sorted rep))

(* ------------------------------------------------------------------ *)
(* Self-lint: the linter's own sources must be clean *)

let test_self_lint () =
  let rep = Report.create () in
  List.iter
    (fun name ->
      let path = Filename.concat tool_dir name in
      Alcotest.(check bool) (name ^ " exists") true (Sys.file_exists path);
      Rules.lint_source rep ~path:("tool/lint/" ^ name) (read_file path))
    [ "pragma.ml"; "rules.ml"; "report.ml"; "main.ml" ];
  let findings = Report.sorted rep in
  Alcotest.(check (list string))
    "xmplint is clean on its own sources" []
    (List.map Report.finding_to_string findings)

(* The coupling seam and every multipath controller on it must stay
   lint-clean — the unit-suffix and iteration-order rules in particular
   guard the float/Time.t boundary these files live on. *)
let test_controller_sources_lint_clean () =
  let mptcp_dir =
    if Sys.file_exists "../lib/mptcp" then "../lib/mptcp" else "lib/mptcp"
  in
  let rep = Report.create () in
  List.iter
    (fun name ->
      let path = Filename.concat mptcp_dir name in
      Alcotest.(check bool) (name ^ " exists") true (Sys.file_exists path);
      Rules.lint_source rep ~path:("lib/mptcp/" ^ name) (read_file path))
    [ "coupling.ml"; "lia.ml"; "olia.ml"; "balia.ml"; "veno.ml"; "amp.ml" ];
  let findings = Report.sorted rep in
  Alcotest.(check (list string))
    "multipath controllers are lint-clean" []
    (List.map Report.finding_to_string findings)

(* End to end: an injected finding makes main.exe exit nonzero with a
   JSON report naming the rule and declaration. *)
let test_main_exe_injected () =
  let exe = main_exe in
  Alcotest.(check bool) "main.exe built" true (Sys.file_exists exe);
  let root = Filename.temp_file "xmplint_tree" "" in
  Sys.remove root;
  Unix.mkdir root 0o700;
  Unix.mkdir (Filename.concat root "lib") 0o700;
  let src = Filename.concat (Filename.concat root "lib") "leaky.ml" in
  let oc = open_out src in
  output_string oc "let leak = ref 0\n";
  close_out oc;
  let out = Filename.temp_file "xmplint_out" ".json" in
  let run args =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args
         (Filename.quote out))
  in
  let code =
    run (Printf.sprintf "--root %s --format json lib" (Filename.quote root))
  in
  Alcotest.(check int) "injected finding exits 1" 1 code;
  let json = read_file out in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names mutable-global" true
    (contains json "\"rule\": \"mutable-global\"");
  Alcotest.(check bool) "report names the declaration" true
    (contains json "\"decl\": \"leak\"");
  Alcotest.(check bool) "report is not clean" true
    (contains json "\"clean\": false");
  Sys.remove out;
  Sys.remove src;
  Unix.rmdir (Filename.concat root "lib");
  Unix.rmdir root

let suite =
  [
    Alcotest.test_case "lexer: pragma grammar with justification" `Quick
      test_pragmas;
    Alcotest.test_case "mutable-global: fixture cases" `Quick
      test_mutable_global_fixture;
    Alcotest.test_case "unit-suffix: fixture cases" `Quick
      test_unit_suffix_fixture;
    Alcotest.test_case "hashtbl-order: fixture cases" `Quick
      test_hashtbl_order_fixture;
    Alcotest.test_case "packet-release: fixture cases" `Quick
      test_packet_release_fixtures;
    Alcotest.test_case "legacy rules still fire on bad_example" `Quick
      test_bad_example_still_fires;
    Alcotest.test_case "lexical edges: every Obj.magic after one flagged"
      `Quick test_lexical_edges;
    Alcotest.test_case "parse-tree edges: operands, not adjacent tokens"
      `Quick test_parse_tree_edges;
    Alcotest.test_case "unparsable file: one parse-error finding" `Quick
      test_parse_error;
    Alcotest.test_case "self-lint: engine sources are clean" `Quick
      test_self_lint;
    Alcotest.test_case "multipath controller sources are lint-clean" `Quick
      test_controller_sources_lint_clean;
    Alcotest.test_case "main.exe: injected finding exits 1" `Quick
      test_main_exe_injected;
  ]
