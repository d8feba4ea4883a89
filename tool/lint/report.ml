(* Finding collection and rendering (text and machine-readable JSON).

   A [t] accumulates findings file by file; rendering sorts them by
   (path, line, rule) so output order never depends on directory walk or
   rule evaluation order. JSON output is the integration surface for CI:
   a stable object with a top-level [clean] verdict, per-rule counts and
   the finding list. *)

type finding = {
  path : string;
  line : int;
  rule : string;
  decl : string option;  (** enclosing toplevel declaration, when known *)
  msg : string;
}

type t = { mutable findings : finding list }

let create () = { findings = [] }

let add t ?decl ~path ~line ~rule msg =
  t.findings <- { path; line; rule; decl; msg } :: t.findings

let sorted t =
  List.sort
    (fun a b ->
      match String.compare a.path b.path with
      | 0 -> (
        match Int.compare a.line b.line with
        | 0 -> String.compare a.rule b.rule
        | c -> c)
      | c -> c)
    t.findings

let by_rule findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.rule)))
    findings;
  Hashtbl.fold (fun rule count acc -> (rule, count) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)

let finding_to_string f =
  let decl = match f.decl with Some d -> " (" ^ d ^ ")" | None -> "" in
  Printf.sprintf "%s:%d: [%s]%s %s" f.path f.line f.rule decl f.msg

let print_text findings = List.iter (fun f -> print_endline (finding_to_string f)) findings

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled; the tool is stdlib-only)               *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json f =
  let decl =
    match f.decl with
    | Some d -> Printf.sprintf "\"decl\": \"%s\", " (json_escape d)
    | None -> ""
  in
  Printf.sprintf
    "{\"path\": \"%s\", \"line\": %d, \"rule\": \"%s\", %s\"msg\": \"%s\"}"
    (json_escape f.path) f.line (json_escape f.rule) decl (json_escape f.msg)

let to_json ~files findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"tool\": \"xmplint\",\n";
  Buffer.add_string buf "  \"version\": 3,\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" files);
  Buffer.add_string buf
    (Printf.sprintf "  \"clean\": %b,\n" (findings = []));
  Buffer.add_string buf "  \"counts\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (rule, count) ->
            Printf.sprintf "\"%s\": %d" (json_escape rule) count)
          (by_rule findings)));
  Buffer.add_string buf "},\n";
  Buffer.add_string buf "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (finding_to_json f))
    findings;
  if findings <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf
