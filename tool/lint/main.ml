(* xmplint driver.

   Walks the requested directories, lints every .ml/.mli through
   {!Xmplint_lib.Rules}, and renders findings as text or JSON.

   Exit status: 0 clean, 1 findings, 2 usage or I/O error. *)

open Xmplint_lib

let usage = "xmplint [--root DIR] [--format text|json] DIR...\n"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let rec walk dir acc =
  let entries = Array.to_list (Sys.readdir dir) in
  List.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name.[0] = '_' then acc
      else begin
        let path = if dir = "." then name else Filename.concat dir name in
        if Sys.is_directory path then walk path acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then path :: acc
        else acc
      end)
    acc
    (List.sort String.compare entries)

let () =
  let root = ref "." in
  let format = ref `Text in
  let dirs = ref [] in
  let rec parse = function
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--format" :: fmt :: rest ->
      (match fmt with
      | "text" -> format := `Text
      | "json" -> format := `Json
      | other ->
        Printf.eprintf "xmplint: unknown format %S (want text or json)\n" other;
        exit 2);
      parse rest
    | "--help" :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "xmplint: unknown option %s\n%s" arg usage;
      exit 2
    | dir :: rest ->
      dirs := dir :: !dirs;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = List.rev !dirs in
  if dirs = [] then begin
    prerr_string usage;
    exit 2
  end;
  Sys.chdir !root;
  let files =
    List.concat_map
      (fun d ->
        if Sys.file_exists d && Sys.is_directory d then List.rev (walk d [])
        else begin
          Printf.eprintf "xmplint: no such directory: %s\n" d;
          exit 2
        end)
      dirs
  in
  let rep = Report.create () in
  List.iter (fun path -> Rules.lint_source rep ~path (read_file path)) files;
  Rules.check_mli_presence rep files;
  let all = Report.sorted rep in
  (match !format with
  | `Json -> print_string (Report.to_json ~files:(List.length files) all)
  | `Text ->
    Report.print_text all;
    if all = [] then
      Printf.printf "xmplint: %d files clean\n" (List.length files)
    else Printf.printf "xmplint: %d finding(s)\n" (List.length all));
  exit (if all = [] then 0 else 1)
