(* Waiver pragmas.

   A comment containing "xmplint: allow <rule-id>[ <justification>]"
   waives <rule-id> from the comment's first line through the line after
   it ends. The comments come from the compiler's own lexer
   ([Lexer.comments] after a parse), so whatever OCaml treats as a
   comment — nested, quoting "*)" inside a string, a doc comment — is
   exactly what is scanned here.

   The module is pure: no global state. *)

type t = {
  p_from : int;  (** first source line the pragma comment touches *)
  p_to : int;  (** last line it waives (comment end + 1, i.e. next line) *)
  p_rule : string;
  p_justified : bool;
      (** words follow the rule id — required by rules like
          [mutable-global] whose waivers must be argued *)
}

(* Pragma text: "xmplint: allow <rule-id>[ <justification>]". The
   justification runs to the next pragma in the same comment or to the
   comment's end; separators alone (dashes, colons) do not make one. *)
let scan_pragmas ~from_line ~to_line text acc =
  let key = "xmplint: allow " in
  let klen = String.length key in
  let tlen = String.length text in
  let matches = ref [] in
  let rec find i =
    if i + klen <= tlen then
      if String.sub text i klen = key then begin
        let j = ref (i + klen) in
        let start = !j in
        while
          !j < tlen
          && (match text.[!j] with
             | 'a' .. 'z' | '0' .. '9' | '-' -> true
             | _ -> false)
        do
          incr j
        done;
        if !j > start then
          matches := (i, String.sub text start (!j - start), !j) :: !matches;
        find !j
      end
      else find (i + 1)
  in
  find 0;
  let matches = List.rev !matches in
  let has_words s =
    String.exists
      (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
      s
  in
  let rec build acc = function
    | [] -> acc
    | (_, rule, stop) :: rest ->
      let just_end =
        match rest with (next_start, _, _) :: _ -> next_start | [] -> tlen
      in
      let p_justified = has_words (String.sub text stop (just_end - stop)) in
      build
        ({ p_from = from_line; p_to = to_line + 1; p_rule = rule; p_justified }
        :: acc)
        rest
  in
  build acc matches

(* The pragmas in a file's comments, as returned by [Lexer.comments]. *)
let of_comments comments =
  List.fold_left
    (fun acc (text, (loc : Location.t)) ->
      scan_pragmas ~from_line:loc.loc_start.pos_lnum
        ~to_line:loc.loc_end.pos_lnum text acc)
    [] comments

let waived pragmas ~line ~rule =
  List.exists
    (fun p -> p.p_rule = rule && line >= p.p_from && line <= p.p_to)
    pragmas

(* A waiver for [rule] at [line] that also carries a justification. *)
let waived_justified pragmas ~line ~rule =
  List.exists
    (fun p ->
      p.p_rule = rule && line >= p.p_from && line <= p.p_to && p.p_justified)
    pragmas
