(* Lexical edge cases: legal OCaml that a hand-written lexer gets wrong
   or that is easy to get wrong. Never compiled; test/test_lint.ml
   expects each Obj.magic that follows an edge to be flagged, and none
   of the ones quoted inside literals or comments. *)

(* a comment quoting "*)" is still one comment *)
let after_comment x = Obj.magic x

let quote_char = '"'
let after_char x = Obj.magic x

let quoted = {id|Obj.magic {|nested|} Obj.magic|id}
let after_quoted x = Obj.magic x

let plain = "Obj.magic in a string"
(* Obj.magic in a comment *)
