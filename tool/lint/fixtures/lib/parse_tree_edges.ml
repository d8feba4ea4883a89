(* Cases where the parse tree, not token adjacency, decides a finding,
   and the '=' of bindings and record fields, which unit-suffix checks
   like an operator. Never compiled; test/test_lint.ml asserts exactly
   which fire. *)

(* positive: a Time.compare call earlier on the line does not excuse a
   second, polymorphic comparison of a timestamp *)
let late a b x now = Time.compare a b < 0 && x.deadline < now

(* negative: the timestamp is an argument; the compared operand is the
   application's result *)
let later f x y = f x.time > y

(* negative: a parameter is not the left operand of the binding's '=' *)
let scaled budget_ns = delay_us

(* positive: a lambda earlier in the right-hand side does not hide a
   toplevel ref after it *)
let pair = (List.map (fun y -> y) [], ref 0)

(* positive: a value binding's '=' joins its name and a bare right-hand
   side, and a record field's joins the label and its value *)
let wait_ns = delay_us

let fields = { wait_ns = delay_us }

(* negative: defining a function named like a banned one is not a use *)
let print_endline s = ignore s

(* positive, named 'cells': each binding of a 'let ... and ...' is its
   own declaration, even on one line *)
let count = 0 and cells = ref []
