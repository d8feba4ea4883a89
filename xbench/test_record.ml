(* The benchmark's own logic: name validity, the result line, failure
   counting, digest refusal and overwrite refusal. *)

let check_bool = Alcotest.(check bool)

let names () =
  List.iter
    (fun n -> check_bool n true (Record.valid_name n))
    [ "wall_s"; "engine.ns_per_event"; "dc.longflow"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> check_bool n false (Record.valid_name n))
    [ ""; "_wall"; ".x"; "wall s"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> check_bool u true (Record.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "Mbps" ];
  List.iter
    (fun u -> check_bool u false (Record.valid_unit u))
    [ ""; "m s"; String.make 17 's'; "s,"; "s\"" ]

let problems () =
  let m = Record.metric in
  Alcotest.(check int) "clean" 0
    (List.length (Record.problems [ m "wall_s" "s" 1.; m "setup_s" "s" 0.5 ]));
  Alcotest.(check int) "duplicate" 1
    (List.length (Record.problems [ m "wall_s" "s" 1.; m "wall_s" "s" 2. ]));
  Alcotest.(check int) "bad name, unit, value" 3
    (List.length
       (Record.problems
          [ m "bad name" "s" 1.; m "ok" "no unit" 1.; m "nan" "s" Float.nan ]))

let result_line () =
  let line =
    Record.result_line ~correct:true ~attempted:3 ~failed:0
      [ Record.metric "wall_s" "s" 1.25; Record.metric "events" "count" 42. ]
  in
  Alcotest.(check string) "line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"events\": {\"value\": \
     42, \"unit\": \"count\"}}}"
    line;
  (* every digit of a measured value survives *)
  let v = 0.1 +. 0.2 in
  check_bool "round trip" true
    (float_of_string (Record.json_number v) = v)

let failures () =
  let t =
    Record.tally
      [ Record.Passed; Record.Failed "raised"; Record.Passed; Record.Failed "digest" ]
  in
  Alcotest.(check int) "attempted" 4 t.Record.attempted;
  Alcotest.(check int) "failed" 2 t.Record.failed;
  Alcotest.(check (list string)) "reasons" [ "raised"; "digest" ] t.Record.reasons;
  let empty = Record.tally [] in
  Alcotest.(check int) "none attempted" 0 empty.Record.attempted;
  check_bool "exact repeat passes" true
    (Record.exact ~what:"events" [ "10"; "10"; "10" ] = Record.Passed);
  check_bool "drift fails" true
    (match Record.exact ~what:"events" [ "10"; "11" ] with
    | Record.Failed _ -> true
    | Record.Passed -> false)

let record ?(workload = "dc.longflow") ?(digest = "abc") ?(events = 1000) v =
  {
    Record.workload;
    config_digest = digest;
    events;
    values = [ Record.metric "wall_s" "s" v ];
  }

let refusal () =
  let base = record 2. in
  (match Record.of_string (Record.to_string base) with
  | Ok r ->
    check_bool "round trip" true (r = base)
  | Error e -> Alcotest.fail e);
  check_bool "garbage refused" true
    (Result.is_error (Record.of_string "not a record"));
  check_bool "same work compares" true
    (Record.comparable ~baseline:base ~current:(record 3.) = Ok ());
  check_bool "other digest refused" true
    (Result.is_error
       (Record.comparable ~baseline:base ~current:(record ~digest:"abd" 2.)));
  check_bool "other event count refused" true
    (Result.is_error
       (Record.comparable ~baseline:base ~current:(record ~events:999 2.)));
  check_bool "other workload refused" true
    (Result.is_error
       (Record.comparable ~baseline:base ~current:(record ~workload:"wan.bdp" 2.)));
  match Record.ratios ~baseline:base ~current:(record 3.) with
  | [ ("wall_s", "s", 2., 3., r) ] -> Alcotest.(check (float 1e-12)) "ratio" 1.5 r
  | _ -> Alcotest.fail "ratios"

let overwrite () =
  let path = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "xbench" ".record" in
  let absent = path ^ ".absent" in
  check_bool "new file allowed" true
    (Record.check_out_path ~tracked:(fun _ -> true) absent = Ok ());
  check_bool "tracked file refused" true
    (Result.is_error (Record.check_out_path ~tracked:(fun _ -> true) path));
  check_bool "untracked file allowed" true
    (Record.check_out_path ~tracked:(fun _ -> false) path = Ok ());
  Sys.remove path

let () =
  Alcotest.run "xbench"
    [
      ( "record",
        [
          Alcotest.test_case "names and units" `Quick names;
          Alcotest.test_case "metric set problems" `Quick problems;
          Alcotest.test_case "result line" `Quick result_line;
          Alcotest.test_case "failure counting" `Quick failures;
          Alcotest.test_case "digest refusal" `Quick refusal;
          Alcotest.test_case "overwrite refusal" `Quick overwrite;
        ] );
    ]
