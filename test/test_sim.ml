module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

let test_initial () =
  let sim = Sim.create () in
  Alcotest.(check int) "starts at zero" 0 (Sim.now sim);
  Alcotest.(check int) "no events executed" 0 (Sim.events_executed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

let test_run_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 30 (fun () -> log := 3 :: !log);
  Sim.at sim 10 (fun () -> log := 1 :: !log);
  Sim.at sim 20 (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "events in order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.now sim)

let test_after () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  Sim.at sim 100 (fun () ->
      Sim.after sim 50 (fun () -> fired_at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "after is relative" 150 !fired_at

let test_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  List.iter (fun t -> Sim.at sim t (fun () -> incr count)) [ 10; 20; 30; 40 ];
  Sim.run ~until:25 sim;
  Alcotest.(check int) "only events <= until" 2 !count;
  Alcotest.(check int) "clock parked at until" 25 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "resumes" 4 !count

let test_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim 25 (fun () -> fired := true);
  Sim.run ~until:25 sim;
  Alcotest.(check bool) "event at the cutoff runs" true !fired

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Sim: scheduling at 50ns before now 100ns")
        (fun () -> Sim.at sim 50 ignore));
  Sim.run sim

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.at sim 5 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "insertion order at equal time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.timer_at sim 10 (fun () -> fired := true) in
  Alcotest.(check bool) "active before" true (Sim.timer_active timer);
  Sim.cancel timer;
  Alcotest.(check bool) "inactive after cancel" false (Sim.timer_active timer);
  Sim.run sim;
  Alcotest.(check bool) "cancelled timer never fires" false !fired;
  Alcotest.(check int) "cancelled event not counted" 0
    (Sim.events_executed sim)

let test_timer_fires () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.timer_after sim 10 (fun () -> fired := true) in
  Sim.run sim;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) "inactive after firing" false (Sim.timer_active timer);
  (* double-cancel is a no-op *)
  Sim.cancel timer

let test_rng_determinism () =
  let draw seed =
    let sim = Sim.create ~config:{ Sim.default_config with seed } () in
    List.init 5 (fun _ -> Random.State.int (Sim.rng sim) 1000)
  in
  Alcotest.(check (list int)) "same seed same draws" (draw 9) (draw 9);
  Alcotest.(check bool) "different seeds differ" true (draw 9 <> draw 10)

let test_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.at sim 1 (fun () -> incr count);
  Sim.at sim 2 (fun () -> incr count);
  Alcotest.(check bool) "step true" true (Sim.step sim);
  Alcotest.(check int) "one event" 1 !count;
  Alcotest.(check bool) "step true" true (Sim.step sim);
  Alcotest.(check bool) "step false when empty" false (Sim.step sim)

let test_cancel_heavy_pending_bounded () =
  (* per-ACK-style timer churn: without lazy deletion the heap would hold
     every cancelled entry until its (far-future) fire time *)
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 1_000 do
    let tm = Sim.timer_at sim (1_000_000 + i) (fun () -> incr fired) in
    if i mod 100 <> 0 then Sim.cancel tm
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pending %d stays O(live=10)" (Sim.pending sim))
    true
    (Sim.pending sim < 100);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check int) "only live timers fired" 10 !fired;
  Alcotest.(check int) "executed counts live only" 10 st.Sim.executed;
  Alcotest.(check bool) "compactions happened" true (st.Sim.rebuilds > 0);
  Alcotest.(check bool) "heap peak bounded" true (st.Sim.heap_peak < 120)

let test_cancelled_entry_skipped_at_pop () =
  (* few enough cancellations that no compaction triggers: the dead entry
     must be skipped at pop, advance the clock, and be counted as
     cancelled_skipped rather than executed *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.timer_at sim 10 (fun () -> log := 1 :: !log));
  let t2 = Sim.timer_at sim 20 (fun () -> log := 2 :: !log) in
  Sim.at sim 30 (fun () -> log := 3 :: !log);
  Sim.at sim 40 (fun () -> log := 4 :: !log);
  Sim.cancel t2;
  Sim.run sim;
  Alcotest.(check (list int)) "cancelled handler skipped" [ 1; 3; 4 ]
    (List.rev !log);
  let st = Sim.stats sim in
  Alcotest.(check int) "executed" 3 st.Sim.executed;
  Alcotest.(check int) "cancelled_skipped" 1 st.Sim.cancelled_skipped;
  Alcotest.(check int) "heap peak saw all four" 4 st.Sim.heap_peak

let test_cascade () =
  (* events scheduling events: a chain of 1000 *)
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then Sim.after sim 1 chain
  in
  Sim.at sim 0 chain;
  Sim.run sim;
  Alcotest.(check int) "chain length" 1000 !count;
  Alcotest.(check int) "clock" 999 (Sim.now sim)

(* ----- lanes ----- *)

(* A random script of scheduling operations, each issued by a driver
   event at a small (hence often colliding) time. *)
type lane_op =
  | Push of int * int  (* lane, delay: one lane firing *)
  | At of int  (* delay: a plain event *)
  | Timer of int  (* delay: a cancellable timer *)
  | Cancel of int  (* index of a timer made earlier, if any *)

let n_lanes = 3

(* Runs the script with every lane firing either pushed onto a
   [Sim.lane] or scheduled eagerly with [Sim.at], and returns the log of
   what fired, when, and the number of events run. Every third firing of
   a lane pushes one more firing onto the next lane (the same lane when
   [n_lanes] wraps round), so pushes also come from inside lane
   handlers. The clock left after the last firing is not compared: a
   trailing cancelled timer moves it only if compaction has not removed
   the timer first, and lanes change the heap's size and so when
   compaction runs (see [Sim.run]). *)
let run_lane_script ~use_lanes script =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s@%d" s (Sim.now sim) :: !log in
  let fired = Array.make n_lanes 0 in
  let tails = Array.make n_lanes 0 in
  let lanes = Array.make n_lanes None in
  let rec fire l () =
    fired.(l) <- fired.(l) + 1;
    note (Printf.sprintf "L%d.%d" l fired.(l));
    if fired.(l) mod 3 = 0 then push ((l + 1) mod n_lanes) 1
  and push l d =
    let time = Stdlib.max (Sim.now sim + d) tails.(l) in
    tails.(l) <- time;
    match lanes.(l) with
    | Some lane -> Sim.lane_at lane time
    | None -> Sim.at sim time (fire l)
  in
  if use_lanes then
    Array.iteri (fun l _ -> lanes.(l) <- Some (Sim.lane sim (fire l))) lanes;
  let timers = ref [||] in
  List.iteri
    (fun i (at, op) ->
      Sim.at sim at (fun () ->
          match op with
          | Push (l, d) -> push l d
          | At d -> Sim.after sim d (fun () -> note (Printf.sprintf "A%d" i))
          | Timer d ->
            let tm =
              Sim.timer_after sim d (fun () -> note (Printf.sprintf "T%d" i))
            in
            timers := Array.append !timers [| tm |]
          | Cancel k ->
            if k < Array.length !timers then Sim.cancel !timers.(k)))
    script;
  Sim.run sim;
  (List.rev !log, Sim.events_executed sim)

let lane_script_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 60)
      (pair (int_bound 8)
         (oneof
            [
              map (fun (l, d) -> Push (l, d))
                (pair (int_bound (n_lanes - 1)) (int_bound 4));
              map (fun d -> At d) (int_bound 4);
              map (fun d -> Timer d) (int_bound 4);
              map (fun k -> Cancel k) (int_bound 9);
            ])))

let prop_lane_order =
  QCheck.Test.make ~count:500
    ~name:"lane firings interleave exactly as eager scheduling"
    lane_script_gen (fun script ->
      run_lane_script ~use_lanes:true script
      = run_lane_script ~use_lanes:false script)

let test_lane_heap_entry () =
  let sim = Sim.create () in
  let fired = ref [] in
  let lane = Sim.lane sim (fun () -> fired := Sim.now sim :: !fired) in
  for i = 1 to 100 do
    Sim.lane_at lane (10 * i)
  done;
  Alcotest.(check int) "one heap entry for 100 firings" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list int)) "fired in push order"
    (List.init 100 (fun i -> 10 * (i + 1)))
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Sim.pending sim);
  Alcotest.(check int) "heap peak" 1 (Sim.stats sim).Sim.heap_peak

let test_lane_rejects_out_of_order () =
  let sim = Sim.create () in
  let lane = Sim.lane sim ignore in
  Sim.lane_at lane 50;
  Alcotest.(check bool) "push before the lane's last raises" true
    (match Sim.lane_at lane 40 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Sim.lane_at lane 50;
  Sim.run sim;
  Alcotest.(check int) "both firings ran" 2 (Sim.events_executed sim);
  Alcotest.(check bool) "push before now raises" true
    (match Sim.lane_at lane 10 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Sim.lane_at lane 50;
  Sim.run sim;
  Alcotest.(check int) "a drained lane takes a push at now" 3
    (Sim.events_executed sim)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial;
    Alcotest.test_case "run order" `Quick test_run_order;
    Alcotest.test_case "after is relative" `Quick test_after;
    Alcotest.test_case "run until" `Quick test_until;
    Alcotest.test_case "until is inclusive" `Quick test_until_inclusive;
    Alcotest.test_case "past scheduling rejected" `Quick
      test_past_scheduling_rejected;
    Alcotest.test_case "FIFO at same time" `Quick test_same_time_fifo;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timer fires once" `Quick test_timer_fires;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "cancel-heavy pending stays bounded" `Quick
      test_cancel_heavy_pending_bounded;
    Alcotest.test_case "cancelled entry skipped at pop" `Quick
      test_cancelled_entry_skipped_at_pop;
    Alcotest.test_case "event cascade" `Quick test_cascade;
    QCheck_alcotest.to_alcotest prop_lane_order;
    Alcotest.test_case "lane keeps one heap entry" `Quick test_lane_heap_entry;
    Alcotest.test_case "lane rejects out-of-order pushes" `Quick
      test_lane_rejects_out_of_order;
  ]
