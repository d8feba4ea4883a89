(* The runtime invariant checker (Xmp_check.Invariant) and its call sites
   in the engine and transport. The end-to-end cases feed the stack state
   that violates an invariant and assert the checker catches it — and that
   the same state sails through silently when the checker is disabled. *)

module Invariant = Xmp_check.Invariant
module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Testbed = Xmp_net.Testbed
module Tcp = Xmp_transport.Tcp
module Cc = Xmp_transport.Cc

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_require_passes () =
  Invariant.reset_counters ();
  Invariant.require ~name:"unit.pass" true (fun () -> "never rendered");
  Alcotest.(check int) "one check run" 1 (Invariant.checks_run ());
  Alcotest.(check int) "no violations" 0 (Invariant.violations ())

let test_require_raises () =
  Invariant.reset_counters ();
  let raised =
    try
      Invariant.require ~name:"unit.fail" false (fun () -> "detail here");
      None
    with Invariant.Violation msg -> Some msg
  in
  match raised with
  | None -> Alcotest.fail "expected Violation"
  | Some msg ->
    Alcotest.(check bool) "message names the invariant" true
      (String.length msg > 0
      && contains ~sub:"unit.fail" msg
      && contains ~sub:"detail here" msg);
    Alcotest.(check int) "violation counted" 1 (Invariant.violations ())

let test_disabled_is_silent () =
  Invariant.reset_counters ();
  Invariant.with_enabled false (fun () ->
      Invariant.require ~name:"unit.off" false (fun () ->
          Alcotest.fail "detail thunk must not run when disabled"));
  Alcotest.(check int) "nothing checked" 0 (Invariant.checks_run ());
  Alcotest.(check bool) "re-enabled after with_enabled" true
    (Invariant.enabled ())

let test_warn_mode_does_not_raise () =
  Invariant.reset_counters ();
  Invariant.set_mode Invariant.Warn;
  Fun.protect
    ~finally:(fun () -> Invariant.set_mode Invariant.Raise)
    (fun () ->
      Invariant.require ~name:"unit.warn" false (fun () -> "warned");
      Alcotest.(check int) "violation still counted" 1
        (Invariant.violations ()))

(* ----- end-to-end: a violated invariant inside the stack is caught ----- *)

(* A congestion controller whose window is below one segment violates the
   cwnd >= 1 MSS invariant the paper's schemes all maintain; Tcp's send
   path asserts it. *)
let broken_cc : Cc.factory =
 fun _view ->
  {
    Cc.name = "broken";
    cwnd = (fun () -> 0.5);
    on_ack = (fun ~ack:_ ~newly_acked:_ ~ce_count:_ -> ());
    on_ecn = (fun ~count:_ -> ());
    on_fast_retransmit = (fun () -> ());
    on_timeout = (fun () -> ());
    in_slow_start = (fun () -> false);
    take_cwr = Cc.nop_take_cwr;
  }

let rig () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 3 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:20
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ()
  in
  (net, tb)

let start_broken_flow (net, tb) =
  ignore
    (Tcp.create ~net ~flow:1 ~subflow:0
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~path:0 ~cc:broken_cc
       ~source:(Tcp.Limited (ref 10))
       ())

let test_sub_mss_cwnd_caught () =
  let caught =
    try
      start_broken_flow (rig ());
      None
    with Invariant.Violation msg -> Some msg
  in
  match caught with
  | None -> Alcotest.fail "cwnd < 1 MSS was not caught"
  | Some msg ->
    Alcotest.(check bool) "names the cwnd invariant" true
      (contains ~sub:"tcp.cwnd-at-least-one-mss" msg)

let test_sub_mss_cwnd_ignored_when_disabled () =
  Invariant.with_enabled false (fun () -> start_broken_flow (rig ()))

let test_two_sims_keep_their_own_invariant_flag () =
  (* Regression: Sim.create used to write config.invariants straight into
     the process-global toggle, so creating a second sim silently
     reconfigured checking for every live sim. The flag is now
     snapshotted per-sim and re-asserted at dispatch. *)
  let saved = Invariant.enabled () in
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled saved)
    (fun () ->
      let sim_off =
        Sim.create
          ~config:{ Sim.default_config with invariants = Some false }
          ()
      in
      (* this second create flips the global toggle on *)
      let sim_on =
        Sim.create
          ~config:{ Sim.default_config with invariants = Some true }
          ()
      in
      let off_ran = ref false in
      Sim.at sim_off 10 (fun () ->
          Invariant.require ~name:"two-sims.off" false (fun () ->
              "must be ignored: checks are off for this sim");
          off_ran := true);
      (* must not raise even though sim_on switched the global on *)
      Sim.run sim_off;
      Alcotest.(check bool) "first sim dispatched with checks off" true
        !off_ran;
      let caught = ref None in
      Sim.at sim_on 10 (fun () ->
          Invariant.require ~name:"two-sims.on" false (fun () -> "caught"));
      (try Sim.run sim_on with Invariant.Violation msg -> caught := Some msg);
      match !caught with
      | None -> Alcotest.fail "second sim must still enforce its checks"
      | Some msg ->
        Alcotest.(check bool) "names the invariant" true
          (contains ~sub:"two-sims.on" msg))

(* A passing check allocates nothing: the message closure is built only
   on the failure path. The same ECN-marked transfer with checks on and
   off must allocate the same minor words, up to a tenth of a word per
   event (the Gc reads themselves, and nothing that scales with the
   run). *)
let minor_words_per_event ~invariants =
  let sim =
    Sim.create
      ~config:{ Sim.default_config with seed = 3; invariants = Some invariants }
      ()
  in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:40
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ()
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0 ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0) ~path:0
      ~cc:(fun view ->
        Xmp_transport.Reno.make
          ~params:{ Xmp_transport.Reno.default_params with ecn = true }
          view)
      ~config:Tcp.ecn_config
      ~source:(Tcp.Limited (ref 20_000))
      ()
  in
  let before = Gc.minor_words () in
  Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "transfer completed" true (Tcp.is_complete conn);
  words /. float_of_int (Sim.events_executed sim)

let test_passing_checks_allocate_nothing () =
  let saved = Invariant.enabled () in
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled saved)
    (fun () ->
      Invariant.reset_counters ();
      let on = minor_words_per_event ~invariants:true in
      Alcotest.(check bool) "checks ran" true (Invariant.checks_run () > 0);
      let off = minor_words_per_event ~invariants:false in
      Alcotest.(check bool)
        (Printf.sprintf "%.3f words/event on vs %.3f off" on off)
        true
        (on -. off <= 0.1))

let suite =
  [
    Alcotest.test_case "require true counts, does not raise" `Quick
      test_require_passes;
    Alcotest.test_case "require false raises Violation" `Quick
      test_require_raises;
    Alcotest.test_case "disabled checker is silent and free" `Quick
      test_disabled_is_silent;
    Alcotest.test_case "Warn mode logs instead of raising" `Quick
      test_warn_mode_does_not_raise;
    Alcotest.test_case "sub-MSS cwnd caught in Tcp send path" `Quick
      test_sub_mss_cwnd_caught;
    Alcotest.test_case "disabled checker lets sub-MSS cwnd pass" `Quick
      test_sub_mss_cwnd_ignored_when_disabled;
    Alcotest.test_case "two sims keep their own invariant flag" `Quick
      test_two_sims_keep_their_own_invariant_flag;
    Alcotest.test_case "passing checks allocate nothing" `Quick
      test_passing_checks_allocate_nothing;
  ]
