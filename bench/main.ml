(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 1, 4, 6, 7, 8, 9, 10, 11; Tables 1, 2, 3), plus
   ablation benches and micro-benchmarks of the simulator's hot paths.

   Every experiment is a registered Xmp_experiments.Scenarios scenario:
   an independent seeded simulation with a stable content digest. The
   runner executes the selected set across --jobs worker processes and
   caches each scenario's rendered output under _xmp_cache/<digest>, so
   re-runs and partial sweeps skip already-computed scenarios. Scenario
   output goes to stdout in deterministic (registration) order whatever
   the job count; progress and cache statistics go to stderr.

   Usage:
     dune exec bench/main.exe                 # everything (default scale)
     dune exec bench/main.exe -- table1 fig9  # a subset
     dune exec bench/main.exe -- --quick      # fast sanity pass
     dune exec bench/main.exe -- --quick --jobs 4   # parallel workers
     dune exec bench/main.exe -- --no-cache fig7    # force re-simulation
     dune exec bench/main.exe -- --paper-scale table1   # k=8 fat tree
     dune exec bench/main.exe -- micro        # bechamel micro-benches
     dune exec bench/main.exe -- perf         # tracked perf baseline
     dune exec bench/main.exe -- perf --quick --out perf.json  # new file *)

module E = Xmp_experiments
module Runner = Xmp_runner.Runner
module Time = Xmp_engine.Time

type mode = Default | Quick | Paper

let mode = ref Default

let config () =
  match !mode with
  | Default -> E.Scenarios.default
  | Quick -> E.Scenarios.quick
  | Paper -> E.Scenarios.paper

(* ----- micro-benchmarks (Bechamel) -----

   Not a scenario: bechamel measures this machine's wall clock, so the
   output is neither deterministic nor cacheable. *)

let heap_test =
  Bechamel.Test.make ~name:"event_queue push+pop x1000"
    (Bechamel.Staged.stage (fun () ->
         let q = Xmp_engine.Event_queue.create () in
         for i = 0 to 999 do
           Xmp_engine.Event_queue.add q ~time:(i * 7919 mod 1000) ~seq:i i
         done;
         let rec drain () =
           match Xmp_engine.Event_queue.pop q with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()))

let disc_test =
  Bechamel.Test.make ~name:"queue_disc enqueue+dequeue x100"
    (Bechamel.Staged.stage (fun () ->
         let d =
           Xmp_net.Queue_disc.create
             ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
             ~capacity_pkts:100
         in
         for i = 0 to 99 do
           let p =
             Xmp_net.Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1
               ~path:0 ~seq:i ~ect:true ~cwr:false ~ts:0
           in
           ignore (Xmp_net.Queue_disc.enqueue d p)
         done;
         let rec drain () =
           match Xmp_net.Queue_disc.dequeue d with
           | Some p ->
             Xmp_net.Packet.release p;
             drain ()
           | None -> ()
         in
         drain ()))

let fluid_test =
  Bechamel.Test.make ~name:"fluid trash_fixed_point (3 paths)"
    (Bechamel.Staged.stage (fun () ->
         let path c =
           {
             Xmp_core.Fluid.rtt = 0.0002;
             p_of_rate = (fun x -> Float.min 1. (0.01 +. (x /. c)));
           }
         in
         ignore
           (Xmp_core.Fluid.trash_fixed_point ~beta:4
              ~paths:[ path 50_000.; path 80_000.; path 20_000. ]
              ~iterations:20)))

let sim_test =
  Bechamel.Test.make ~name:"end-to-end sim, 1 XMP flow, 10 ms"
    (Bechamel.Staged.stage (fun () ->
         let sim = Xmp_engine.Sim.create () in
         let net = Xmp_net.Network.create sim in
         let disc () =
           Xmp_net.Queue_disc.create
             ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
             ~capacity_pkts:100
         in
         let tb =
           Xmp_net.Testbed.create ~net ~n_left:1 ~n_right:1
             ~bottlenecks:
               [
                 {
                   Xmp_net.Testbed.rate = Xmp_net.Units.gbps 1.;
                   delay = Time.us 62;
                   disc;
                 };
               ]
             ()
         in
         ignore
           (Xmp_core.Xmp.flow ~net ~flow:1
              ~src:(Xmp_net.Testbed.left_id tb 0)
              ~dst:(Xmp_net.Testbed.right_id tb 0)
              ~paths:[ 0 ] ());
         Xmp_engine.Sim.run ~until:(Time.ms 10) sim))

let micro () =
  E.Render.heading "Micro-benchmarks of simulator hot paths (Bechamel)";
  let benchmark test =
    let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Bechamel.Benchmark.cfg ~limit:200
        ~quota:(Bechamel.Time.second 0.5) ()
    in
    Bechamel.Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:Bechamel.Measure.[| run |]
    in
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock
      results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    [ heap_test; disc_test; fluid_test; sim_test ]

(* ----- argument parsing and dispatch ----- *)

let default_set =
  [
    "fig1"; "fig4"; "fig6"; "fig7"; "table1"; "fig8"; "fig9"; "fig10";
    "fig11"; "table2"; "table3"; "ablations";
  ]

let usage () =
  print_endline
    "usage: main.exe [--quick|--paper-scale] [--jobs N] [--no-cache] \
     [experiment ...]\noptions:";
  print_endline
    "  --jobs N     run scenarios across N worker processes (default 1)";
  print_endline
    "  --no-cache   ignore and do not write _xmp_cache/ result entries";
  print_endline "experiments:";
  List.iter
    (fun s ->
      Printf.printf "  %-22s %s\n" s.Xmp_runner.Scenario.name
        s.Xmp_runner.Scenario.descr)
    (E.Scenarios.all E.Scenarios.default);
  Printf.printf "  %-22s %s\n" "ablations" "every ablations.* sweep";
  Printf.printf "  %-22s %s\n" "micro"
    "simulator micro-benchmarks (never cached)";
  Printf.printf "  %-22s %s\n" "perf"
    "pinned-scenario perf baseline (never cached; --out FILE writes a new \
     JSON record, never overwriting one; --compare FILE gates on a \
     committed baseline)"

let () =
  (* The simulator's live heap is small relative to its allocation rate,
     so the default space_overhead (120) keeps the major GC marking
     nearly continuously. Trading idle heap headroom for fewer slices is
     worth ~25% wall time on the packet hot path and changes no output
     byte. Applied here (not in the library) so embedders keep their own
     policy. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = ref [] in
  let jobs = ref 1 in
  let cache = ref (Runner.Cache_dir Xmp_runner.Cache.default_dir) in
  let perf_out = ref None in
  let perf_compare = ref None in
  let bad = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      mode := Quick;
      parse rest
    | "--out" :: path :: rest ->
      perf_out := Some path;
      parse rest
    | [ "--out" ] ->
      prerr_endline "--out needs a path argument";
      bad := true
    | "--compare" :: path :: rest ->
      perf_compare := Some path;
      parse rest
    | [ "--compare" ] ->
      prerr_endline "--compare needs a baseline JSON path argument";
      bad := true
    | "--paper-scale" :: rest ->
      mode := Paper;
      parse rest
    | "--no-cache" :: rest ->
      cache := Runner.No_cache;
      parse rest
    | ("--jobs" | "-j") :: n :: rest when int_of_string_opt n <> None ->
      jobs := int_of_string n;
      parse rest
    | ("--jobs" | "-j") :: _ ->
      prerr_endline "--jobs needs an integer argument";
      bad := true
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | id :: rest ->
      selected := id :: !selected;
      parse rest
  in
  parse args;
  if !bad then begin
    usage ();
    exit 2
  end;
  let requested = if !selected = [] then default_set else List.rev !selected in
  let run_micro = List.mem "micro" requested in
  let run_perf = List.mem "perf" requested in
  let scenario_ids =
    List.filter (fun id -> id <> "micro" && id <> "perf") requested
  in
  (match E.Scenarios.select (config ()) scenario_ids with
  | Error unknown ->
    Printf.eprintf "unknown experiment: %s\n" unknown;
    usage ();
    exit 2
  | Ok [] -> ()
  | Ok scenarios ->
    ignore (Runner.run_and_print ~jobs:!jobs ~cache:!cache scenarios));
  if run_micro then micro ();
  if run_perf then begin
    let ok =
      Perf.run ~quick:(!mode = Quick) ?out:!perf_out ?compare:!perf_compare ()
    in
    (* a >15% events/s drop against the baseline is a hard failure *)
    if not ok then exit 1
  end
