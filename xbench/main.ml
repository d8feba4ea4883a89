(* The repository benchmark.

     xbench --workload NAME --seed N --seconds S --trace 0|1
            [--out FILE] [--compare FILE]

   Untraced (--trace 0): repeats one measured run of the workload, each
   in a fresh child process, until S seconds have passed (at least three
   repeats), checks every repeat's output, and prints the end-to-end
   metrics as medians over the repeats. Traced (--trace 1): runs the
   workload with a telemetry sink and the invariant tally on, with
   invariants off and (dc.websearch) on one domain, replays each layer's public functions, and prints the
   per-layer metrics, the tracing overhead and an attribution table.
   The last line of stdout is the JSON result; the exit code is 0
   whenever a result was printed.

   --out FILE writes the run's record (workload, config digest, event
   count, metrics); it never writes over a file git tracks. --compare
   FILE prints ratios against such a record, and refuses when the
   record describes different work. *)

module Time = Xmp_engine.Time
module Open_loop = Xmp_workload.Open_loop
module Shard = Xmp_net.Shard

let pinned_seed = 1

(* The combined modelled-result digest of each workload's replications
   at [pinned_seed]. A change to any modelled number changes it. *)
let pinned_digest = function
  | Workloads.Longflow -> "e3e26c3c284afaaeb2eedfa64e7d5561"
  | Workloads.Websearch -> "8d8da1e9111303a98f7be85dbbe1dff2"
  | Workloads.Wan_bdp -> "0e19d0256c0a98ed9a0d414445c75929"

let min_repeats = 3

let max_repeats = 64

let median = Replay.median

(* ---- child processes ---- *)

type child = { values : (string * string) list; verdict : Record.verdict }

let get c k = List.assoc_opt k c.values

let num c k = Option.bind (get c k) float_of_string_opt |> Option.value ~default:0.

let int c k = Option.bind (get c k) int_of_string_opt |> Option.value ~default:0

let floats c k =
  match get c k with
  | None | Some "" -> []
  | Some s -> List.filter_map float_of_string_opt (String.split_on_char ',' s)

let required =
  [ "wall_s"; "cpu_s"; "replication_walls"; "replication_cpus"; "setup_walls";
    "setup_cpus"; "peak_rss_mb"; "events"; "minor_words";
    "digest"; "conserved" ]

(* Runs this executable in child mode and parses its "key value" lines.
   The child's stderr passes through. *)
let spawn ~workload ~seed extra =
  let args =
    Array.of_list
      ([ Sys.executable_name; "--child"; "--workload"; Workloads.name workload;
         "--seed"; string_of_int seed ]
      @ extra)
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l -> (
      match String.index_opt l ' ' with
      | Some i ->
        read ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
      | None -> read acc)
  in
  let values = read [] in
  let status = Unix.close_process_in ic in
  let c = { values; verdict = Record.Passed } in
  let fail why = { c with verdict = Record.Failed why } in
  match status with
  | Unix.WEXITED 0 -> (
    match List.find_opt (fun k -> get c k = None) required with
    | Some k -> fail ("child output lacks " ^ k)
    | None ->
      if get c "conserved" <> Some "true" then
        fail "launched <> completed + truncated"
      else if seed = pinned_seed && get c "digest" <> Some (pinned_digest workload)
      then
        fail
          (Printf.sprintf "modelled digest %s at the pinned seed, expected %s"
             (Option.value ~default:"?" (get c "digest"))
             (pinned_digest workload))
      else c)
  | Unix.WEXITED n -> fail (Printf.sprintf "child exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail (Printf.sprintf "child killed by signal %d" n)

(* Repeats must agree exactly on the modelled digest and the
   deterministic counters; a repeat that drifts from the first fails.
   Minor words are exact on one domain. With worker domains, the runtime
   books a terminating domain's allocations only up to that domain's
   last minor collection, and minor collections are stop-the-world, so
   when the worker's last one falls depends on the other domain's
   timing: what goes unbooked varies by up to one minor heap per worker
   per Shard.run call (43 000 of 232 M words seen). There the counts
   must agree within that allowance. *)
let exact_keys = [ "digest"; "events"; "mail"; "launched"; "domains" ]

let minor_words_agree ~workload ~first c =
  match (get first "minor_words", get c "minor_words") with
  | Some a, Some b when String.equal a b -> true
  | Some _, Some _ ->
    let unbooked =
      (int c "domains" - 1)
      * Workloads.replications workload
      * (Gc.get ()).Gc.minor_heap_size
    in
    Float.abs (num first "minor_words" -. num c "minor_words")
    <= float_of_int unbooked
  | _ -> false

let against_first ~workload = function
  | [] -> []
  | first :: _ as cs ->
    List.map
      (fun c ->
        if c.verdict <> Record.Passed then c
        else
          let drift =
            List.find_map
              (fun k ->
                match
                  Record.exact ~what:k
                    (List.map (fun x -> Option.value ~default:"" (get x k)) [ first; c ])
                with
                | Record.Passed -> None
                | failed -> Some failed)
              exact_keys
          in
          match drift with
          | Some v -> { c with verdict = v }
          | None when minor_words_agree ~workload ~first c -> c
          | None ->
            { c with
              verdict =
                Record.Failed
                  (Printf.sprintf "minor_words drifted across repeats: %s / %s"
                     (Option.value ~default:"" (get first "minor_words"))
                     (Option.value ~default:"" (get c "minor_words"))) })
      cs

(* wall and CPU of the replications after set-up: the replications'
   total less their set-ups, each taken at this child's median *)
let after_setup ~workload c key setups_key =
  num c key
  -. (float_of_int (Workloads.replications workload) *. median (floats c setups_key))

(* The same over several repeats: each replication's median time across
   the repeats, summed, less the replications' set-ups at the median
   build time. Medians per replication rather than per repeat keep a
   burst of contention on the machine from spoiling a whole repeat. *)
let across_repeats ~workload children key setups_key =
  let columns = List.map (fun c -> floats c key) children in
  let r = Workloads.replications workload in
  let per_replication =
    List.init r (fun i -> median (List.filter_map (fun col -> List.nth_opt col i) columns))
  in
  List.fold_left ( +. ) 0. per_replication
  -. (float_of_int r *. median (List.map (fun c -> median (floats c setups_key)) children))

(* ---- untraced: end-to-end metrics ---- *)

let untraced ~workload ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec loop acc n =
    if n >= max_repeats
       || (n >= min_repeats && Unix.gettimeofday () -. t0 >= float_of_int seconds)
    then List.rev acc
    else loop (spawn ~workload ~seed [] :: acc) (n + 1)
  in
  let children = against_first ~workload (loop [] 0) in
  let ok = List.filter (fun c -> c.verdict = Record.Passed) children in
  let med f = median (List.map f ok) in
  let first f = match ok with c :: _ -> f c | [] -> 0. in
  let metrics =
    [
      Record.metric "wall_s" "s" (across_repeats ~workload ok "replication_walls" "setup_walls");
      Record.metric "cpu_s" "s" (across_repeats ~workload ok "replication_cpus" "setup_cpus");
      Record.metric "setup_s" "s" (med (fun c -> median (floats c "setup_walls")));
      Record.metric "peak_rss_mb" "MB" (med (fun c -> num c "peak_rss_mb"));
      Record.metric "goodput_mbps" "Mbps" (first (fun c -> num c "goodput_mbps"));
      Record.metric "fct_p50_slowdown" "x" (first (fun c -> num c "fct_p50_slowdown"));
      Record.metric "fct_p99_slowdown" "x" (first (fun c -> num c "fct_p99_slowdown"));
    ]
  in
  (children, metrics, first (fun c -> num c "events"))

(* ---- traced: per-layer metrics ---- *)

(* Counts no public entry point exposes on an open-loop run: Open_loop
   takes no telemetry sink and keeps its simulators to itself. They read
   0 on dc.websearch, and the table says so. *)
let sink_only =
  [ "engine.cancelled_skipped"; "engine.timer_waste"; "engine.rebuilds";
    "net.enqueued"; "net.marked"; "net.dropped"; "net.tx_packets";
    "net.mark_ratio"; "transport.retransmits"; "transport.timeouts";
    "transport.rtt_samples" ]

let ratio a b = if b = 0. then 0. else a /. b

(* A child's spans, each with its self time: its duration less the
   spans it directly encloses. *)
let print_spans c =
  let spans =
    match get c "spans" with
    | None -> []
    | Some s ->
      List.filter_map
        (fun e ->
          match String.split_on_char '@' e with
          | [ name; a; b; parent ] -> (
            match (float_of_string_opt a, float_of_string_opt b) with
            | Some a, Some b -> Some (name, a, b, parent)
            | _ -> None)
          | _ -> None)
        (String.split_on_char ';' s)
      |> List.stable_sort (fun (_, a, b, _) (_, a', b', _) ->
             if a = a' then Float.compare b' b else Float.compare a a')
  in
  print_endline "spans of one untraced run (s):       start      stop      self  parent";
  List.iter
    (fun (name, a, b, parent) ->
      let inner =
        List.fold_left
          (fun acc (_, a', b', p') -> if String.equal p' name then acc +. (b' -. a') else acc)
          0. spans
      in
      Printf.printf "  %-32s %9.4f %9.4f %9.4f  %s\n" name a b (b -. a -. inner)
        (if parent = "" then "-" else parent))
    spans

let traced ~workload ~seed =
  let spawn = spawn ~workload ~seed in
  (* the variants run between two untraced repeats, so a drift in the
     machine's speed during the run moves both sides of each ratio *)
  let base1 = spawn [] in
  let traced = spawn [ "--traced" ] in
  let no_inv = spawn [ "--no-invariants" ] in
  let one_domain =
    match workload with
    | Workloads.Websearch -> Some (spawn [ "--domains"; "1" ])
    | Workloads.Longflow | Workloads.Wan_bdp -> None
  in
  let base = against_first ~workload [ base1; spawn [] ] in
  let same_as_base what c =
    match (c.verdict, base) with
    | Record.Passed, b :: _ when get c "digest" <> get b "digest" ->
      { c with
        verdict =
          Record.Failed
            (Printf.sprintf "modelled result differs with %s" what) }
    | _ -> c
  in
  let traced = same_as_base "telemetry on" traced in
  let no_inv = same_as_base "invariants off" no_inv in
  let one_domain = Option.map (same_as_base "domains 1") one_domain in
  let children = base @ [ traced; no_inv ] @ Option.to_list one_domain in
  let b = List.hd base in
  let wall c = after_setup ~workload c "wall_s" "setup_walls" in
  let base_wall = median (List.map wall base) in
  let events = num b "events" in
  let t = traced in
  let cancelled = num t "cancelled_skipped" in
  let enqueued = num t "net_enqueued" in
  let rtt_samples = num t "rtt_samples" in
  let launched = num b "launched" in
  (* replays *)
  let depth = int b "heap_peak" in
  let queue_op_ns = Replay.queue_op_ns ~depth in
  let queue_disc_ns = Replay.queue_disc_ns () in
  let packet_ns = Replay.packet_ns () in
  let seqset_ns = Replay.seqset_ns ~window:Workloads.bdp_packets in
  let flow_setup_ns = Replay.flow_setup_ns () in
  let trash_ns = Replay.trash_ns () in
  let sample_ns = Replay.sample_ns (Workloads.websearch_config ~seed) in
  let record_fct_ns = Replay.record_fct_ns () in
  let report_s = Replay.report_s ~samples:(int b "fct_samples") in
  let build_s, build_words = Replay.build ~f:(Workloads.build_fabric workload) in
  let make () = Workloads.idle_cluster workload in
  let barrier d = Replay.barrier_ns ~make ~domains:d ~epochs:2_000 in
  let barrier_1d = barrier 1 and barrier_2d = barrier 2 in
  let epochs =
    match workload with
    | Workloads.Websearch ->
      let c = Workloads.websearch_config ~seed in
      float_of_int (Workloads.replications workload)
      *. float_of_int (Time.add c.Open_loop.horizon c.Open_loop.drain)
      /. float_of_int (Shard.epoch_delta (make ()))
    | Workloads.Longflow | Workloads.Wan_bdp -> 0.
  in
  let check_share =
    1. -. ratio (after_setup ~workload no_inv "wall_s" "setup_walls") base_wall
  in
  (* estimated seconds per layer: one heap add+pop per event, one queue
     enqueue+dequeue per enqueued packet, one scoreboard update and one
     TraSh gain per ACK that carries an RTT sample, one flow set-up,
     arrival and FCT record per launched flow, one barrier per epoch of
     simulated time; the invariant checker by its measured share *)
  let ns = 1e-9 in
  let attribution =
    [
      ("engine", events *. queue_op_ns *. ns);
      ("net", enqueued *. queue_disc_ns *. ns);
      ("transport", rtt_samples *. seqset_ns *. ns);
      ("core", rtt_samples *. trash_ns *. ns);
      ("mptcp", launched *. flow_setup_ns *. ns);
      ("workload", launched *. (sample_ns +. record_fct_ns) *. ns);
      ("shard", epochs *. barrier_2d *. ns);
      ("check", check_share *. base_wall);
    ]
  in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. attribution in
  let attribution = attribution @ [ ("unattributed", base_wall -. attributed) ] in
  let m = Record.metric in
  let metrics =
    [
      m "engine.events" "count" events;
      m "engine.ns_per_event" "ns" (ratio base_wall events *. 1e9);
      m "engine.cancelled_skipped" "count" cancelled;
      m "engine.timer_waste" "ratio" (ratio cancelled (events +. cancelled));
      m "engine.heap_peak" "count" (float_of_int depth);
      m "engine.rebuilds" "count" (num t "rebuilds");
      m "engine.queue_op_ns" "ns" queue_op_ns;
      m "gc.minor_words_per_event" "words" (ratio (num b "minor_words") events);
      m "gc.major_words_per_event" "words" (ratio (num b "major_words") events);
      m "gc.major_collections" "count" (num b "major_collections");
      m "gc.setup_major_words" "words" (num b "setup_major_words");
      m "net.build_s" "s" build_s;
      m "net.build_words" "words" build_words;
      m "net.enqueued" "count" enqueued;
      m "net.marked" "count" (num t "net_marked");
      m "net.dropped" "count" (num t "net_dropped");
      m "net.tx_packets" "count" (num t "net_tx_packets");
      m "net.mark_ratio" "ratio" (ratio (num t "net_marked") enqueued);
      m "net.pool_created" "count" (num b "pool_created");
      m "net.queue_disc_ns" "ns" queue_disc_ns;
      m "net.packet_ns" "ns" packet_ns;
      m "shard.mail" "count" (num b "mail");
      m "shard.mail_per_event" "ratio" (ratio (num b "mail") events);
      m "shard.barrier_ns" "ns" barrier_2d;
      m "shard.barrier_ns_1d" "ns" barrier_1d;
      m "shard.speedup_2d" "ratio"
        (match one_domain with
        | Some c -> ratio (wall c) base_wall
        | None -> 1. (* one Sim: no second domain to use *));
      m "transport.retransmits" "count" (num t "retransmits");
      m "transport.timeouts" "count" (num t "timeouts");
      m "transport.rtt_samples" "count" rtt_samples;
      m "transport.seqset_ns" "ns" seqset_ns;
      m "mptcp.flow_setup_ns" "ns" flow_setup_ns;
      m "core.trash_ns" "ns" trash_ns;
      m "workload.launched" "count" launched;
      m "workload.completed" "count" (num b "completed");
      m "workload.truncated" "count" (num b "truncated");
      m "workload.completion_ratio" "ratio" (ratio (num b "completed") launched);
      m "workload.sample_ns" "ns" sample_ns;
      m "workload.record_fct_ns" "ns" record_fct_ns;
      m "stats.report_s" "s" report_s;
      m "check.checks_run" "count" (num t "checks_run");
      m "check.share" "ratio" check_share;
      m "telemetry.overhead" "ratio" (ratio (wall t) base_wall -. 1.);
    ]
    @ List.map
        (fun (layer, s) -> m ("attribution." ^ layer) "share" (ratio s base_wall))
        attribution
  in
  print_spans b;
  Printf.printf "attribution of wall_s = %.3f s on %s (count x replayed ns/op):\n"
    base_wall (Workloads.name workload);
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-13s %9.4f s  %6.1f%%\n" layer s (100. *. ratio s base_wall))
    attribution;
  (match workload with
  | Workloads.Websearch ->
    Printf.printf "not observable on %s (Open_loop takes no telemetry sink), read as 0: %s\n"
      (Workloads.name workload) (String.concat " " sink_only)
  | Workloads.Longflow | Workloads.Wan_bdp -> ());
  (children, metrics, events)

(* ---- command line ---- *)

let usage =
  "xbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] \
   [--compare FILE]"

let die code msg =
  prerr_endline ("xbench: " ^ msg);
  exit code

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let main argv =
  let flag k = List.mem k argv in
  let opt k =
    let rec find = function
      | a :: v :: _ when String.equal a k -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let workload =
    match opt "--workload" with
    | None -> die 2 usage
    | Some n -> (
      match Workloads.of_name n with
      | Some w -> w
      | None ->
        die 2
          (Printf.sprintf "unknown workload %S (have: %s)" n
             (String.concat ", " (List.map Workloads.name Workloads.all))))
  in
  let int_opt k ~default =
    match opt k with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> die 2 (Printf.sprintf "%s wants an integer, got %S" k v))
  in
  let seed = int_opt "--seed" ~default:pinned_seed in
  if flag "--child" then
    Child.run
      {
        Child.workload;
        seed;
        traced = flag "--traced";
        invariants = not (flag "--no-invariants");
        domains = int_opt "--domains" ~default:Workloads.websearch_domains;
      }
  else begin
    let seconds = int_opt "--seconds" ~default:10 in
    let trace = int_opt "--trace" ~default:0 in
    if seconds < 1 then die 2 "--seconds must be at least 1";
    if trace <> 0 && trace <> 1 then die 2 "--trace must be 0 or 1";
    let out = opt "--out" in
    Option.iter
      (fun path ->
        match Record.check_out_path ~tracked:Record.git_tracked path with
        | Ok () -> ()
        | Error msg -> die 2 msg)
      out;
    let baseline =
      Option.map
        (fun path ->
          match Record.of_string (read_file path) with
          | Ok r -> r
          | Error msg -> die 2 (path ^ ": " ^ msg)
          | exception Sys_error msg -> die 2 msg)
        (opt "--compare")
    in
    let children, metrics, events =
      if trace = 1 then traced ~workload ~seed else untraced ~workload ~seed ~seconds
    in
    let t = Record.tally (List.map (fun c -> c.verdict) children) in
    List.iter (fun why -> prerr_endline ("xbench: FAILED " ^ why)) t.Record.reasons;
    (match Record.problems metrics with
    | [] -> ()
    | ps -> die 1 (String.concat "; " ps));
    let record =
      {
        Record.workload = Workloads.name workload;
        config_digest = Workloads.config_digest workload ~seed;
        events = int_of_float events;
        values = metrics;
      }
    in
    List.iter
      (fun (m : Record.metric) ->
        Printf.printf "%-28s %18.6f %s\n" m.Record.name m.Record.value m.Record.unit)
      metrics;
    Option.iter
      (fun baseline ->
        match Record.comparable ~baseline ~current:record with
        | Error msg -> die 3 msg
        | Ok () ->
          List.iter
            (fun (name, unit, b, c, r) ->
              Printf.printf "compare %-28s %14.6f -> %14.6f %s (x%.4f)\n" name b c
                unit r)
            (Record.ratios ~baseline ~current:record))
      baseline;
    Option.iter
      (fun path ->
        let oc = open_out_bin path in
        output_string oc (Record.to_string record);
        close_out oc)
      out;
    print_endline
      (Record.result_line ~correct:(t.Record.failed = 0) ~attempted:t.Record.attempted
         ~failed:t.Record.failed metrics)
  end

let () = main (List.tl (Array.to_list Sys.argv))
