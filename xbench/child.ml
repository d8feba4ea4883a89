(* One measured run of a workload in a fresh process, so the process
   high-water mark and the GC counters belong to this run alone. It runs
   the replications, then times the set-up alone several times, and
   prints "key value" lines for the parent to collect. *)

module Sim = Xmp_engine.Sim
module Sink = Xmp_telemetry.Sink
module Registry = Xmp_telemetry.Registry
module Metric = Xmp_telemetry.Metric
module Invariant = Xmp_check.Invariant
module Packet = Xmp_net.Packet
module Distribution = Xmp_stats.Distribution

type opts = {
  workload : Workloads.t;
  seed : int;
  traced : bool;
      (** an enabled telemetry sink on every Driver run, and the
          invariant checker's tally armed *)
  invariants : bool;
  domains : int;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* the process high-water mark, from /proc (0 where it is absent) *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB"
            (fun kb -> kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* a telemetry counter (or histogram sample count) summed over every
   label set and every sink *)
let sum_metric sinks key =
  let matches k =
    String.equal k key
    || String.length k > String.length key
       && String.sub k 0 (String.length key + 1) = key ^ "{"
  in
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (k, m) ->
          if not (matches k) then acc
          else
            match m with
            | Registry.Counter c -> acc + Metric.Counter.value c
            | Registry.Histogram h -> acc + Metric.Histogram.count h
            | Registry.Gauge _ | Registry.Series _ -> acc)
        acc
        (Registry.to_alist (Sink.registry s)))
    0 sinks

(* Spans around the calls this file makes into the simulator:
   (name, start, stop, parent), seconds since the run began. *)
type span = { name : string; start : float; stop : float; parent : string }

let spans : span list ref = ref []

let origin = Unix.gettimeofday ()

let span ~parent name f =
  let start = Unix.gettimeofday () -. origin in
  let r = f () in
  spans := { name; start; stop = Unix.gettimeofday () -. origin; parent } :: !spans;
  r

let emit key fmt = Printf.ksprintf (fun v -> Printf.printf "%s %s\n" key v) fmt

(* the run's outcome, pooled over its replications, as "key value" lines *)
let report ~domains ~timed ~wall ~cpu ~setups ~rss ~checks ~g0 ~g1 ~sinks =
  let outcomes = List.map (fun (x, _, _) -> x) timed in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 outcomes in
  let pooled f =
    let d = Distribution.create () in
    List.iter (fun x -> Distribution.add_list d (Array.to_list (f x))) outcomes;
    d
  in
  let goodputs = pooled (fun x -> x.Workloads.goodputs) in
  let slowdowns = pooled (fun x -> x.Workloads.slowdowns) in
  let pct d p = if Distribution.is_empty d then 0. else Distribution.percentile d p in
  let stats f =
    List.fold_left
      (fun acc x ->
        match x.Workloads.sim_stats with Some s -> acc + f s | None -> acc)
      0 outcomes
  in
  let events = sum (fun x -> x.Workloads.events) in
  let column f = String.concat "," (List.map (fun r -> Printf.sprintf "%.9f" (f r)) timed) in
  emit "wall_s" "%.9f" wall;
  emit "cpu_s" "%.9f" cpu;
  emit "replication_walls" "%s" (column (fun (_, w, _) -> w));
  emit "replication_cpus" "%s" (column (fun (_, _, c) -> c));
  emit "setup_walls" "%s"
    (String.concat "," (List.map (fun (w, _, _) -> Printf.sprintf "%.9f" w) setups));
  emit "setup_cpus" "%s"
    (String.concat "," (List.map (fun (_, c, _) -> Printf.sprintf "%.9f" c) setups));
  emit "setup_major_words" "%.0f"
    (match setups with (_, _, w) :: _ -> w | [] -> 0.);
  emit "peak_rss_mb" "%.3f" rss;
  emit "events" "%d" events;
  emit "minor_words" "%.0f" (g1.Gc.minor_words -. g0.Gc.minor_words);
  emit "major_words" "%.0f" (g1.Gc.major_words -. g0.Gc.major_words);
  emit "major_collections" "%d" (g1.Gc.major_collections - g0.Gc.major_collections);
  emit "digest" "%s"
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map Workloads.digest outcomes))));
  emit "launched" "%d" (sum (fun x -> x.Workloads.launched));
  emit "completed" "%d" (sum (fun x -> x.Workloads.completed));
  emit "truncated" "%d" (sum (fun x -> x.Workloads.truncated));
  emit "conserved" "%b"
    (List.for_all
       (fun x ->
         x.Workloads.launched = x.Workloads.completed + x.Workloads.truncated
         && x.Workloads.launched > 0)
       outcomes);
  emit "mail" "%d" (sum (fun x -> x.Workloads.mail));
  emit "domains" "%d" domains;
  emit "goodput_mbps" "%.17g"
    (if Distribution.is_empty goodputs then 0. else Distribution.mean goodputs /. 1e6);
  emit "fct_p50_slowdown" "%.17g" (pct slowdowns 50.);
  emit "fct_p99_slowdown" "%.17g" (pct slowdowns 99.);
  emit "fct_samples" "%d" (Distribution.count slowdowns);
  emit "heap_peak" "%d" (Sim.global_heap_peak ());
  emit "cancelled_skipped" "%d" (stats (fun s -> s.Sim.cancelled_skipped));
  emit "rebuilds" "%d" (stats (fun s -> s.Sim.rebuilds));
  emit "pool_created" "%d" (Packet.pool_created ());
  emit "checks_run" "%d" checks;
  List.iter
    (fun (key, metric) -> emit key "%d" (sum_metric sinks metric))
    [
      ("net_enqueued", "net/enqueued");
      ("net_marked", "net/marked");
      ("net_dropped", "net/dropped");
      ("net_tx_packets", "net/tx_packets");
      ("retransmits", "transport/retransmits");
      ("timeouts", "transport/timeouts");
      ("rtt_samples", "transport/rtt_us");
    ]

let run o =
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  Invariant.set_enabled o.invariants;
  if o.traced then Invariant.reset_counters ();
  let sinks = ref [] in
  let knobs set_up_only =
    let telemetry =
      if o.traced && not set_up_only then begin
        let s = Sink.create () in
        sinks := s :: !sinks;
        s
      end
      else Sink.null
    in
    { Workloads.telemetry; domains = o.domains; set_up_only }
  in
  let seeds = Workloads.sub_seeds o.workload ~seed:o.seed in
  Sim.reset_global_heap_peak ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () and t0 = Unix.gettimeofday () in
  let timed =
    span ~parent:"" "run" (fun () ->
        List.mapi
          (fun i seed ->
            let c = cpu_s () and t = Unix.gettimeofday () in
            let x =
              span ~parent:"run" (Printf.sprintf "replication.%d" i) (fun () ->
                  Workloads.run ~knobs:(knobs false) o.workload ~seed)
            in
            (x, Unix.gettimeofday () -. t, cpu_s () -. c))
          seeds)
  in
  let wall = Unix.gettimeofday () -. t0 and cpu = cpu_s () -. c0 in
  let g1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let checks = if o.traced then Invariant.checks_run () else 0 in
  let set_up () =
    let g = Gc.quick_stat () in
    let c = cpu_s () and t = Unix.gettimeofday () in
    ignore (Workloads.run ~knobs:(knobs true) o.workload ~seed:(List.hd seeds));
    ( Unix.gettimeofday () -. t,
      cpu_s () -. c,
      (Gc.quick_stat ()).Gc.major_words -. g.Gc.major_words )
  in
  (* at least 3 builds, then more until 0.5 s or 200 builds *)
  let setups =
    span ~parent:"" "setup" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let rec more acc n =
      if n >= 200 || (n >= 3 && Unix.gettimeofday () -. t0 >= 0.5) then
        List.rev acc
      else more (set_up () :: acc) (n + 1)
    in
    more [] 0
  in
  span ~parent:"" "report" (fun () ->
      report
        ~domains:(match o.workload with Workloads.Websearch -> o.domains | _ -> 1)
        ~timed ~wall ~cpu ~setups ~rss ~checks ~g0 ~g1 ~sinks:!sinks);
  emit "spans" "%s"
    (String.concat ";"
       (List.rev_map
          (fun sp -> Printf.sprintf "%s@%.6f@%.6f@%s" sp.name sp.start sp.stop sp.parent)
          !spans))
