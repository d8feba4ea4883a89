(* The three benchmark workloads, generated from the benchmark seed and
   driven through the simulator's public entry points only: Driver.run
   (closed loop) and Open_loop.run (open loop). Nothing here goes
   through the scenario runner or its cache. *)

module Time = Xmp_engine.Time
module Sim = Xmp_engine.Sim
module Sink = Xmp_telemetry.Sink
module Driver = Xmp_workload.Driver
module Open_loop = Xmp_workload.Open_loop
module Flow_size = Xmp_workload.Flow_size
module Metrics = Xmp_workload.Metrics
module Scheme = Xmp_workload.Scheme
module Network = Xmp_net.Network
module Fat_tree = Xmp_net.Fat_tree
module Queue_disc = Xmp_net.Queue_disc
module Wan = Xmp_net.Wan
module Fat_tree_sharded = Xmp_net.Fat_tree_sharded
module Units = Xmp_net.Units
module Distribution = Xmp_stats.Distribution

type t = Longflow | Websearch | Wan_bdp

let all = [ Longflow; Websearch; Wan_bdp ]

let name = function
  | Longflow -> "dc.longflow"
  | Websearch -> "dc.websearch"
  | Wan_bdp -> "wan.bdp"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* Paper sizes scaled by 1/32, in 1460-byte segments (Driver's
   convention). *)
let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

(* ---- dc.longflow: XMP-2 permutation long flows, single-Sim k=4 ---- *)

let longflow_horizon = Time.ms 50

let longflow_config ~seed ~telemetry =
  {
    Driver.default_config with
    Driver.k = 4;
    seed;
    horizon = longflow_horizon;
    assignment = Driver.Uniform (Scheme.xmp 2);
    pattern =
      Driver.Permutation
        { min_segments = segs_of_mb 8.; max_segments = segs_of_mb 64. };
    keep_flows = true;
    telemetry;
  }

(* ---- wan.bdp: long SACK flows over one 1 Gbps / 40 ms trunk ---- *)

let wan_dc = Wan.Fat_tree_dc { k = 4 }

let wan_rate = Units.gbps 1.

let wan_delay = Time.ms 40

let wan_beta = 4

(* Eq. 1 at the trunk's BDP: K >= BDP/(beta-1), BDP in 1500-byte
   packets over the propagation round trip. *)
let bdp_packets =
  int_of_float
    (Float.ceil
       (Units.bytes_per_sec wan_rate
       *. (float_of_int (2 * wan_delay) /. 1e9)
       /. 1500.))

let eq1_k = (bdp_packets + wan_beta - 2) / (wan_beta - 1)

let wan_trunks =
  [
    Wan.trunk ~rate:wan_rate ~delay:wan_delay
      ~queue_pkts:(bdp_packets + (2 * eq1_k) + 64)
      ~marking_threshold:eq1_k ();
  ]

(* intra-DC queues are deep and never mark: the trunk's K is the only
   congestion signal, and every queue ring is sized at set-up *)
let wan_deep_queue = 40_000

let wan_rto_min =
  Stdlib.max (Time.ms 1)
    (Wan.max_rtt_no_queue_of ~left:wan_dc ~right:wan_dc ~trunks:wan_trunks / 2)

let wan_horizon = Time.ms 2000

let wan_config ~seed ~telemetry =
  {
    Driver.default_config with
    Driver.seed;
    topology = Driver.Bridged { left = wan_dc; right = wan_dc; trunks = wan_trunks };
    cross_dc = 1.0;
    horizon = wan_horizon;
    queue_pkts = wan_deep_queue;
    marking_threshold = wan_deep_queue;
    beta = wan_beta;
    rto_min = wan_rto_min;
    sack = true;
    assignment = Driver.Uniform (Scheme.with_rto ~rto_min:wan_rto_min (Scheme.xmp 2));
    (* every host keeps one flow open to a host in the other DC; the
       Pareto sizes let flows finish and restart within the horizon *)
    pattern =
      Driver.Random_pattern
        {
          mean_segments = float_of_int (segs_of_mb 4.);
          cap_segments = float_of_int (segs_of_mb 32.);
          shape = 1.5;
          max_inbound = 4;
        };
    keep_flows = true;
    telemetry;
  }

(* ---- dc.websearch: open-loop Poisson arrivals, pod-sharded k=8 ---- *)

let websearch_domains = 2

let websearch_config ~seed =
  {
    Open_loop.default_config with
    Open_loop.k = 8;
    seed;
    scheme = Scheme.xmp 2;
    sizes = Flow_size.scaled Flow_size.web_search (1. /. 32.);
    load = 0.7;
    horizon = Time.ms 30;
    drain = Time.ms 30;
  }

(* ---- replications ---- *)

(* One measured run executes [replications w] independent replications
   whose seeds derive from the benchmark seed, and pools the modelled
   metrics over every flow of all of them: one replication's outcome
   (and work) swings with its permutation and size draws, the pool much
   less. Every repeat of a run executes the same replications. *)
let replications = function Longflow -> 24 | Websearch -> 2 | Wan_bdp -> 4

let sub_seeds w ~seed = List.init (replications w) (fun i -> (seed * 1000) + i)

(* ---- one run ---- *)

type knobs = {
  telemetry : Sink.t;
  domains : int;  (** dc.websearch only *)
  set_up_only : bool;
      (** build the fabric and flows, run nothing past time 0 *)
}

type outcome = {
  events : int;
  launched : int;
  completed : int;
  truncated : int;
  mail : int;
  goodputs : float array;  (** bps, every recorded flow *)
  slowdowns : float array;  (** FCT / ideal FCT, every completed flow *)
  sim_stats : Sim.stats option;  (** single-Sim workloads *)
}

(* FCT slowdown of closed-loop flows. The Driver files per-flow records
   but no slowdowns, so the ideal (line-rate transfer plus zero-load
   RTT, as the Open_loop generator defines it) is computed here; a
   cross-DC pair takes the zero-load RTT of a flat WAN build. Every host
   link runs at 1 Gbps. *)
let line_rate = Units.gbps 1.

let wan_geometry =
  lazy
    (Wan.create_flat
       ~net:(Network.create (Sim.create ()))
       ~left:wan_dc ~right:wan_dc ~trunks:wan_trunks
       ~disc:(fun () ->
         Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:1)
       ())

let zero_load_rtt_s (r : Metrics.flow_record) =
  Time.to_float_s
    (match r.Metrics.locality with
    | Fat_tree.Inter_dc ->
      Wan.zero_load_rtt (Lazy.force wan_geometry) ~src:r.Metrics.src
        ~dst:r.Metrics.dst
    | locality ->
      Open_loop.ideal_fct Open_loop.default_config ~locality ~size_segments:0)

(* Every recorded flow counts: a completed flow by its FCT, a flow the
   horizon cut off by the time it took to deliver what it delivered,
   against the ideal for those bytes. Counting completions alone would
   keep just the flows short enough to finish. *)
let closed_loop_slowdowns (m : Metrics.t) =
  let d = Distribution.create () in
  List.iter
    (fun (r : Metrics.flow_record) ->
      let elapsed =
        Time.to_float_s (Time.sub r.Metrics.finished r.Metrics.started)
      in
      let bits =
        if r.Metrics.truncated then r.Metrics.goodput_bps *. elapsed
        else float_of_int r.Metrics.size_segments *. 1460. *. 8.
      in
      let ideal = zero_load_rtt_s r +. (bits /. float_of_int line_rate) in
      if ideal > 0. then Distribution.add d (elapsed /. ideal))
    (List.rev (Metrics.completed_flows m));
  d

let of_driver (r : Driver.result) =
  let m = r.Driver.metrics in
  let truncated = Metrics.n_truncated_flows m in
  let completed = Metrics.n_completed_flows m - truncated in
  {
    events = r.Driver.events;
    (* the Driver files every flow it launched that ran long enough to
       measure; it reports no separate launch count *)
    launched = completed + truncated;
    completed;
    truncated;
    mail = 0;
    goodputs = Distribution.values (Metrics.goodputs m);
    slowdowns = Distribution.values (closed_loop_slowdowns m);
    sim_stats = Some (Sim.stats (Network.sim r.Driver.net));
  }

let of_open_loop (r : Open_loop.result) =
  let m = r.Open_loop.metrics in
  {
    events = r.Open_loop.events;
    launched = r.Open_loop.launched;
    completed = r.Open_loop.completed;
    truncated = r.Open_loop.truncated;
    mail = r.Open_loop.mail;
    goodputs = Distribution.values (Metrics.goodputs m);
    slowdowns =
      (match List.assoc_opt "all" (Metrics.fct_slowdowns m) with
      | Some d -> Distribution.values d
      | None -> [||]);
    sim_stats = None;
  }

let run ~knobs w ~seed =
  match w with
  | Longflow ->
    let cfg = longflow_config ~seed ~telemetry:knobs.telemetry in
    let cfg = if knobs.set_up_only then { cfg with Driver.horizon = Time.zero } else cfg in
    of_driver (Driver.run cfg)
  | Wan_bdp ->
    let cfg = wan_config ~seed ~telemetry:knobs.telemetry in
    let cfg = if knobs.set_up_only then { cfg with Driver.horizon = Time.zero } else cfg in
    of_driver (Driver.run cfg)
  | Websearch ->
    let config = websearch_config ~seed in
    let config =
      if knobs.set_up_only then
        { config with Open_loop.horizon = Time.zero; drain = Time.zero }
      else config
    in
    of_open_loop (Open_loop.run ~config ~domains:knobs.domains ())

(* Everything a run's modelled outcome feeds through. Host timings are
   excluded: this digest is what must be identical across telemetry
   on/off, invariants on/off and domain counts. *)
let digest o =
  let floats a =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%d/%d/%d|%d|%s|%s" o.events o.launched o.completed
          o.truncated o.mail (floats o.goodputs) (floats o.slowdowns)))

(* The work a run of [w] at [seed] does, printed for the label digest:
   two records under one workload name compare only if this matches. *)
let config_digest w ~seed =
  let driver (c : Driver.config) =
    Printf.sprintf "k=%d horizon=%d q=%d K=%d beta=%d rto=%d sack=%b %s"
      c.Driver.k c.Driver.horizon c.Driver.queue_pkts
      c.Driver.marking_threshold c.Driver.beta c.Driver.rto_min c.Driver.sack
      (match c.Driver.assignment with
      | Driver.Uniform s -> Scheme.name s
      | Driver.Split (a, b) -> Scheme.name a ^ "+" ^ Scheme.name b)
  in
  let config seed =
    match w with
    | Longflow -> driver (longflow_config ~seed ~telemetry:Sink.null)
    | Wan_bdp -> driver (wan_config ~seed ~telemetry:Sink.null)
    | Websearch ->
      let c = websearch_config ~seed in
      Printf.sprintf "k=%d %s %s load=%g horizon=%d drain=%d domains=%d"
        c.Open_loop.k (Scheme.name c.Open_loop.scheme)
        (Flow_size.name c.Open_loop.sizes) c.Open_loop.load
        c.Open_loop.horizon c.Open_loop.drain websearch_domains
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (name w :: List.map (fun s -> Printf.sprintf "seed=%d %s" s (config s))
             (sub_seeds w ~seed))))

(* ---- the fabric alone, for per-layer replays ---- *)

let disc ~queue_pkts ~marking () =
  Queue_disc.create ~policy:(Queue_disc.Threshold_mark marking)
    ~capacity_pkts:queue_pkts

let fresh_net () = Network.create (Sim.create ())

(* the workload's topology builder, with its queue configuration *)
let build_fabric w () =
  match w with
  | Longflow ->
    let c = longflow_config ~seed:1 ~telemetry:Sink.null in
    ignore
      (Fat_tree.create ~net:(fresh_net ()) ~k:c.Driver.k
         ~disc:(disc ~queue_pkts:c.Driver.queue_pkts ~marking:c.Driver.marking_threshold)
         ())
  | Websearch ->
    let c = websearch_config ~seed:1 in
    ignore
      (Fat_tree_sharded.create ~k:c.Open_loop.k
         ~disc:(disc ~queue_pkts:c.Open_loop.queue_pkts ~marking:c.Open_loop.marking_threshold)
         ())
  | Wan_bdp ->
    ignore
      (Wan.create_flat ~net:(fresh_net ()) ~left:wan_dc ~right:wan_dc
         ~trunks:wan_trunks
         ~disc:(disc ~queue_pkts:wan_deep_queue ~marking:wan_deep_queue)
         ())

(* the workload's portal layout with no traffic, for the barrier
   replay: the sharded form of its fabric *)
let idle_cluster w =
  let disc = disc ~queue_pkts:100 ~marking:10 in
  match w with
  | Longflow -> Fat_tree_sharded.cluster (Fat_tree_sharded.create ~k:4 ~disc ())
  | Websearch ->
    Fat_tree_sharded.cluster (Fat_tree_sharded.create ~k:8 ~disc ())
  | Wan_bdp ->
    Wan.cluster (Wan.create ~left:wan_dc ~right:wan_dc ~trunks:wan_trunks ~disc ())
