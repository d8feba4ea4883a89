(* Per-layer work timed from outside: each layer's public functions are
   replayed in isolation, at the sizes a workload drives them at, and
   reported as nanoseconds per operation (median of five rounds after a
   warm-up round). The traced run multiplies these by the workload's
   deterministic counts to attribute its wall time. *)

module Time = Xmp_engine.Time
module Sim = Xmp_engine.Sim
module Event_queue = Xmp_engine.Event_queue
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Network = Xmp_net.Network
module Fat_tree = Xmp_net.Fat_tree
module Shard = Xmp_net.Shard
module Seqset = Xmp_transport.Seqset
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Trash = Xmp_core.Trash
module Flow_size = Xmp_workload.Flow_size
module Arrivals = Xmp_workload.Arrivals
module Metrics = Xmp_workload.Metrics
module Open_loop = Xmp_workload.Open_loop

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rounds = 5

let ns_per_op ~ops f =
  let round () =
    let t0 = Unix.gettimeofday () in
    for i = 1 to ops do
      f i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops
  in
  ignore (round ());
  median (List.init rounds (fun _ -> round ()))

(* engine: one add + one pop on a heap holding [depth] events, the
   dispatcher's per-event heap work *)
let queue_op_ns ~depth =
  let q = Event_queue.create () in
  Event_queue.set_dummy q ();
  let rng = Random.State.make [| 17 |] in
  let seq = ref 0 in
  let add at =
    Event_queue.add q ~time:at ~seq:!seq ();
    incr seq
  in
  for _ = 1 to Stdlib.max 1 depth do
    add (Random.State.int rng 1_000_000)
  done;
  ns_per_op ~ops:200_000 (fun _ ->
      let now = Event_queue.top_time q in
      Event_queue.pop_payload q;
      add (now + 1 + Random.State.int rng 1_000_000))

let packet ~seq =
  Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect:true
    ~cwr:false ~ts:Time.zero

(* net: a pooled data packet acquired and released *)
let packet_ns () =
  ns_per_op ~ops:500_000 (fun i -> Packet.release (packet ~seq:i))

(* net: one enqueue + one dequeue on a marking queue held above its
   threshold, so the mark path runs too *)
let queue_disc_ns () =
  let q =
    Queue_disc.create ~policy:(Queue_disc.Threshold_mark 10) ~capacity_pkts:100
  in
  for i = 1 to 20 do
    ignore (Queue_disc.enqueue q (packet ~seq:i))
  done;
  let r =
    ns_per_op ~ops:500_000 (fun _ ->
        match Queue_disc.dequeue q with
        | Some p -> ignore (Queue_disc.enqueue q p)
        | None -> ())
  in
  let rec drain () =
    match Queue_disc.dequeue q with
    | Some p ->
      Packet.release p;
      drain ()
    | None -> ()
  in
  drain ();
  r

(* transport: a SACK scoreboard sliding over a [window]-segment flight
   with a hole every quarter window (a few blocks, as after a loss
   burst): one SACKed arrival and one cumulative advance per op *)
let seqset_ns ~window =
  let gap = Stdlib.max 2 (window / 4) in
  let s = ref Seqset.empty in
  let top = ref 0 in
  let arrive () =
    if !top mod gap <> 0 then s := Seqset.add !top !s;
    incr top
  in
  for _ = 1 to window do
    arrive ()
  done;
  ns_per_op ~ops:200_000 (fun _ ->
      arrive ();
      s := Seqset.remove_below (!top - window) !s)

(* core: TraSh's Eq. 9 gain *)
let trash_ns () =
  let acc = ref 0. in
  let r =
    ns_per_op ~ops:1_000_000 (fun i ->
        acc :=
          !acc
          +. Trash.delta
               ~own_cwnd:(float_of_int (1 + (i land 63)))
               ~total_rate:(1000. +. float_of_int (i land 1023))
               ~min_rtt_s:1e-4)
  in
  ignore (Sys.opaque_identity !acc);
  r

(* mptcp: create an XMP-2 flow on a built k=4 fabric, then tear it down *)
let flow_setup_ns () =
  let net = Network.create (Sim.create ()) in
  let ft =
    Fat_tree.create ~net ~k:4
      ~disc:(fun () ->
        Queue_disc.create ~policy:(Queue_disc.Threshold_mark 10)
          ~capacity_pkts:100)
      ()
  in
  let n = Fat_tree.n_hosts ft in
  let flow = ref 0 in
  ns_per_op ~ops:2_000 (fun i ->
      incr flow;
      let src = i mod n in
      let dst = (src + 1 + (i mod (n - 1))) mod n in
      let f =
        Mptcp_flow.create ~net ~flow:!flow ~src ~dst ~paths:[ 0; 1 ]
          ~coupling:(Trash.coupling ()) ~size_segments:1 ~start_at:(Time.sec 1.)
          ()
      in
      Mptcp_flow.stop f;
      Mptcp_flow.close_receivers f)

(* workload: per launched flow, one Poisson arrival popped and one size
   drawn from the web-search CDF *)
let sample_ns (config : Open_loop.config) =
  let hosts = config.Open_loop.k * config.Open_loop.k * config.Open_loop.k / 4 in
  let arrivals =
    Arrivals.create ~seed:config.Open_loop.seed ~hosts
      ~rate:(Open_loop.arrival_rate config)
  in
  let sizes = config.Open_loop.sizes in
  let drawn = ref 0 in
  let target = ref Time.zero in
  let t0 = Unix.gettimeofday () in
  while !drawn < 200_000 do
    target := Time.add !target (Time.ms 1);
    ignore
      (Arrivals.until arrivals ~target:!target ~f:(fun ~host:_ ~at:_ ~rng ->
           ignore (Flow_size.sample sizes rng);
           incr drawn))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !drawn

let record_fct_ns () =
  let m = Metrics.create ~rtt_subsample:64 () in
  ns_per_op ~ops:200_000 (fun i ->
      Metrics.record_fct m ~size_segments:(1 + (i land 4095))
        ~fct:(Time.us (100 + (i land 1023)))
        ~ideal:(Time.us 100))

(* stats: the FCT report (per-bucket summary and percentiles) over
   [samples] recorded flows *)
let report_s ~samples =
  let m = Metrics.create ~rtt_subsample:64 () in
  for i = 1 to Stdlib.max 1 samples do
    Metrics.record_fct m
      ~size_segments:(1 + (i * 7919 land 8191))
      ~fct:(Time.us (100 + (i * 104729 land 65535)))
      ~ideal:(Time.us 100)
  done;
  median
    (List.init rounds (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (Metrics.fct_summary_csv m));
         ignore (Sys.opaque_identity (Metrics.fct_cdf_csv m));
         Unix.gettimeofday () -. t0))

(* shard: the cost of one epoch barrier, from [Shard.run] over a fresh
   idle cluster forced through [epochs] barriers *)
let barrier_ns ~make ~domains ~epochs =
  let run () =
    let cluster = make () in
    let until = Time.mul (Shard.epoch_delta cluster) epochs in
    let t0 = Unix.gettimeofday () in
    Shard.run ~domains ~until ~on_epoch:(fun ~target -> Time.add target 1) cluster;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int epochs
  in
  ignore (run ());
  median (List.init 3 (fun _ -> run ()))

(* net: the topology builder alone — seconds and words allocated *)
let build ~f =
  (* a minor collection first, so the sampled counters are current *)
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let one () =
    let w0 = words () in
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    (dt, words () -. w0)
  in
  let runs = List.init 3 (fun _ -> one ()) in
  (median (List.map fst runs), snd (List.hd runs))
