module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

type locality = Inner_rack | Inter_rack | Inter_pod | Inter_dc

let locality_name = function
  | Inner_rack -> "Inner-Rack"
  | Inter_rack -> "Inter-Rack"
  | Inter_pod -> "Inter-Pod"
  | Inter_dc -> "Inter-DC"

type dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
}

let line_rate = Units.gbps 1.

(* §5.2.1's one-way layer delays. Leaf-spine host links take the rack
   delay and its spine layer sits at aggregation depth. *)
let rack_delay = Time.us 20
let agg_delay = Time.us 30
let core_delay = Time.us 40
let spine_delay = Time.us 30

type cut = One_net of Network.t | Per_pod of Sim.config | Per_dc of Sim.config

(* ---- geometry from a spec alone -------------------------------------- *)

let check_spec ~who = function
  | Fat_tree_dc { k } ->
    if k < 2 || k mod 2 <> 0 then invalid_arg (who ^ ": fat-tree k")
  | Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
    if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
      invalid_arg (who ^ ": leaf-spine shape")

let dc_n_hosts = function
  | Fat_tree_dc { k } -> k * (k / 2) * (k / 2)
  | Leaf_spine_dc { leaves; hosts_per_leaf; _ } -> leaves * hosts_per_leaf

let dc_n_switches = function
  | Fat_tree_dc { k } -> (2 * k * (k / 2)) + (k / 2 * (k / 2))
  | Leaf_spine_dc { leaves; spines; _ } -> leaves + spines

(* Exit-layer width (cores or spines): the selector stratum an ascent
   consumes, so a trunk index is read from [path / n_exits]. *)
let n_exits = function
  | Fat_tree_dc { k } -> k / 2 * (k / 2)
  | Leaf_spine_dc { spines; _ } -> spines

(* Of DC-local host indices. *)
let dc_locality spec src dst =
  match spec with
  | Fat_tree_dc { k } ->
    let half = k / 2 in
    if src / (half * half) <> dst / (half * half) then Inter_pod
    else if src / half <> dst / half then Inter_rack
    else Inner_rack
  | Leaf_spine_dc { hosts_per_leaf; _ } ->
    if src / hosts_per_leaf = dst / hosts_per_leaf then Inner_rack
    else Inter_rack

let dc_paths spec loc =
  match (spec, loc) with
  | _, Inner_rack -> 1
  | Fat_tree_dc { k }, Inter_rack -> k / 2
  | _, Inter_rack | _, Inter_pod -> n_exits spec
  | _, Inter_dc -> invalid_arg "Fabric.n_paths: Inter_dc"

(* One-way propagation from a host up to the layer where a [loc] path
   turns back down (the exit layer for cross-DC paths). *)
let ascent spec loc =
  match (spec, loc) with
  | _, Inner_rack -> rack_delay
  | Fat_tree_dc _, Inter_rack -> Time.add rack_delay agg_delay
  | Fat_tree_dc _, (Inter_pod | Inter_dc) ->
    Time.add rack_delay (Time.add agg_delay core_delay)
  | Leaf_spine_dc _, _ -> Time.add rack_delay spine_delay

(* The exit-to-border hop takes the exit layer's delay. *)
let attach = function
  | Fat_tree_dc _ -> core_delay
  | Leaf_spine_dc _ -> spine_delay

let to_border spec = Time.add (ascent spec Inter_dc) (attach spec)

let dc_zero_load_rtt spec loc =
  if loc = Inter_dc then
    invalid_arg
      "Fabric.dc_zero_load_rtt: Inter_dc depends on the trunk delay";
  (* up and down, there and back *)
  Time.mul (ascent spec loc) 4

let cross_dc_rtt ~src ~dst trunk_delay =
  Time.mul (Time.add (to_border src) (Time.add trunk_delay (to_border dst))) 2

let check_shape ~dcs ~trunks =
  match (dcs, trunks) with
  | [ _ ], [] | [ _; _ ], _ :: _ -> ()
  | _ -> invalid_arg "Fabric: one DC without trunks, or two DCs with trunks"

let max_rtt_of ~dcs ~trunks =
  check_shape ~dcs ~trunks;
  match (dcs, trunks) with
  | [ left; right ], _ ->
    let slowest =
      List.fold_left
        (fun acc tr -> Time.max acc tr.trunk_delay)
        Time.zero trunks
    in
    cross_dc_rtt ~src:left ~dst:right slowest
  | _ ->
    List.fold_left
      (fun acc spec -> Time.max acc (dc_zero_load_rtt spec Inter_pod))
      Time.zero dcs

(* ---- construction ---------------------------------------------------- *)

(* Where one DC lands: the shard of each pod's hosts and pod switches and
   of each exit switch (in selector order), the node ids of its first
   host and first switch, its name prefix, and how many border routers
   its exit layer routes remote traffic to. Nodes travel as
   [(shard, node)] so wiring can tell a local link from a portal pair. *)
type placement = {
  pod_shard : int -> int;
  exit_shard : int -> int;
  host_base : int;
  switch_base : int;
  prefix : string;
  n_borders : int;
}

let host_route (_ : Packet.t) = 0

(* Fat_tree port map. Host: uplink 0. Edge: hosts 0..half-1, aggs
   half+a. Aggregation: edges 0..half-1, cores half+c. Core: pods
   0..k-1, border j at k+j. Remote destinations ascend like inter-pod
   traffic and pick their trunk from the selector stratum above the
   intra-DC diversity. *)
let build_fat_tree ~add ~wire pl ~k ~rate ~disc =
  let half = k / 2 in
  let per_pod = half * half in
  let n = k * per_pod in
  let hosts =
    Array.init n (fun i ->
        add Node.Host ~shard:(pl.pod_shard (i / per_pod)) ~id:(pl.host_base + i)
          (Printf.sprintf "%sh%d.%d.%d" pl.prefix (i / per_pod)
             (i mod per_pod / half) (i mod half)))
  in
  let switch ~shard offset name =
    add Node.Switch ~shard ~id:(pl.switch_base + offset) (pl.prefix ^ name)
  in
  let edges =
    Array.init k (fun pod ->
        Array.init half (fun e ->
            switch ~shard:(pl.pod_shard pod) ((pod * half) + e)
              (Printf.sprintf "e%d.%d" pod e)))
  in
  let aggs =
    Array.init k (fun pod ->
        Array.init half (fun a ->
            switch ~shard:(pl.pod_shard pod)
              ((k * half) + (pod * half) + a)
              (Printf.sprintf "a%d.%d" pod a)))
  in
  let cores =
    Array.init per_pod (fun i ->
        switch ~shard:(pl.exit_shard i) ((2 * k * half) + i)
          (Printf.sprintf "c%d.%d" (i / half) (i mod half)))
  in
  Array.iteri
    (fun i h ->
      wire ~tag:"rack" ~rate ~delay:rack_delay ~disc h
        edges.(i / per_pod).(i mod per_pod / half))
    hosts;
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        wire ~tag:"aggregation" ~rate ~delay:agg_delay ~disc
          edges.(pod).(e)
          aggs.(pod).(a)
      done
    done
  done;
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        wire ~tag:"core" ~rate ~delay:core_delay ~disc
          aggs.(pod).(a)
          cores.((a * half) + c)
      done
    done
  done;
  let hb = pl.host_base and n_borders = pl.n_borders in
  let local id = id >= hb && id < hb + n in
  let pod_of id = (id - hb) / per_pod in
  let edge_of id = (id - hb) mod per_pod / half in
  Array.iter (fun (_, h) -> Node.set_route h host_route) hosts;
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      Node.set_route
        (snd edges.(pod).(e))
        (fun p ->
          let dst = Packet.dst p in
          if local dst && pod_of dst = pod then
            if edge_of dst = e then (dst - hb) mod half
            else half + (Packet.path p mod half)
          else half + (Packet.path p / half mod half))
    done;
    for a = 0 to half - 1 do
      Node.set_route
        (snd aggs.(pod).(a))
        (fun p ->
          let dst = Packet.dst p in
          if local dst && pod_of dst = pod then edge_of dst
          else half + (Packet.path p mod half))
    done
  done;
  Array.iter
    (fun (_, core) ->
      Node.set_route core (fun p ->
          let dst = Packet.dst p in
          if local dst then pod_of dst
          else k + (Packet.path p / per_pod mod n_borders)))
    cores;
  cores

(* Leaf-spine port map. Leaf: hosts 0..hosts_per_leaf-1, spines after.
   Spine: leaves 0..leaves-1, border j at leaves+j. *)
let build_leaf_spine ~add ~wire pl ~leaves ~spines ~hosts_per_leaf ~rate
    ~spine_rate ~disc =
  let n = leaves * hosts_per_leaf in
  let shard = pl.pod_shard 0 in
  let hosts =
    Array.init n (fun i ->
        add Node.Host ~shard ~id:(pl.host_base + i)
          (Printf.sprintf "%sh%d.%d" pl.prefix (i / hosts_per_leaf)
             (i mod hosts_per_leaf)))
  in
  let leaf_sw =
    Array.init leaves (fun l ->
        add Node.Switch ~shard ~id:(pl.switch_base + l)
          (Printf.sprintf "%sleaf%d" pl.prefix l))
  in
  let spine_sw =
    Array.init spines (fun s ->
        add Node.Switch ~shard:(pl.exit_shard s)
          ~id:(pl.switch_base + leaves + s)
          (Printf.sprintf "%sspine%d" pl.prefix s))
  in
  Array.iteri
    (fun i h ->
      wire ~tag:"leaf" ~rate ~delay:rack_delay ~disc h
        leaf_sw.(i / hosts_per_leaf))
    hosts;
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          wire ~tag:"spine" ~rate:spine_rate ~delay:spine_delay ~disc leaf
            spine)
        spine_sw)
    leaf_sw;
  let hb = pl.host_base and n_borders = pl.n_borders in
  let local id = id >= hb && id < hb + n in
  let leaf_of id = (id - hb) / hosts_per_leaf in
  Array.iter (fun (_, h) -> Node.set_route h host_route) hosts;
  Array.iteri
    (fun l (_, sw) ->
      Node.set_route sw (fun p ->
          let dst = Packet.dst p in
          if local dst && leaf_of dst = l then (dst - hb) mod hosts_per_leaf
          else hosts_per_leaf + (Packet.path p mod spines)))
    leaf_sw;
  Array.iter
    (fun (_, sw) ->
      Node.set_route sw (fun p ->
          let dst = Packet.dst p in
          if local dst then leaf_of dst
          else leaves + (Packet.path p / spines mod n_borders)))
    spine_sw;
  spine_sw

(* Border router: ports 0..n_exits-1 down to the exit switches (in
   selector order), port n_exits out to its trunk. *)
let border_route ~host_base ~n ~n_exits p =
  let dst = Packet.dst p in
  if dst >= host_base && dst < host_base + n then Packet.path p mod n_exits
  else n_exits

let trunk_disc tr () =
  let policy =
    match tr.trunk_marking_threshold with
    | Some k -> Queue_disc.Threshold_mark k
    | None -> Queue_disc.Droptail
  in
  Queue_disc.create ~policy ~capacity_pkts:tr.trunk_queue_pkts

type backend = Net of Network.t | Cluster of Shard.t

type t = {
  backend : backend;
  specs : dc_spec array;
  bases : int array;  (* host index of each DC's first host *)
  trunks : trunk array;
  id_base : int;
  n_hosts : int;
  shard_of : int -> int;  (* host index -> shard *)
}

let create ~cut ~dcs ~trunks ~rate ~disc () =
  List.iter (check_spec ~who:"Fabric") dcs;
  check_shape ~dcs ~trunks;
  let specs = Array.of_list dcs and trunks = Array.of_list trunks in
  let n_dcs = Array.length specs and n_trunks = Array.length trunks in
  let bases = Array.make n_dcs 0 in
  for d = 1 to n_dcs - 1 do
    bases.(d) <- bases.(d - 1) + dc_n_hosts specs.(d - 1)
  done;
  let n_hosts = bases.(n_dcs - 1) + dc_n_hosts specs.(n_dcs - 1) in
  let dc_of i = if n_dcs > 1 && i >= bases.(1) then 1 else 0 in
  let backend, id_base, pod_shard, exit_shard, shard_of =
    match (cut, specs) with
    | One_net net, _ ->
      (Net net, Network.n_nodes net, (fun _ _ -> 0), (fun _ _ -> 0), fun _ -> 0)
    | Per_dc config, _ ->
      ( Cluster (Shard.create ~config ~shards:n_dcs ()),
        0,
        (fun d _ -> d),
        (fun d _ -> d),
        dc_of )
    | Per_pod config, [| Fat_tree_dc { k } |] ->
      ( Cluster (Shard.create ~config ~shards:k ()),
        0,
        (fun _ pod -> pod),
        (fun _ i -> i mod k),
        fun i -> i / (k / 2 * (k / 2)) )
    | Per_pod _, _ -> invalid_arg "Fabric: a per-pod cut needs one fat-tree DC"
  in
  let net_of s =
    match backend with Net n -> n | Cluster c -> Shard.net c s
  in
  let add kind ~shard ~id name =
    let net = net_of shard in
    ( shard,
      match kind with
      | Node.Host -> Network.add_host_at net ~id ~name
      | Node.Switch -> Network.add_switch_at net ~id ~name )
  in
  let wire ~tag ~rate ~delay ~disc (sa, a) (sb, b) =
    match backend with
    | Cluster c when sa <> sb ->
      let portal src dst =
        ignore (Shard.portal c ~tag ~src ~dst ~rate ~delay ~disc ())
      in
      portal (sa, a) (sb, b);
      portal (sb, b) (sa, a)
    | _ -> ignore (Network.connect (net_of sa) ~tag ~rate ~delay ~disc a b)
  in
  let prefix d = if n_dcs = 1 then "" else Printf.sprintf "d%d." d in
  let spine_rate = if n_dcs = 1 then Units.gbps 10. else rate in
  let cursor = ref (id_base + n_hosts) in
  let exits =
    Array.mapi
      (fun d spec ->
        let pl =
          {
            pod_shard = pod_shard d;
            exit_shard = exit_shard d;
            host_base = id_base + bases.(d);
            switch_base = !cursor;
            prefix = prefix d;
            n_borders = n_trunks;
          }
        in
        cursor := !cursor + dc_n_switches spec;
        match spec with
        | Fat_tree_dc { k } -> build_fat_tree ~add ~wire pl ~k ~rate ~disc
        | Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
          build_leaf_spine ~add ~wire pl ~leaves ~spines ~hosts_per_leaf ~rate
            ~spine_rate ~disc)
      specs
  in
  (* j outer, exits inner: an exit switch's port to border j comes right
     after its standard ports, in j order, as its routing expects *)
  let borders =
    Array.mapi
      (fun d exits ->
        let borders =
          Array.init n_trunks (fun j ->
              let id = !cursor in
              incr cursor;
              add Node.Switch ~shard:(pod_shard d 0) ~id
                (Printf.sprintf "%sbdr%d" (prefix d) j))
        in
        Array.iteri
          (fun j border ->
            Array.iter
              (fun exit ->
                wire ~tag:"border" ~rate:trunks.(j).trunk_rate
                  ~delay:(attach specs.(d)) ~disc exit border)
              exits;
            Node.set_route (snd border)
              (border_route ~host_base:(id_base + bases.(d))
                 ~n:(dc_n_hosts specs.(d)) ~n_exits:(Array.length exits)))
          borders;
        borders)
      exits
  in
  (* trunks last: border j's trunk port is its port n_exits *)
  Array.iteri
    (fun j tr ->
      wire ~tag:"wan" ~rate:tr.trunk_rate ~delay:tr.trunk_delay
        ~disc:(trunk_disc tr) borders.(0).(j) borders.(1).(j))
    trunks;
  { backend; specs; bases; trunks; id_base; n_hosts; shard_of }

(* ---- a built fabric -------------------------------------------------- *)

let n_hosts t = t.n_hosts

let check_host t who i = if i < 0 || i >= t.n_hosts then invalid_arg who

let host_id t i =
  check_host t "Fabric.host_id" i;
  t.id_base + i

let host_index t id =
  check_host t "Fabric.host_index" (id - t.id_base);
  id - t.id_base

let n_dcs t = Array.length t.specs

let dc_spec t d =
  if d < 0 || d >= n_dcs t then invalid_arg "Fabric.dc_spec";
  t.specs.(d)

let dc_hosts t d = (t.bases.(d), dc_n_hosts (dc_spec t d))

let dc_of_host t i =
  check_host t "Fabric.dc_of_host" i;
  if n_dcs t > 1 && i >= t.bases.(1) then 1 else 0

let n_trunks t = Array.length t.trunks

let locality t ~src ~dst =
  let ds = dc_of_host t src and dd = dc_of_host t dst in
  if ds <> dd then Inter_dc
  else dc_locality t.specs.(ds) (src - t.bases.(ds)) (dst - t.bases.(ds))

let n_paths t ~src ~dst =
  let spec = t.specs.(dc_of_host t src) in
  match locality t ~src ~dst with
  | Inter_dc -> n_exits spec * n_trunks t
  | loc -> dc_paths spec loc

let zero_load_rtt t ~src ~dst =
  match locality t ~src ~dst with
  | Inter_dc ->
    let fastest =
      Array.fold_left (fun acc tr -> Time.min acc tr.trunk_delay) Time.infinity
        t.trunks
    in
    cross_dc_rtt
      ~src:t.specs.(dc_of_host t src)
      ~dst:t.specs.(dc_of_host t dst)
      fastest
  | loc -> dc_zero_load_rtt t.specs.(dc_of_host t src) loc

let max_rtt_no_queue t =
  max_rtt_of ~dcs:(Array.to_list t.specs) ~trunks:(Array.to_list t.trunks)

let n_shards t =
  match t.backend with Net _ -> 1 | Cluster c -> Shard.n_shards c

let shard_of_host t i =
  check_host t "Fabric.shard_of_host" i;
  t.shard_of i

let host_net t i =
  match t.backend with
  | Net n ->
    check_host t "Fabric.host_net" i;
    n
  | Cluster c -> Shard.net c (shard_of_host t i)

let sim t s =
  match t.backend with
  | Net n -> Network.sim n
  | Cluster c -> Shard.sim c s

let net t =
  match t.backend with
  | Net n -> n
  | Cluster _ -> invalid_arg "Fabric.net: a sharded build has one net per shard"

let cluster t =
  match t.backend with
  | Cluster c -> c
  | Net _ -> invalid_arg "Fabric.cluster: an unsharded build has no cluster"

let run ?domains ?until ?on_epoch t =
  match t.backend with
  | Cluster c -> Shard.run ?domains ?until ?on_epoch c
  | Net _ -> invalid_arg "Fabric.run: drive the single network's simulator"

let events_executed t =
  match t.backend with
  | Cluster c -> Shard.events_executed c
  | Net n -> Sim.events_executed (Network.sim n)

let mail_injected t =
  match t.backend with Cluster c -> Shard.mail_injected c | Net _ -> 0
