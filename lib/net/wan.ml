module Time = Xmp_engine.Time

type dc_spec = Fabric.dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = Fabric.trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
}

let trunk ?(rate = Units.gbps 10.) ?(delay = Time.ms 40)
    ?(queue_pkts = 2000) ?marking_threshold () =
  if Time.compare delay Time.zero <= 0 then
    invalid_arg "Wan.trunk: delay must be positive";
  if queue_pkts < 1 then invalid_arg "Wan.trunk: queue_pkts";
  Option.iter
    (fun k -> if k < 1 then invalid_arg "Wan.trunk: marking_threshold")
    marking_threshold;
  {
    trunk_rate = rate;
    trunk_delay = delay;
    trunk_queue_pkts = queue_pkts;
    trunk_marking_threshold = marking_threshold;
  }

type t = Fabric.t

let layers =
  [ "wan"; "border"; "core"; "aggregation"; "rack"; "leaf"; "spine" ]

let create_with cut ~left ~right ~trunks ~disc =
  Fabric.create ~cut ~dcs:[ left; right ] ~trunks ~rate:Fabric.line_rate ~disc
    ()

let create ?(config = Xmp_engine.Sim.default_config) ~left ~right ~trunks
    ~disc () =
  create_with (Fabric.Per_dc config) ~left ~right ~trunks ~disc

let create_flat ~net ~left ~right ~trunks ~disc () =
  create_with (Fabric.One_net net) ~left ~right ~trunks ~disc

let n_hosts = Fabric.n_hosts
let dc_n_hosts = Fabric.dc_n_hosts
let n_trunks = Fabric.n_trunks
let dc_of_host = Fabric.dc_of_host
let cluster = Fabric.cluster
let host_net = Fabric.host_net
let run = Fabric.run
let locality = Fabric.locality
let n_paths = Fabric.n_paths
let zero_load_rtt = Fabric.zero_load_rtt
let max_rtt_no_queue = Fabric.max_rtt_no_queue

let max_rtt_no_queue_of ~left ~right ~trunks =
  Fabric.check_spec ~who:"Wan" left;
  Fabric.check_spec ~who:"Wan" right;
  if trunks = [] then invalid_arg "Wan.max_rtt_no_queue_of: no trunks";
  Fabric.max_rtt_of ~dcs:[ left; right ] ~trunks
