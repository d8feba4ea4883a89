type locality = Fabric.locality =
  | Inner_rack
  | Inter_rack
  | Inter_pod
  | Inter_dc

let locality_name = Fabric.locality_name

type t = Fabric.t

let layers = [ "core"; "aggregation"; "rack" ]

let create ~net ~k ~disc () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fat_tree.create: k";
  Fabric.create ~cut:(Fabric.One_net net) ~dcs:[ Fabric.Fat_tree_dc { k } ]
    ~trunks:[] ~rate:Fabric.line_rate ~disc ()

let n_hosts = Fabric.n_hosts

let host_id t i =
  if i < 0 || i >= n_hosts t then invalid_arg "Fat_tree.host_id";
  Fabric.host_id t i

let host_index = Fabric.host_index
let locality = Fabric.locality
let n_paths = Fabric.n_paths
let max_rtt_no_queue = Fabric.max_rtt_no_queue

(* ---- link naming for fault schedules --------------------------------- *)

let rack_link_ends t ~pod ~edge ~agg =
  let k =
    match Fabric.dc_spec t 0 with
    | Fabric.Fat_tree_dc { k } -> k
    | Fabric.Leaf_spine_dc _ -> invalid_arg "Fat_tree: not a fat tree"
  in
  if pod < 0 || pod >= k then invalid_arg "Fat_tree: pod";
  if edge < 0 || edge >= k / 2 then invalid_arg "Fat_tree: edge";
  if agg < 0 || agg >= k / 2 then invalid_arg "Fat_tree: agg";
  (Printf.sprintf "e%d.%d" pod edge, Printf.sprintf "a%d.%d" pod agg)

let rack_uplink_name t ~pod ~edge ~agg =
  let e, a = rack_link_ends t ~pod ~edge ~agg in
  e ^ "->" ^ a

let rack_downlink_name t ~pod ~edge ~agg =
  let e, a = rack_link_ends t ~pod ~edge ~agg in
  a ^ "->" ^ e

let rack_uplink t ~pod ~edge ~agg =
  let name = rack_uplink_name t ~pod ~edge ~agg in
  match Network.find_link (Fabric.net t) ~name with
  | Some l -> l
  | None -> invalid_arg ("Fat_tree: no link named " ^ name)
