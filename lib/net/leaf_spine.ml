type t = Fabric.t

let create ~net ~leaves ~spines ~hosts_per_leaf ~disc () =
  if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Leaf_spine.create";
  Fabric.create ~cut:(Fabric.One_net net)
    ~dcs:[ Fabric.Leaf_spine_dc { leaves; spines; hosts_per_leaf } ]
    ~trunks:[] ~rate:Fabric.line_rate ~disc ()

let n_hosts = Fabric.n_hosts
let host_id = Fabric.host_id
let host_index = Fabric.host_index
let same_leaf t ~src ~dst = Fabric.locality t ~src ~dst = Fabric.Inner_rack
let n_paths = Fabric.n_paths
