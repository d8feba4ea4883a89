type t = Fabric.t

let create ?(config = Xmp_engine.Sim.default_config) ~k
    ?(rate = Fabric.line_rate) ~disc () =
  Fabric.create ~cut:(Fabric.Per_pod config) ~dcs:[ Fabric.Fat_tree_dc { k } ]
    ~trunks:[] ~rate ~disc ()

let cluster = Fabric.cluster
let n_hosts = Fabric.n_hosts
let host_net = Fabric.host_net
let n_paths = Fabric.n_paths
let run = Fabric.run
