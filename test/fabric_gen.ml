(* Whole-fabric wiring dump for the topology golden test.

   Builds every topology builder at a small size and prints, per network
   (per shard for sharded builds): every node (id and name), every link
   sorted by name (tag, rate, delay, queue policy and capacity, source
   port), then for every ordered host pair the intermediate nodes a probe
   packet visits under each path selector. Nothing depends on link
   creation order, so a builder may reorder its loops freely as long as
   the resulting wiring and routing are the same.

   Regenerate with:
     dune exec test/fabric_gen.exe > test/fabric.expected *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Link = Xmp_net.Link
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Units = Xmp_net.Units
module Wan = Xmp_net.Wan

let disc () =
  Queue_disc.create ~policy:(Queue_disc.Threshold_mark 10) ~capacity_pkts:100

let policy_name l =
  match Queue_disc.policy (Link.disc l) with
  | Queue_disc.Droptail -> "droptail"
  | Queue_disc.Threshold_mark k -> Printf.sprintf "mark%d" k
  | Queue_disc.Red _ -> "red"

(* Node ids are dense over all networks of one build, so probing every id
   below the total node count finds each network's nodes. *)
let nodes_of net ~bound =
  List.filter_map
    (fun id ->
      match Network.node net id with
      | n -> Some n
      | exception Invalid_argument _ -> None)
    (List.init bound Fun.id)

let dump_net b ~label net ~bound =
  Printf.bprintf b "-- %s\n" label;
  let nodes = nodes_of net ~bound in
  let port_of = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Printf.bprintf b "node %d %s\n" (Node.id n) (Node.name n);
      for p = 0 to Node.n_ports n - 1 do
        Hashtbl.replace port_of (Link.name (Node.port n p)) p
      done)
    nodes;
  Network.links net
  |> List.sort (fun a c -> String.compare (Link.name a) (Link.name c))
  |> List.iter (fun l ->
         Printf.bprintf b "link %s tag=%s rate=%d delay=%d %s cap=%d port=%d\n"
           (Link.name l)
           (Option.value (Network.tag_of_link net l) ~default:"-")
           (Link.rate l) (Link.delay l) (policy_name l)
           (Queue_disc.capacity (Link.disc l))
           (Hashtbl.find port_of (Link.name l)))

(* Probe every (src, dst, selector) with one packet at a time, recording
   the links it crosses through receiver taps. Probe [i] leaves its source
   at [i * 10 ms]; [run ~until] advances the build's simulator(s), and
   10 ms is enough for any probe to land. *)
let dump_paths b ~nets ~n_hosts ~host_net ~n_paths ~run =
  let hops = ref [] in
  List.iter
    (fun net ->
      List.iter
        (fun l ->
          Link.wrap_receiver l (fun r p ->
              hops := Link.name l :: !hops;
              r p))
        (Network.links net))
    nets;
  let name_of id = Node.name (Network.node (host_net id) id) in
  let via link =
    match String.index_opt link '>' with
    | Some i -> String.sub link (i + 1) (String.length link - i - 1)
    | None -> link
  in
  let clock = ref Time.zero in
  for src = 0 to n_hosts - 1 do
    for dst = 0 to n_hosts - 1 do
      if src <> dst then begin
        Printf.bprintf b "path %s %s" (name_of src) (name_of dst);
        for path = 0 to n_paths ~src ~dst - 1 do
          hops := [];
          let p =
            Packet.data ~flow:0 ~subflow:0 ~src ~dst ~path ~seq:0 ~ect:false
              ~cwr:false ~ts:Time.zero
          in
          let net = host_net src in
          Sim.at (Network.sim net) !clock (fun () ->
              Node.send (Network.node net src) p);
          clock := Time.add !clock (Time.ms 10);
          run ~until:!clock;
          (* the last hop lands on [dst]; print the switches in between *)
          let visited = List.rev_map via !hops in
          let inner = List.filter (fun n -> n <> name_of dst) visited in
          Printf.bprintf b " |%d %s" path (String.concat " " inner)
        done;
        Buffer.add_char b '\n'
      end
    done
  done

let flat_run net ~until = Sim.run ~until (Network.sim net)

let shard_nets cluster =
  List.init (Net.Shard.n_shards cluster) (Net.Shard.net cluster)

let total_nodes nets =
  List.fold_left (fun acc n -> acc + Network.n_nodes n) 0 nets

let dump_nets b nets =
  let bound = total_nodes nets in
  List.iteri
    (fun i net -> dump_net b ~label:(Printf.sprintf "net %d" i) net ~bound)
    nets

let fat_tree b =
  Printf.bprintf b "== Fat_tree k=4\n";
  let net = Network.create (Sim.create ()) in
  let ft = Net.Fat_tree.create ~net ~k:4 ~disc () in
  dump_nets b [ net ];
  dump_paths b ~nets:[ net ] ~n_hosts:(Net.Fat_tree.n_hosts ft)
    ~host_net:(fun _ -> net)
    ~n_paths:(Net.Fat_tree.n_paths ft) ~run:(flat_run net)

let fat_tree_sharded b =
  Printf.bprintf b "== Fat_tree_sharded k=4\n";
  let ft = Net.Fat_tree_sharded.create ~k:4 ~disc () in
  let cluster = Net.Fat_tree_sharded.cluster ft in
  let nets = shard_nets cluster in
  dump_nets b nets;
  dump_paths b ~nets ~n_hosts:(Net.Fat_tree_sharded.n_hosts ft)
    ~host_net:(Net.Fat_tree_sharded.host_net ft)
    ~n_paths:(Net.Fat_tree_sharded.n_paths ft)
    ~run:(fun ~until -> Net.Fat_tree_sharded.run ~until ft)

let leaf_spine b =
  Printf.bprintf b "== Leaf_spine leaves=3 spines=2 hosts_per_leaf=2\n";
  let net = Network.create (Sim.create ()) in
  let ls =
    Net.Leaf_spine.create ~net ~leaves:3 ~spines:2 ~hosts_per_leaf:2 ~disc ()
  in
  dump_nets b [ net ];
  dump_paths b ~nets:[ net ] ~n_hosts:(Net.Leaf_spine.n_hosts ls)
    ~host_net:(fun _ -> net)
    ~n_paths:(Net.Leaf_spine.n_paths ls) ~run:(flat_run net)

let left = Wan.Fat_tree_dc { k = 4 }

let right = Wan.Leaf_spine_dc { leaves = 3; spines = 2; hosts_per_leaf = 2 }

let trunks =
  [
    Wan.trunk ~rate:(Units.gbps 10.) ~delay:(Time.ms 1) ~queue_pkts:500 ();
    Wan.trunk ~rate:(Units.gbps 1.) ~delay:(Time.ms 2) ~queue_pkts:300
      ~marking_threshold:50 ();
  ]

let wan_flat b =
  Printf.bprintf b "== Wan flat ft:4 + ls:3,2,2, two trunks\n";
  let net = Network.create (Sim.create ()) in
  let wan = Wan.create_flat ~net ~left ~right ~trunks ~disc () in
  dump_nets b [ net ];
  dump_paths b ~nets:[ net ] ~n_hosts:(Wan.n_hosts wan)
    ~host_net:(Wan.host_net wan) ~n_paths:(Wan.n_paths wan)
    ~run:(flat_run net)

let wan_sharded b =
  Printf.bprintf b "== Wan sharded ft:4 + ls:3,2,2, two trunks\n";
  let wan = Wan.create ~left ~right ~trunks ~disc () in
  let cluster = Wan.cluster wan in
  let nets = shard_nets cluster in
  dump_nets b nets;
  dump_paths b ~nets ~n_hosts:(Wan.n_hosts wan) ~host_net:(Wan.host_net wan)
    ~n_paths:(Wan.n_paths wan)
    ~run:(fun ~until -> Wan.run ~until wan)

let () =
  let b = Buffer.create (1 lsl 16) in
  List.iter (fun f -> f b)
    [ fat_tree; fat_tree_sharded; leaf_spine; wan_flat; wan_sharded ];
  print_string (Buffer.contents b)
