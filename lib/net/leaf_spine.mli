(** Two-tier leaf–spine (Clos) topology — the VL2-style multi-rooted tree
    of the paper's related work (§6 cites VL2; §5's Fat-Tree is the
    three-tier variant): one {!Fabric} leaf-spine DC on a caller-owned
    network. Useful for checking that XMP's behaviour is not an artifact
    of the Fat-Tree's structure.

    [leaves] leaf switches with [hosts_per_leaf] hosts each, every leaf
    connected to every one of [spines] spine switches. A packet's [path]
    selector picks the spine ([path mod spines]), so inter-leaf host
    pairs have [spines] equal-cost paths; ACKs retrace the mirror path. *)

type t = Fabric.t

val create :
  net:Network.t ->
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** 1 Gbps host links (20 µs), 10 Gbps spine links (30 µs), as VL2's
    10 G up / 1 G down. Link layer tags are ["leaf"] (host–leaf) and
    ["spine"] (leaf–spine); link names ["leaf<l>->spine<s>"] and so on
    address them in a {!Xmp_engine.Fault_spec} schedule. *)

val n_hosts : t -> int

val host_id : t -> int -> int
(** Node id of host index [i]. *)

val host_index : t -> int -> int

val same_leaf : t -> src:int -> dst:int -> bool
(** Whether two host indices share a leaf switch. *)

val n_paths : t -> src:int -> dst:int -> int
(** 1 within a leaf, [spines] across leaves. *)
