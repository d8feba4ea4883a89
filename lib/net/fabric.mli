(** One fabric builder for every topology the simulator runs: a k-ary
    fat tree (Al-Fares et al., SIGCOMM 2008, the paper's §5.2.1 fabric)
    or a two-tier leaf-spine per data center, optionally two data
    centers joined by WAN trunks, laid out on one network or cut into
    {!Shard}s.

    {2 Geometry}

    A fat tree has [k] pods of [k/2] edge and [k/2] aggregation switches,
    [(k/2)²] core switches and [k³/4] hosts; a leaf-spine has [leaves]
    leaf switches with [hosts_per_leaf] hosts each, every leaf wired to
    every spine. A packet's [path] selector plays the role of the
    destination-address choice of the paper's two-level routing:
    inter-pod traffic ascends via aggregation switch [p / (k/2) mod (k/2)]
    and core offset [p mod (k/2)], intra-pod inter-rack traffic via
    aggregation switch [p mod (k/2)], and leaf-spine traffic via spine
    [p mod spines]. ACKs carry the same selector, so reverse paths mirror
    forward ones.

    With two DCs, each trunk gets a border router per DC hanging off the
    exit layer (every core, or every spine). A cross-DC selector
    decomposes as [p mod n_exits] (the ascent, [n_exits] = (k/2)² or
    [spines]) and [p / n_exits mod n_trunks] (the trunk).

    {2 Layout}

    Host indices run over the DCs in order (DC 0's hosts first); a
    host's node id is its index plus the build's id base (0 unless an
    {!One_net} network already holds nodes), switches follow all hosts
    and border routers follow all DC switches. Links are created layer
    by layer — every rack link, then aggregation, then core (or leaf,
    then spine), per DC; then border links; then trunks — so port
    numbers, which the routing functions index, are the same whichever
    placement a node gets. A link whose endpoints land in different
    shards becomes a pair of {!Shard.portal}s with the link's delay as
    lookahead.

    Single-DC names are bare (["h0.1.0"], ["e0.1"], ["a0.1"], ["c1.0"],
    ["leaf2"], ["spine0"]); with two DCs they carry a ["d<dc>."] prefix,
    and border routers are ["d<dc>.bdr<trunk>"]. Link names are
    ["<src>-><dst>"]; tags are ["rack"], ["aggregation"], ["core"],
    ["leaf"], ["spine"], ["border"] and ["wan"]. *)

type locality = Inner_rack | Inter_rack | Inter_pod | Inter_dc
(** A leaf-spine pair is [Inner_rack] on one leaf, [Inter_rack] across
    leaves; [Inter_dc] arises only across a trunk. *)

val locality_name : locality -> string

type dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Xmp_engine.Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
}
(** One border link. [trunk_marking_threshold = None] models a
    deep-buffer droptail WAN router; [Some k] a shallow ECN-marking
    border queue. *)

val line_rate : Units.rate
(** 1 Gbps, the §5.2.1 link rate. *)

type cut =
  | One_net of Network.t
      (** no cut: every node on this caller-owned network *)
  | Per_pod of Xmp_engine.Sim.config
      (** one shard per pod of a single fat-tree DC; core switch
          (g, c) lives in shard [(g·k/2 + c) mod k], spreading
          inter-pod contention across the shards *)
  | Per_dc of Xmp_engine.Sim.config  (** one shard per DC *)

type t

val create :
  cut:cut ->
  dcs:dc_spec list ->
  trunks:trunk list ->
  rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** One DC with no trunks, or two DCs with at least one trunk. Every
    intra-DC link runs at [rate] with [disc] queues, except that a
    stand-alone leaf-spine keeps a 10 Gbps spine layer (VL2's fast
    uplinks). One-way delays are 20 µs on host links, 30 µs on
    aggregation and spine links, 40 µs on core links; a border link
    takes its exit layer's delay and its trunk's rate; a trunk link
    takes the trunk's rate, delay and queue. Raises [Invalid_argument]
    on a malformed spec or an impossible cut. *)

val check_spec : who:string -> dc_spec -> unit
(** Raises [Invalid_argument "<who>: fat-tree k"] for an odd or
    too-small [k], ["<who>: leaf-spine shape"] for an empty leaf-spine. *)

(** {2 Geometry from specs alone} *)

val dc_n_hosts : dc_spec -> int

val dc_zero_load_rtt : dc_spec -> locality -> Xmp_engine.Time.t
(** Propagation-only round trip between two hosts of one DC. Raises
    [Invalid_argument] for [Inter_dc], which depends on the trunk. *)

val max_rtt_of : dcs:dc_spec list -> trunks:trunk list -> Xmp_engine.Time.t
(** The zero-load round trip of the longest path: inter-pod (or
    inter-leaf) within one DC, or across the slowest trunk between two —
    what RTO floors and horizons are sized against, before anything is
    built. *)

(** {2 A built fabric} *)

val n_hosts : t -> int

val host_id : t -> int -> int
(** Node id of host index [i]. *)

val host_index : t -> int -> int
(** Inverse of {!host_id}. *)

val n_dcs : t -> int

val dc_spec : t -> int -> dc_spec

val dc_hosts : t -> int -> int * int
(** [(first host index, host count)] of a DC. *)

val dc_of_host : t -> int -> int

val n_trunks : t -> int

val locality : t -> src:int -> dst:int -> locality
(** Of a host-index pair. *)

val n_paths : t -> src:int -> dst:int -> int
(** Distinct path selectors: 1 within a rack, [k/2] (or [spines])
    within a pod, [(k/2)²] across pods, the source DC's exit count times
    the trunk count across DCs. *)

val zero_load_rtt : t -> src:int -> dst:int -> Xmp_engine.Time.t
(** Propagation-only round trip — the ideal-FCT denominator. Cross-DC
    pairs use the fastest trunk. *)

val max_rtt_no_queue : t -> Xmp_engine.Time.t
(** {!max_rtt_of} this fabric's specs (cross-DC: the slowest trunk). *)

(** {2 Shards and simulators} *)

val n_shards : t -> int
(** 1 for a {!One_net} build. *)

val shard_of_host : t -> int -> int

val host_net : t -> int -> Network.t
(** The network a host's endpoints register on. *)

val sim : t -> int -> Xmp_engine.Sim.t
(** The simulator of a shard. *)

val net : t -> Network.t
(** The network of a {!One_net} build; raises on a sharded one. *)

val cluster : t -> Shard.t
(** The shard cluster of a sharded build; raises on a {!One_net} one. *)

val run :
  ?domains:int ->
  ?until:Xmp_engine.Time.t ->
  ?on_epoch:(target:Xmp_engine.Time.t -> Xmp_engine.Time.t) ->
  t ->
  unit
(** {!Shard.run} on the cluster; raises on a {!One_net} build, whose
    caller drives its own simulator. *)

val events_executed : t -> int

val mail_injected : t -> int
(** Portal packets carried across epoch barriers (0 unsharded). *)
