(** Inter-DC WAN bridge: two data centers (fat tree or leaf-spine)
    joined by configurable high-BDP border trunks — a two-DC {!Fabric}.

    Each trunk gets a border router per DC hanging off the exit layer
    (every core switch, or every spine), so cross-DC traffic keeps the
    full intra-DC path diversity up to the border and the trunk choice
    is a separate selector stratum (see {!Fabric}). Host ids are
    globally unique across both DCs (DC 0's hosts first, switches after
    all hosts).

    Two cuts share the geometry byte-for-byte:
    - {!create} — one {!Shard} per DC with each trunk direction on a
      portal. The trunk delay (10–100 ms) is the epoch lookahead, so
      [domains:1 ≡ domains:N] byte equality holds as for the sharded
      fat tree, at a far coarser barrier cadence.
    - {!create_flat} — the same nodes, links and routing on a single
      {!Network} for closed-loop single-simulator drivers. *)

type dc_spec = Fabric.dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = Fabric.trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Xmp_engine.Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
}
(** One border link. [trunk_marking_threshold = None] models a
    deep-buffer droptail WAN router; [Some k] a shallow ECN-marking
    border queue — the regime where Eq. 1 ([K ≥ BDP/(β−1)]) sizes [K]
    against a BDP three orders of magnitude beyond the intra-DC one. *)

val trunk :
  ?rate:Units.rate ->
  ?delay:Xmp_engine.Time.t ->
  ?queue_pkts:int ->
  ?marking_threshold:int ->
  unit ->
  trunk
(** Defaults: 10 Gbps, 40 ms one-way, 2000-packet droptail (no
    marking). [delay] must be positive — it is the shard lookahead. *)

type t = Fabric.t

val create :
  ?config:Xmp_engine.Sim.config ->
  left:dc_spec ->
  right:dc_spec ->
  trunks:trunk list ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** Sharded build: shard 0 carries [left], shard 1 carries [right],
    each trunk is a portal pair. Intra-DC links run at 1 Gbps with
    [disc] queues and {!Fabric}'s layer delays. At least one trunk is
    required. *)

val create_flat :
  net:Network.t ->
  left:dc_spec ->
  right:dc_spec ->
  trunks:trunk list ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** The identical geometry at 1 Gbps on one pre-existing network, for
    single-sim drivers. {!run} and {!cluster} reject a flat build; drive
    [Sim.run (Network.sim net)] directly. *)

val layers : string list
(** Link tags in display order, for utilization grouping: ["wan"],
    ["border"], then the intra-DC layers of both topology families. *)

val n_hosts : t -> int

val dc_n_hosts : dc_spec -> int
(** Host count of one DC spec ([k³/4] for a fat tree,
    [leaves × hosts_per_leaf] for a leaf-spine). *)

val n_trunks : t -> int

val dc_of_host : t -> int -> int
(** 0 or 1. *)

val cluster : t -> Shard.t
(** The shard cluster of a sharded build; raises on a flat build. *)

val host_net : t -> int -> Network.t
(** The network a host's endpoints register on (per-DC shard net, or
    the flat net). *)

val run :
  ?domains:int ->
  ?until:Xmp_engine.Time.t ->
  ?on_epoch:(target:Xmp_engine.Time.t -> Xmp_engine.Time.t) ->
  t ->
  unit
(** {!Shard.run} on the cluster; raises on a flat build. *)

val locality : t -> src:int -> dst:int -> Fabric.locality
(** [Inter_dc] across the cut; the host DC's own class otherwise. *)

val n_paths : t -> src:int -> dst:int -> int
(** Distinct path selectors: the DC-local count within one DC; the
    source DC's exit count × [n_trunks] across the cut. *)

val zero_load_rtt : t -> src:int -> dst:int -> Xmp_engine.Time.t
(** Propagation-only round trip between two hosts — the ideal-FCT
    denominator. Cross-DC pairs use the fastest trunk. *)

val max_rtt_no_queue : t -> Xmp_engine.Time.t
(** Zero-load RTT of the slowest cross-DC path (slowest trunk) — what
    RTO floors should be sized against. *)

val max_rtt_no_queue_of :
  left:dc_spec ->
  right:dc_spec ->
  trunks:trunk list ->
  Xmp_engine.Time.t
(** {!max_rtt_no_queue} computed from the specs alone, so drivers can
    size RTO floors and horizons before building anything. *)
