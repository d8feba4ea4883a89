(** The single-network k-ary fat tree of the paper's evaluation (§5.2.1):
    one {!Fabric} fat-tree DC on a caller-owned network. See {!Fabric}
    for the geometry, path selectors, layer delays and link names. *)

type locality = Fabric.locality =
  | Inner_rack
  | Inter_rack
  | Inter_pod
  | Inter_dc

val locality_name : locality -> string

type t = Fabric.t

val create :
  net:Network.t -> k:int -> disc:(unit -> Queue_disc.t) -> unit -> t
(** 1 Gbps links everywhere; one-way delays 20 µs (rack), 30 µs
    (aggregation), 40 µs (core). [k] must be even and ≥ 2. Link layer
    tags are ["rack"], ["aggregation"], ["core"]. *)

val n_hosts : t -> int

val host_id : t -> int -> int
(** Node id of host index [i] (0 ≤ i < n_hosts). *)

val host_index : t -> int -> int
(** Inverse of {!host_id}. *)

val locality : t -> src:int -> dst:int -> locality
(** Locality class of a host-index pair. *)

val n_paths : t -> src:int -> dst:int -> int
(** Number of distinct path selectors between two hosts: 1 within a rack,
    [k/2] within a pod, [(k/2)^2] across pods. *)

val max_rtt_no_queue : t -> Xmp_engine.Time.t
(** Zero-load RTT of the longest (inter-pod) path. *)

val rack_uplink_name : t -> pod:int -> edge:int -> agg:int -> string
(** ["e<pod>.<edge>->a<pod>.<agg>"] — the edge-to-aggregation uplink's
    link name, for building {!Xmp_engine.Fault_spec} schedules that fail
    a rack uplink mid-run. Raises on out-of-range coordinates. *)

val rack_downlink_name : t -> pod:int -> edge:int -> agg:int -> string
(** The reverse (aggregation-to-edge) direction; fail both names to cut
    the cable rather than one direction. *)

val rack_uplink : t -> pod:int -> edge:int -> agg:int -> Link.t
(** The live link for {!rack_uplink_name}; raises [Invalid_argument] if
    absent. *)

val layers : string list
(** [\["core"; "aggregation"; "rack"\]] — tags usable with
    {!Network.links_tagged}. *)
