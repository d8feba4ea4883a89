(** The {!Fat_tree} cut into one {!Shard} per pod: a {!Fabric} fat-tree
    DC under the {!Fabric.Per_pod} cut.

    Geometry, host addressing, path selectors and routing are those of
    {!Fat_tree}; host index [i] is also its node id in every shard's
    network. Rack and aggregation links are pod-local; each agg↔core
    hop whose core switch lives in another shard becomes a pair of
    {!Shard.portal}s with the core-layer delay as the lookahead, so the
    epoch length is 40 µs. *)

type t = Fabric.t

val create :
  ?config:Xmp_engine.Sim.config ->
  k:int ->
  ?rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** [rate] (default 1 Gbps) applies to every link. *)

val cluster : t -> Shard.t

val n_hosts : t -> int

val host_net : t -> int -> Network.t
(** The network of the shard holding host [i] — what a transport's [net]
    (sender side) or [rcv_net] (receiver side) should be. *)

val n_paths : t -> src:int -> dst:int -> int

val run :
  ?domains:int ->
  ?until:Xmp_engine.Time.t ->
  ?on_epoch:(target:Xmp_engine.Time.t -> Xmp_engine.Time.t) ->
  t ->
  unit
(** {!Shard.run} on the cluster ([on_epoch] is the epoch-barrier hook —
    see {!Shard.run}). *)
