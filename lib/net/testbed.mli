(** Parallel-bottleneck testbed topologies.

    A bank of [n_left] sender hosts, a bank of [n_right] receiver hosts and
    [m] two-way bottleneck links between them, each bottleneck fronted by a
    pair of switches (the paper's DummyNet boxes):

    {v
      S1 --+                         +-- D1
      S2 --+--[IN_j]==L_j==[OUT_j]--+-- D2      (one IN/OUT pair per j)
      S3 --+                         +-- D3
    v}

    Every host has a dedicated access link to every IN (senders) or OUT
    (receivers) switch, so a packet's [path] field selects which bottleneck
    it crosses. Access links are fast and unmarked: the bottlenecks are the
    only congestion points, exactly as in the paper's testbed (§4) and
    ring/torus simulation (§5.1).

    This one builder instantiates: Figure 1's single bottleneck, Figure
    3(a)'s two-path traffic-shifting testbed, Figure 3(b)'s shared
    bottleneck fairness testbed, and Figure 5's five-bottleneck ring. *)

type spec = {
  rate : Units.rate;
  delay : Xmp_engine.Time.t;  (** one-way propagation of the bottleneck *)
  disc : unit -> Queue_disc.t;
}

type t

val create :
  net:Network.t ->
  n_left:int ->
  n_right:int ->
  bottlenecks:spec list ->
  ?access_rate:Units.rate ->
  ?access_delay:Xmp_engine.Time.t ->
  ?access_capacity_pkts:int ->
  unit ->
  t
(** Access links default to 10 Gbps, 5 µs, 1000-packet drop-tail. *)

val net : t -> Network.t

val left_id : t -> int -> int
(** Node id of sender host [i]. *)

val right_id : t -> int -> int

val bottleneck_fwd : t -> int -> Link.t
(** Left-to-right direction of bottleneck [j]. *)

val bottleneck_rev : t -> int -> Link.t

val set_bottleneck_up : t -> int -> bool -> unit
(** Takes both directions of bottleneck [j] up or down (Figure 7's "L3 is
    closed" event). *)

val one_way_delay : t -> int -> Xmp_engine.Time.t
(** End-to-end propagation (host to host) through bottleneck [j]:
    [2 * access_delay + bottleneck delay]. The zero-load RTT is twice
    this. *)
