module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Invariant = Xmp_check.Invariant

module Tel = Xmp_telemetry

(* The serialize-complete and deliver events are the two hottest events
   in the simulator (two per packet per hop). Both handlers are allocated
   once per link: the serializing packet sits in the [tx] register (only
   one packet serializes at a time), and in-flight packets sit in the
   [wire] FIFO. Propagation delay is constant per link, so deliveries
   complete in push order: they run as one [Sim.lane], which keeps one
   event-heap entry per link however many packets are on the wire, and
   each firing pops the wire's head. *)
type t = {
  sim : Sim.t;
  id : int;
  name : string;
  rate : Units.rate;
  tx_ns_data : Time.t;  (* Units.tx_time rate for the two wire sizes, *)
  tx_ns_ack : Time.t;  (* computed once — kinds fix the sizes *)
  delay : Time.t;
  disc : Queue_disc.t;
  mutable receiver : Packet.t -> unit;
  mutable drop_filter : (Packet.t -> bool) option;
  mutable busy : bool;
  mutable up : bool;
  mutable bytes_sent : int;
  mutable packets_sent : int;
  mutable tx : Packet.t;  (* the packet currently serializing *)
  wire : Packet.Fifo.t;  (* in-flight packets, in push order *)
  mutable on_serialized : unit -> unit;  (* preallocated, see [create] *)
  (* resolved once at creation iff the sim's sink is active *)
  c_tx_packets : Tel.Metric.Counter.t option;
  c_tx_bytes : Tel.Metric.Counter.t option;
}

let no_receiver _ = failwith "Link: receiver not attached"

let rec transmit t (p : Packet.t) =
  t.busy <- true;
  if
    not
      (Invariant.holds
         (Queue_disc.length t.disc <= Queue_disc.capacity t.disc))
  then
    Invariant.fail ~name:"link.queue-within-capacity" (fun () ->
        Printf.sprintf "%s holds %d packets, capacity %d" t.name
          (Queue_disc.length t.disc)
          (Queue_disc.capacity t.disc));
  t.tx <- p;
  Sim.after t.sim
    (if Packet.is_ack p then t.tx_ns_ack else t.tx_ns_data)
    t.on_serialized

and serialized t deliveries =
  let p = t.tx in
  t.bytes_sent <- t.bytes_sent + Packet.size p;
  t.packets_sent <- t.packets_sent + 1;
  (match t.c_tx_packets with
  | Some c ->
    Tel.Metric.Counter.inc c;
    (match t.c_tx_bytes with
    | Some b -> Tel.Metric.Counter.inc b ~by:(Packet.size p)
    | None -> ())
  | None -> ());
  (* Propagation: the packet is on the wire while the next one
     serializes. Deliver only if the link is still up. *)
  if t.up then begin
    Packet.Fifo.push t.wire p;
    Sim.lane_at deliveries (Time.add (Sim.now t.sim) t.delay)
  end
  else Packet.release p;
  match Queue_disc.dequeue t.disc with
  | Some next -> transmit t next
  | None -> t.busy <- false

and deliver t =
  let p = Packet.Fifo.pop t.wire in
  if t.up then t.receiver p else Packet.release p

let create ~sim ~id ~name ~rate ~delay ~disc =
  if rate <= 0 then invalid_arg "Link.create: rate";
  let sink = Sim.telemetry sim in
  Queue_disc.set_telemetry disc ~sink ~now:(fun () -> Sim.now sim) ~queue:name;
  let c_tx_packets, c_tx_bytes =
    if Tel.Sink.active sink then begin
      let reg = Tel.Sink.registry sink in
      let labels = Tel.Label.v [ ("link", name) ] in
      ( Some
          (Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"tx_packets"
             ()),
        Some
          (Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"tx_bytes"
             ()) )
    end
    else (None, None)
  in
  let t =
    {
      sim;
      id;
      name;
      rate;
      tx_ns_data = Units.tx_time rate ~bytes:Packet.data_wire_bytes;
      tx_ns_ack = Units.tx_time rate ~bytes:Packet.ack_wire_bytes;
      delay;
      disc;
      receiver = no_receiver;
      drop_filter = None;
      busy = false;
      up = true;
      bytes_sent = 0;
      packets_sent = 0;
      tx = Packet.dummy;
      wire = Packet.Fifo.create ();
      on_serialized = ignore;
      c_tx_packets;
      c_tx_bytes;
    }
  in
  let deliveries = Sim.lane sim (fun () -> deliver t) in
  t.on_serialized <- (fun () -> serialized t deliveries);
  t

let set_receiver t f = t.receiver <- f
let wrap_receiver t wrap = t.receiver <- wrap t.receiver
let set_drop_filter t f = t.drop_filter <- f
let id t = t.id
let name t = t.name
let rate t = t.rate
let delay t = t.delay
let disc t = t.disc
let is_up t = t.up

let send t p =
  if t.up then
    (* The drop filter models loss on the wire's ingress: a killed packet
       never reaches the queue. Accounting/telemetry is the filter's job
       (the fault injector counts and emits Injected_drop). *)
    if match t.drop_filter with Some f -> f p | None -> false then
      Packet.release p
    else if t.busy then ignore (Queue_disc.enqueue t.disc p)
    else begin
      (* An idle link still runs the packet through the discipline so that
         marking/occupancy accounting sees every arrival. *)
      if Queue_disc.enqueue t.disc p then
        match Queue_disc.dequeue t.disc with
        | Some q -> transmit t q
        | None -> assert false
    end
  else Packet.release p

let set_up t up =
  if t.up && not up then ignore (Queue_disc.clear t.disc);
  t.up <- up

let bytes_sent t = t.bytes_sent
let packets_sent t = t.packets_sent

let utilization t ~duration =
  if duration <= 0 then 0.
  else
    float_of_int (t.bytes_sent * 8)
    /. (float_of_int t.rate *. Time.to_float_s duration)
