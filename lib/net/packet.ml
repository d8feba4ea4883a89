type kind = Data | Ack

let data_wire_bytes = 1500
let payload_bytes = 1460
let ack_wire_bytes = 60

(* Two packed header words (the PR 5 endpoint-key trick extended to the
   whole header), a flag word and a timestamp; SACK blocks live in three
   packed slots instead of a list. All fields mutable so one record can
   be reused for the lifetime of the process via the free-list pool. *)
type t = {
  mutable w0 : int;  (* dst:20 | flow:30 | subflow:12 — endpoint-key layout *)
  mutable w1 : int;  (* src:20 | path:10 | kind:1 | seq:31 *)
  mutable flags : int;  (* ect:1 | ce:1 | cwr:1 | free:1 | ece:16 | nsack:2 *)
  mutable ts : Xmp_engine.Time.t;
  mutable sack0 : int;  (* start:31 | stop:31, valid below nsack *)
  mutable sack1 : int;
  mutable sack2 : int;
}

(* ---- packed-field layout ---------------------------------------------- *)

let subflow_bits = 12
let flow_bits = 30
let host_bits = 20
let path_bits = 10
let seq_bits = 31
let ece_bits = 16

let max_subflow = (1 lsl subflow_bits) - 1
let max_flow = (1 lsl flow_bits) - 1
let max_host = (1 lsl host_bits) - 1
let max_path = (1 lsl path_bits) - 1
let max_seq = (1 lsl seq_bits) - 1
let max_ece = (1 lsl ece_bits) - 1
let max_sack_bound = (1 lsl 31) - 1

let ect_bit = 1
let ce_bit = 2
let cwr_bit = 4
let free_bit = 8
let ece_shift = 4
let nsack_shift = ece_shift + ece_bits
let kind_bit = 1 lsl seq_bits

let pack_w0 ~dst ~flow ~subflow =
  (((dst lsl flow_bits) lor flow) lsl subflow_bits) lor subflow

let pack_w1 ~src ~path ~ack ~seq =
  (((src lsl path_bits) lor path) lsl (seq_bits + 1))
  lor (if ack then kind_bit else 0)
  lor seq

(* ---- accessors -------------------------------------------------------- *)

let[@inline] dst p = p.w0 lsr (flow_bits + subflow_bits)
let[@inline] flow p = (p.w0 lsr subflow_bits) land max_flow
let[@inline] subflow p = p.w0 land max_subflow

let[@inline] endpoint_key p = p.w0

let[@inline] src p = p.w1 lsr (path_bits + seq_bits + 1)
let[@inline] path p = (p.w1 lsr (seq_bits + 1)) land max_path
let[@inline] is_ack p = p.w1 land kind_bit <> 0
let[@inline] kind p = if is_ack p then Ack else Data
let[@inline] seq p = p.w1 land max_seq

let[@inline] size p = if is_ack p then ack_wire_bytes else data_wire_bytes

let[@inline] ect p = p.flags land ect_bit <> 0
let[@inline] ce p = p.flags land ce_bit <> 0
let[@inline] cwr p = p.flags land cwr_bit <> 0
let[@inline] ece_count p = (p.flags lsr ece_shift) land max_ece
let[@inline] ts p = p.ts

let[@inline] set_ce p = p.flags <- p.flags lor ce_bit

let[@inline] sack_count p = p.flags lsr nsack_shift

let sack_slot p i =
  match i with
  | 0 -> p.sack0
  | 1 -> p.sack1
  | _ -> p.sack2

let[@inline] sack_start p i = sack_slot p i lsr 31
let[@inline] sack_stop p i = sack_slot p i land max_sack_bound

let sack p =
  let rec blocks i acc =
    if i < 0 then acc
    else blocks (i - 1) ((sack_start p i, sack_stop p i) :: acc)
  in
  blocks (sack_count p - 1) []

let add_sack_block p ~start ~stop =
  let n = sack_count p in
  if n >= 3 then invalid_arg "Packet.add_sack_block: at most 3 blocks";
  if start < 0 || start > max_sack_bound || stop < 0 || stop > max_sack_bound
  then invalid_arg "Packet.add_sack_block: bound outside 31-bit range";
  let slot = (start lsl 31) lor stop in
  (match n with
  | 0 -> p.sack0 <- slot
  | 1 -> p.sack1 <- slot
  | _ -> p.sack2 <- slot);
  p.flags <- p.flags + (1 lsl nsack_shift)

(* ---- free-list pool --------------------------------------------------- *)

(* Packets cycle acquire -> wire -> consume -> release; the pool keeps
   every record ever created so steady state allocates nothing. The pool
   is domain-local (no locks on the hot path); a sharded simulation's
   shards each recycle through their own domain's pool. *)
type pool = {
  mutable stack : t array;  (* free records in stack.(0 .. top-1) *)
  mutable top : int;
  mutable created : int;
}

let dummy =
  (* xmplint: allow mutable-global — placeholder record nothing ever
     writes; the mutability is structural (same type as pooled packets) *)
  { w0 = 0; w1 = 0; flags = free_bit; ts = 0; sack0 = 0; sack1 = 0; sack2 = 0 }

let pool_key =
  Domain.DLS.new_key (fun () -> { stack = [||]; top = 0; created = 0 })

let pool_created () = (Domain.DLS.get pool_key).created
let pool_free () = (Domain.DLS.get pool_key).top

let acquire () =
  let pool = Domain.DLS.get pool_key in
  if pool.top > 0 then begin
    pool.top <- pool.top - 1;
    pool.stack.(pool.top)
  end
  else begin
    pool.created <- pool.created + 1;
    { w0 = 0; w1 = 0; flags = 0; ts = 0; sack0 = 0; sack1 = 0; sack2 = 0 }
  end

let release p =
  if p.flags land free_bit <> 0 then
    invalid_arg "Packet.release: packet already released";
  (* the free flag doubles as a full reset: every other flag bit (and the
     sack count) is cleared, and the constructors overwrite the rest *)
  p.flags <- free_bit;
  let pool = Domain.DLS.get pool_key in
  if pool.top = Array.length pool.stack then begin
    let cap = Stdlib.max 64 (2 * pool.top) in
    let stack = Array.make cap dummy in
    Array.blit pool.stack 0 stack 0 pool.top;
    pool.stack <- stack
  end;
  pool.stack.(pool.top) <- p;
  pool.top <- pool.top + 1

(* ---- growable FIFO --------------------------------------------------- *)

module Fifo = struct
  type packet = t

  type t = {
    mutable slots : packet array;  (* live packets from [head], wrapping *)
    mutable head : int;
    mutable len : int;
    limit : int;
  }

  let create ?(limit = max_int) () =
    { slots = Array.make (Stdlib.min 16 limit) dummy; head = 0; len = 0;
      limit }

  let length q = q.len

  (* called only when full: copy the two wrapped halves into order *)
  let grow q =
    let cap = Array.length q.slots in
    if cap >= q.limit then invalid_arg "Packet.Fifo.push: full";
    let slots = Array.make (Stdlib.min (2 * cap) q.limit) dummy in
    Array.blit q.slots q.head slots 0 (cap - q.head);
    Array.blit q.slots 0 slots (cap - q.head) q.head;
    q.slots <- slots;
    q.head <- 0

  let push q p =
    if q.len = Array.length q.slots then grow q;
    let tail = q.head + q.len in
    let cap = Array.length q.slots in
    q.slots.(if tail >= cap then tail - cap else tail) <- p;
    q.len <- q.len + 1

  let pop q =
    if q.len = 0 then invalid_arg "Packet.Fifo.pop: empty";
    let p = q.slots.(q.head) in
    q.head <- (if q.head + 1 = Array.length q.slots then 0 else q.head + 1);
    q.len <- q.len - 1;
    p

  let release_all q =
    let n = q.len in
    for _ = 1 to n do
      release (pop q)
    done;
    n
end

(* ---- constructors ----------------------------------------------------- *)

let check_header ~flow ~subflow ~src ~dst ~path ~seq =
  if
    flow < 0 || flow > max_flow || subflow < 0 || subflow > max_subflow
    || src < 0 || src > max_host || dst < 0 || dst > max_host || path < 0
    || path > max_path || seq < 0 || seq > max_seq
  then
    invalid_arg
      (Printf.sprintf
         "Packet: header (flow=%d subflow=%d src=%d dst=%d path=%d seq=%d) \
          outside packed ranges (flow<=%d, subflow<=%d, host<=%d, path<=%d, \
          seq<=%d)"
         flow subflow src dst path seq max_flow max_subflow max_host max_path
         max_seq)

let data ~flow ~subflow ~src ~dst ~path ~seq ~ect ~cwr ~ts =
  check_header ~flow ~subflow ~src ~dst ~path ~seq;
  let p = acquire () in
  p.w0 <- pack_w0 ~dst ~flow ~subflow;
  p.w1 <- pack_w1 ~src ~path ~ack:false ~seq;
  p.flags <- (if ect then ect_bit else 0) lor (if cwr then cwr_bit else 0);
  p.ts <- ts;
  p

let ack ?(sack = []) ~flow ~subflow ~src ~dst ~path ~seq ~ece_count ~ts () =
  check_header ~flow ~subflow ~src ~dst ~path ~seq;
  if ece_count < 0 || ece_count > max_ece then
    invalid_arg "Packet: ece_count outside packed range";
  let p = acquire () in
  p.w0 <- pack_w0 ~dst ~flow ~subflow;
  p.w1 <- pack_w1 ~src ~path ~ack:true ~seq;
  p.flags <- ece_count lsl ece_shift;
  p.ts <- ts;
  List.iter (fun (start, stop) -> add_sack_block p ~start ~stop) sack;
  p

(* ---- cross-domain image ----------------------------------------------- *)

type image = {
  i_w0 : int;
  i_w1 : int;
  i_flags : int;
  i_ts : Xmp_engine.Time.t;
  i_sack0 : int;
  i_sack1 : int;
  i_sack2 : int;
}

let image p =
  {
    i_w0 = p.w0;
    i_w1 = p.w1;
    i_flags = p.flags land lnot free_bit;
    i_ts = p.ts;
    i_sack0 = p.sack0;
    i_sack1 = p.sack1;
    i_sack2 = p.sack2;
  }

let of_image im =
  let p = acquire () in
  p.w0 <- im.i_w0;
  p.w1 <- im.i_w1;
  p.flags <- im.i_flags land lnot free_bit;
  p.ts <- im.i_ts;
  p.sack0 <- im.i_sack0;
  p.sack1 <- im.i_sack1;
  p.sack2 <- im.i_sack2;
  p

let pp fmt p =
  let kind = if is_ack p then "ack" else "data" in
  Format.fprintf fmt "%s[f%d.%d %d->%d path%d seq=%d%s%s]" kind (flow p)
    (subflow p) (src p) (dst p) (path p) (seq p)
    (if ce p then " CE" else "")
    (if ece_count p > 0 then Printf.sprintf " ece=%d" (ece_count p) else "")
