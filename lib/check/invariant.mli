(** Runtime invariant checker.

    Engine, net and transport layers assert structural invariants through
    this module: event dispatch times are monotone, queue occupancy stays
    within bounds, ECN marks only happen above the marking threshold,
    congestion windows never drop below one segment, and per-subflow
    in-flight accounting stays conserved.

    Checks are globally toggled (cheap O(1) predicates; on by default and
    always on under the test suite). A failing check raises {!Violation}
    in the default [Raise] mode, or logs to stderr in [Warn] mode for
    long production runs where a corrupted metric beats a crash. *)

exception Violation of string

type mode =
  | Raise  (** a violated invariant raises {!Violation} (default) *)
  | Warn  (** a violated invariant logs one line to stderr *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Global toggle. [Sim.create ?invariants] forwards to this, so a
    simulation opts in or out at construction time. *)

val mode : unit -> mode

val set_mode : mode -> unit

val holds : bool -> bool
(** [holds cond] is one check: when checking is enabled it counts the
    check and returns [cond]; when disabled it returns [true] without
    counting. Hot paths pair it with {!fail} so the message closure is
    built only on the failure branch:
    {[
      if not (Invariant.holds (len <= cap)) then
        Invariant.fail ~name:"queue.occupancy-bounds" (fun () ->
            Printf.sprintf "occupancy %d above %d" len cap)
    ]}
    A passing check then costs a branch or two and allocates nothing. *)

val fail : name:string -> (unit -> string) -> unit
(** [fail ~name detail] reports a violation of the invariant [name]:
    counts it, renders [detail ()] and raises {!Violation} ([Raise]) or
    logs one line to stderr ([Warn]). Call it only after {!holds}
    returned [false]. *)

val require : name:string -> bool -> (unit -> string) -> unit
(** [require ~name cond detail] is
    [if not (holds cond) then fail ~name detail]. The [detail] thunk only
    runs on failure, but a thunk that captures variables is allocated at
    the call site on every call, pass or fail; the simulator's hot paths
    therefore use {!holds}/{!fail} and leave [require] to call sites off
    the per-event path. *)

val checks_run : unit -> int
(** Checks evaluated since the last {!reset_counters}. Counting is off
    until the first {!reset_counters} arms it — the tally costs a
    domain-local increment per check, which the simulation hot path
    only pays once a caller has shown interest. *)

val violations : unit -> int
(** Violations seen — only observable above zero in [Warn] mode, since
    [Raise] aborts the run. *)

val reset_counters : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the toggle set to [b], restoring the
    previous state afterwards (exception-safe). *)
