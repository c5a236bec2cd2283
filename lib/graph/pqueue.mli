(** Minimum priority queue over [float] keys with [int] payloads.

    A standard binary heap specialised for the shortest-path computations in
    this library: keys are path lengths, payloads are vertex identifiers.
    Supports lazy deletion via [decrease_key]-by-reinsertion: callers keep a
    separate [dist] array and discard stale entries on [pop]. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty queue. [capacity] is a hint only. *)

val is_empty : t -> bool

val length : t -> int
(** Number of entries currently stored (including stale duplicates). *)

val push : t -> key:float -> int -> unit
(** [push q ~key v] inserts payload [v] with priority [key]. *)

val pop : t -> (float * int) option
(** Remove and return the entry with the minimum key, or [None] if empty. *)

val clear : t -> unit
(** Remove all entries, keeping the allocated storage. *)

(** Minimum priority queue over [int] keys with [int] payloads.

    Same binary-heap layout as the float version, specialised for discrete
    schedules (the CONGEST simulator's timer wheel: keys are round numbers,
    payloads are vertex identifiers). The access surface is designed to be
    allocation-free on the hot path: [min_key]/[min_payload]/[drop_min]
    instead of option-returning [pop]. Stale entries are the caller's
    problem, as in the float heap (lazy deletion). *)
module Int_heap : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh empty queue. [capacity] is a hint only. *)

  val is_empty : t -> bool

  val length : t -> int
  (** Number of entries currently stored (including stale duplicates). *)

  val push : t -> key:int -> int -> unit
  (** [push q ~key v] inserts payload [v] with priority [key]. *)

  val min_key : t -> int
  (** Smallest key in the queue, or [max_int] when empty — callers compare
      against candidate rounds directly, no option allocation. *)

  val min_payload : t -> int
  (** Payload of the minimum entry. Undefined when the queue is empty; check
      [min_key q <> max_int] (or [is_empty]) first. *)

  val drop_min : t -> unit
  (** Remove the minimum entry. Undefined when the queue is empty. *)

  val clear : t -> unit
  (** Remove all entries, keeping the allocated storage. *)
end
