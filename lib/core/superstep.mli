(** The superstep engine behind the executed Appendix B protocols.

    Every executed phase of the construction is the same primitive: a
    hop-bounded Bellman–Ford wave closed by barriers over one BFS tree. This
    module owns everything about that primitive that does not depend on the
    payload, so {!Dist_scheme} and {!Dist_hopset} keep only their wave
    logic:

    + setup: the root (vertex 0) floods a BFS tree whose echo tells it when
      every vertex has a parent; it then opens phase 0;
    + a {e phase} is a sequence of {e segments}. A {e lockstep} segment is
      a sequence of root-synchronized {e supersteps}. At a superstep's
      barrier snapshot the protocol queues its offers; a vertex reports
      [Done] (with the number of payload messages its subtree sent and
      received and the number of state changes its subtree noted,
      {!Make.note_change}) up the tree once its queues are drained and all
      its children reported. The root decides one round later: [Advance]
      opens the next superstep, [Next] closes the segment — on quiescence (a
      superstep that sent nothing) or when the segment's budget of
      supersteps is spent — and names the segment every vertex opens next.
      The one-round deferral lets phase/superstep tags go unsent: an
      [Advance]/[Next] reaches any vertex strictly after every payload
      message of the superstep it closes (BFS depths of graph neighbours
      differ by at most 1), and each inbox is handled control first;
    + a {e free} segment has no barrier per hop. The engine runs the
      protocol's [snapshot] once when the segment opens, then again in every
      round in which the vertex received payload (a {e local} superstep: it
      bumps {!Make.superstep_id} and touches no barrier state), so payload
      moves on arrival, one hop per round. The same [Done]/[Advance]
      convergecast then only counts: each round trip is a {e probe}, and
      [sent] and [received] are cumulative since the segment opened, so a
      send or receipt after a vertex's [Done] shows in the next probe. The
      root closes the segment at the first probe whose total [sent] is 0,
      or when two consecutive probes report the same totals with
      [sent = received] (Mattern's counting method).

      One balanced probe is not enough once a receipt can cause several
      sends: a late receipt at [x] fans out to [y] and [z], [y]'s receipt
      is counted, [z]'s is still in flight, and the totals balance. Two
      equal probes are enough: every count of the first is read no later
      than the root's decision on it, every count of the second after it,
      and counts only grow, so at that decision at most [S₂ − R₁ = 0]
      messages are in flight. A vertex sends only when the segment opens
      ([seg_start] and the first [snapshot], counted before its first
      [Done]) or on a receipt, so nothing moves afterwards and the segment
      is over. A free segment never closes on a
      budget: one that has not balanced after [2n + 4] probes ends the run
      with a [Stalled] failure at the root, which tells every vertex to
      stop.

      The close keeps the timing of [Next]: it leaves the root at round [T]
      and reaches depth [d] at [T + d]. A vertex at depth [d] sends
      next-segment payload from [T + d] on, and payload moves at most one
      hop per round, so it reaches a neighbour (depth at most [d + 1]) no
      earlier than [T + d + 1]: never before that neighbour's own [Next],
      and a same-round arrival is handled after the control message. No
      payload of the closed segment is left to arrive.

      A segment may be free only if its result does not depend on the
      order in which payload arrives: an order-independent fixpoint, or
      proposals buffered and committed in [seg_end]. A hop-bounded wave
      stays lockstep, because its budget counts supersteps and a tie-break
      stamped with the superstep must see each superstep's arrivals
      together;
    + a phase's segments are a {!schedule}: a loop of segments run up to
      [times] passes, then a tail. The loop ends early at its {e fixpoint}:
      when the loop's first segment closes on quiescence, in any pass but
      the first, and no change was noted anywhere since it closed in the
      previous pass, the root's [Next] jumps straight to the tail. That
      pass and all later ones would repeat the previous pass's no-op
      exactly, provided a pass is a deterministic function of the state the
      protocol reports changes of. Changes made in [seg_end] are reported
      in the next segment's first [Done]; a budget close may leave payload
      in flight whose commits come after a [Done], hence the quiescence
      condition;
    + payload messages wait in per-port queues drained at the run's edge
      capacity of 2, sharing each edge's budget with control messages;
    + a watchdog turns a wedged run (crash-stop faults cutting the barrier
      tree) into typed {!failure}s instead of a hang, and a link the
      reliable transport declares dead ends the vertex with [Link_lost];
    + the root records each phase's measured rounds, every vertex CAS-maxes
      its declared words into its phase's peak, and the root opens one
      trace phase span per phase, whose peak memory is filled in after the
      run.

    The same body runs over the raw {!Congest.Sim} transport or over
    {!Congest.Reliable}. *)

type failure =
  | Setup_timeout of { vertex : int; round : int }
      (** the BFS setup never opened phase 0 at this vertex *)
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
      (** watchdog: no message traffic and no barrier progress for a whole
          interval — the typed outcome of a wedged run (e.g. a crash-stop
          fault partitioning the barrier tree) instead of a hang; or, at
          the root, a free segment that did not balance within [2n + 4]
          probes ([superstep] = probes run) *)
  | Link_lost of { vertex : int; neighbor : int; reason : string }
      (** the reliable layer declared an incident edge dead; every edge
          carries wave data, so the run cannot complete *)
  | Harvest of { vertex : int; reason : string }
      (** a protocol found its per-vertex state inconsistent (rejected
          cluster tree, non-adjacent parent, …) *)
  | Transport of string  (** simulator-level outcome: deadlock, round limit *)

val failure_to_string : failure -> string
val pp_failure : Format.formatter -> failure -> unit

(** A protocol's payload messages. The engine adds its own one-slot tag in
    front of the payload's slots. *)
module type PAYLOAD = sig
  type t

  val words : t -> int
  val slots : int
  val encode : Congest.Slab.t -> int -> t -> unit
  val decode : Congest.Slab.t -> int -> t
end

(** How a segment runs: [Lockstep budget] is a sequence of barrier-closed
    supersteps, closed on quiescence or after [budget] of them; [Free]
    forwards payload on arrival and closes on the counting probe. *)
type mode = Lockstep of int | Free

type 's segment = {
  kind : 's;  (** the protocol's name for what the segment does *)
  mode : mode;
}

(** A phase's segments: [loop] run [times] passes (fewer once it reaches
    its fixpoint), then [tail] once. *)
type 's schedule = {
  loop : 's segment array;  (** non-empty *)
  times : int;  (** at least 1 *)
  tail : 's segment array;
}

val single : 's segment -> 's schedule
(** One segment, run once: a schedule that never exits early. *)

type 's plan = {
  setup : string;  (** name of the setup phase *)
  names : string array;  (** one name per phase *)
  details : string array;  (** one {!Cost} detail per phase *)
  schedules : 's schedule array;  (** one per phase *)
}

(** One vertex's protocol: callbacks the engine runs at barrier events, all
    on the vertex's own state. *)
type ('p, 's) steps = {
  seed : unit -> unit;  (** a phase opens *)
  seg_start : 's -> unit;
      (** a segment opens, just before its first snapshot; its sends count
          in the segment's first superstep *)
  snapshot : 's -> unit;
      (** a superstep opens (in a free segment: the segment opens, or
          payload arrived this round): queue this superstep's offers *)
  data : int -> 'p -> unit;
      (** a payload message arrived on this port; in a free segment it may
          send, and the send is counted like the snapshot's *)
  seg_end : 's -> unit;  (** the root closed the segment *)
  phase_end : unit -> unit;  (** after the last segment's [seg_end] *)
  words : unit -> int;
      (** the protocol's declared words; the engine adds 2 per queued
          payload message *)
}

type result = {
  report : Congest.Metrics.t;
  phases : Cost.t;
      (** measured rounds and peak words per phase, setup first *)
  failures : failure list;
      (** transport outcome first, then per-vertex failures by vertex *)
}

module Make (P : PAYLOAD) : sig
  type vertex
  (** One vertex's handle on the engine. *)

  val me : vertex -> int
  val neighbors : vertex -> int array
  val weights : vertex -> float array
  (** [neighbors] and [weights] are indexed by port. *)

  val phase : vertex -> int
  (** The open phase; [-1] during setup. *)

  val superstep_id : vertex -> int
  (** Counts every superstep this vertex opened, the local ones of free
      segments included, across segments and phases — a stamp for commits
      that may only tie within one superstep. *)

  val send : vertex -> int -> P.t -> unit
  (** Queue a payload message on a port. *)

  val send_all : vertex -> except:int -> P.t -> unit
  (** Queue a payload message on every port but [except]. *)

  val note_change : vertex -> unit
  (** Report that this vertex's protocol state just changed (a commit that
      altered or added an entry). The fixpoint exit of a schedule's loop
      is exact only if every such change is noted. *)

  val abort : vertex -> string -> unit
  (** Record a [Harvest] failure and stop this vertex. *)

  val run :
    ?faults:Congest.Fault.t ->
    ?reliable:bool ->
    ?config:Congest.Reliable.config ->
    ?trace:Congest.Trace.t ->
    ?max_rounds:int ->
    ?scheduler:Congest.Sim.scheduler ->
    ?domains:int ->
    Dgraph.Graph.t ->
    's plan ->
    (vertex -> (P.t, 's) steps) ->
    result
  (** Run the plan on every vertex, the protocol's per-vertex state built
      by the last argument. [?reliable] defaults to running over
      {!Congest.Reliable} iff [?faults] is given; the watchdog interval
      dominates that transport's retransmission budget under the
      config in use. The other options go to the transport's [run]. *)
end
