(** Flat-array compilation of {!Tz.Graph_routing} for the serving hot path.

    Tables, labels and light-edge lists are packed once into parallel int
    arrays (owner-sorted table slices found by binary search; label entries
    kept in level order because the first match is semantic). Forwarding
    then allocates nothing and touches no Hashtbl. [route_into] is proven
    decision-identical to [Graph_routing.route] by {!Differential}. *)

type t

val of_graph_routing : Tz.Graph_routing.t -> t

val n : t -> int
val k : t -> int

val words : t -> int
(** Total ints stored across all packed arrays. *)

val buffer : t -> int array
(** A scratch path buffer large enough for any route ([4n + 2] slots). *)

val route_len : t -> buf:int array -> src:int -> dst:int -> int
(** Forward hop by hop, writing the path into [buf.(0 .. len-1)] and
    returning its length [len >= 1]. A negative return is a typed-error
    code ({!route_into} decodes it); error payloads land in [buf.(0)] /
    [buf.(1)]. Allocation-free even on failed queries — the primitive the
    forwarding engine's hot loop calls, since boxing a [result] per query
    would allocate. *)

val route_into :
  t -> buf:int array -> src:int -> dst:int -> (int, Tz.Routing_error.t) result
(** [route_len] with its error code decoded, packaged as a [result]: writes the path
    into [buf.(0 .. len-1)] and returns its length. Identical decisions
    and errors to [Tz.Graph_routing.route]. *)

val route : t -> src:int -> dst:int -> (int list, Tz.Routing_error.t) result
(** Convenience wrapper around {!route_into} returning the path as a list
    (allocates; use {!route_into} on the hot path). *)
