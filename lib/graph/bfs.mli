(** Breadth-first search on the underlying unweighted graph.

    Hop distances are the currency of the CONGEST model: the hop-diameter [D]
    bounds broadcast time, and [B]-bounded explorations advance one hop per
    round regardless of edge weights. *)

val distances : Graph.t -> src:int -> int array
(** Hop distance from [src]; [max_int] where unreachable. *)

val tree : Graph.t -> src:int -> int array
(** BFS tree as a parent array ([-1] at the root and unreachable vertices). *)

val eccentricity : Graph.t -> src:int -> int
(** Maximum finite hop distance from [src]. *)

val farthest : Graph.t -> src:int -> int
(** A vertex realising the eccentricity of [src]. *)
