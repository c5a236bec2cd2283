(** Weighted undirected graphs with dense integer vertex identifiers.

    Vertices are integers in [\[0, n)]. The graph is stored as per-vertex
    adjacency arrays of [(neighbour, weight)] pairs, mirroring the view a
    CONGEST processor has of its incident edges ("ports"). Edge weights are
    strictly positive floats. Parallel edges are collapsed to the lightest at
    construction; self-loops are dropped. *)

type t

type edge = { u : int; v : int; w : float }

(** {1 Construction} *)

val of_edges : n:int -> edge list -> t
(** Build a graph on [n] vertices from an undirected edge list. Self-loops are
    ignored; among parallel edges the minimum weight is kept.
    @raise Invalid_argument on out-of-range endpoints or non-positive weight *)

(** {1 Accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int

val neighbors : t -> int -> (int * float) array
(** Adjacency row of a vertex. The returned array is owned by the graph and
    must not be mutated. Index into this array = the port number of the edge
    at this endpoint. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

val fold_neighbors : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a

val weight : t -> int -> int -> float option
(** [weight g u v] is the weight of edge [{u,v}] if present. *)

val has_edge : t -> int -> int -> bool

val port : t -> int -> int -> int option
(** [port g u v] is the index of [v] in [u]'s adjacency row, if adjacent. *)

val endpoint : t -> int -> int -> int * float
(** [endpoint g u p] is the neighbour and weight reached from [u] via port
    [p].
    @raise Invalid_argument if [p] is out of range *)

val edges : t -> edge list
(** Every undirected edge exactly once, with [u < v]. *)

val max_degree : t -> int

val total_weight : t -> float

(** {1 Transformations} *)

val map_weights : t -> (int -> int -> float -> float) -> t
(** [map_weights g f] applies [f u v w] to every edge (called once per
    undirected edge with [u < v]). *)

val unweighted : t -> t
(** Same topology with all weights set to [1.0]. *)

val subgraph : t -> keep:(int -> bool) -> t * int array
(** Induced subgraph on the kept vertices, with vertices renumbered densely.
    Returns the subgraph and the [new -> old] vertex map. *)

val union_edges : t -> edge list -> t
(** Add extra edges (e.g. a hopset) to a graph, keeping minimum weights. *)

(** {1 Connectivity} *)

val is_connected : t -> bool

val components : t -> int array
(** Component label per vertex, labels in [\[0, #components)]. *)

val largest_component : t -> t * int array
(** Induced subgraph of the largest connected component plus the
    [new -> old] map. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Summary line: vertex/edge counts and degree statistics. *)
