(** Graph generators used by tests, examples and the benchmark harness.

    All generators take an explicit random state so that every experiment is
    reproducible from a seed. Weighted variants draw i.i.d. edge weights from
    [\[wmin, wmax\]]; the default is the unweighted case [wmin = wmax = 1]. *)

type weight_spec = { wmin : float; wmax : float }

val uniform_weights : float -> float -> weight_spec
(** Weights uniform in the given interval.
    @raise Invalid_argument unless [0 < wmin <= wmax] *)

val gnm : rng:Random.State.t -> ?weights:weight_spec -> n:int -> m:int -> unit -> Graph.t
(** G(n,m): [m] distinct uniform edges. *)

val grid : rng:Random.State.t -> ?weights:weight_spec -> rows:int -> cols:int -> unit -> Graph.t
(** 2D grid (road-network-like: low degree, large diameter). *)

val torus : rng:Random.State.t -> ?weights:weight_spec -> rows:int -> cols:int -> unit -> Graph.t
(** 2D grid with wraparound. *)

val ring : rng:Random.State.t -> ?weights:weight_spec -> n:int -> unit -> Graph.t

val random_tree : rng:Random.State.t -> ?weights:weight_spec -> n:int -> unit -> Graph.t
(** Uniform labelled tree via a random Prüfer sequence. *)

val random_spider : rng:Random.State.t -> ?weights:weight_spec -> legs:int -> leg_len:int -> unit -> Graph.t
(** Star of paths: stresses high-degree roots in tree protocols. *)

val caterpillar : rng:Random.State.t -> ?weights:weight_spec -> spine:int -> legs_per:int -> unit -> Graph.t
(** Path with pendant leaves: deep heavy paths, many light edges. *)

val balanced_tree : rng:Random.State.t -> ?weights:weight_spec -> arity:int -> depth:int -> unit -> Graph.t
(** Complete [arity]-ary tree of the given depth. *)

val preferential_attachment :
  rng:Random.State.t -> ?weights:weight_spec -> n:int -> out_deg:int -> unit -> Graph.t
(** Barabási–Albert power-law graph; each new vertex attaches to [out_deg]
    existing vertices chosen proportionally to degree. *)

val random_regularish :
  rng:Random.State.t -> ?weights:weight_spec -> n:int -> degree:int -> unit -> Graph.t
(** Near-regular expander-like multigraph (pairing model, simplified): good
    small-diameter testbed. *)

val connected_erdos_renyi :
  rng:Random.State.t -> ?weights:weight_spec -> n:int -> avg_deg:float -> unit -> Graph.t
(** G(n, p = avg_deg/n) restricted to its largest component — the standard
    workload for the routing benchmarks. The result may have fewer than [n]
    vertices. *)

val dumbbell :
  rng:Random.State.t -> ?weights:weight_spec -> side:int -> bridge:int -> unit -> Graph.t
(** Two dense blobs joined by a path of [bridge] edges: large shortest-path
    diameter [S] with small blob-internal distances; separates S-dependent
    schemes from D-dependent ones. *)
