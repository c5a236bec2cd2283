(** Hopset construction on the implicit virtual graph.

    We build Thorup–Zwick *emulator* hopsets: sample a [λ]-level hierarchy
    on [V'], and take as hopset edges every bunch pair
    [{v', w'} : w' ∈ A_i \ A_{i+1}, d(v',w') < d(v', A_{i+1})] plus every
    pivot pair [{v', p_i(v')}], weighted with the exact virtual distance and
    carrying the realizing host path. Huang & Pettie (2019) proved this
    edge set is a [(β, ε)]-hopset with [β = O((λ + 1/ε))^{λ-1}] — the same
    regime as the [EN17b] hopsets the paper plugs in, with the same
    [Õ(m^{1/λ})] per-vertex storage: every vertex keeps only its own bunch
    (its "parents in the arboricity decomposition").

    Every ingredient is deterministic given the level draw, with canonical
    order-independent tie-breaks, so the distributed construction
    ([Routing.Dist_hopset]) reproduces the edge list bit-for-bit:

    - level fields are lexicographic [(dist, src)] fixpoints
      ({!Dgraph.Sssp.dijkstra_sources});
    - bunch fields are truncated waves — a vertex [u] forwards while
      [d < d(u, A_{level(src)+1})] (the superclustering-wave pruning rule,
      evaluated on each vertex's {e own} level field, so protocol and
      Dijkstra agree bitwise);
    - host paths follow {e canonical parents}: among the neighbours [u]
      whose value satisfies [dist(u) + w(u,v) = dist(v)] exactly (and that
      carry the same attributed source, for lex fields), the lex-smallest
      [(dist(u), u)] — a pure function of the fields, independent of heap
      or message-arrival order. *)

val tz_hopset :
  rng:Random.State.t -> lambda:int -> Virtual_graph.t -> Hopset.t
(** [lambda ≥ 2] is the hierarchy depth: storage per virtual vertex is
    [Õ(m^{1/λ})] and the hop bound grows with [λ]. Consumes exactly [m]
    draws from [rng] ({!sample_levels}). *)

(** {1 Construction ingredients} (shared with the distributed path) *)

val sample_levels : rng:Random.State.t -> lambda:int -> m:int -> int array
(** The geometric level climb, one draw sequence per virtual index — the
    exact stream {!tz_hopset} consumes, exposed so the protocol can pre-draw
    identical levels from an identically positioned state. *)

val bunch_field :
  Dgraph.Graph.t -> src:int -> bound:(int -> float) -> float array
(** Truncated single-source field: settled vertices expand only while
    [d < bound v] (the source always expands). Reached-but-pruned vertices
    keep their tentative value, exactly like a protocol wave that receives
    but does not forward. *)

val level_fields :
  Dgraph.Graph.t ->
  int array ->
  lambda:int ->
  levels:int array ->
  float array array * int array array
(** Just the per-level lex fields [(dist_to_level, pivot_of_level)] of
    {!compute_fields} — one multi-source Dijkstra per level, without the
    per-member truncated bunch waves. The sampled differential gate uses it
    to keep every level field exactly checked at sizes where recomputing
    all [m] bunch waves is infeasible. *)

type fields = {
  levels : int array;  (** hopset level per virtual index *)
  dist_to_level : float array array;
      (** [dist_to_level.(i).(v) = d(v, A^H_i)] for [1 ≤ i ≤ λ]; row [λ] is
          all-infinity *)
  pivot_of_level : int array array;
      (** lex source attributions matching [dist_to_level] *)
  bunch_dist : float array array;
      (** per virtual index [jw]: the truncated wave field of [mv.(jw)] *)
}
(** The wave fixpoints the edge list is a pure function of — the unit of
    comparison for the differential gate. *)

val compute_fields :
  Dgraph.Graph.t ->
  int array ->
  lambda:int ->
  levels:int array ->
  fields
(** Centralized reference: per-level lex Dijkstra plus one truncated wave
    per virtual member. *)

val assemble : Virtual_graph.t -> fields -> Hopset.t
(** Deterministic field-to-edge-list step (membership tests, duplicate
    suppression in fixed scan order, canonical-parent paths). Distributed
    and centralized constructions share it verbatim. *)

val stats : Hopset.t -> string
(** One-line summary: size, max out-degree, measured arboricity. *)
