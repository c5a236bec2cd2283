(** Thorup–Zwick approximate distance oracle (stretch [2k−1]).

    Not used by the routing scheme itself, but part of the same machinery
    (bunches are the dual of clusters) and the cheapest end-to-end sanity
    check of the hierarchy: if the oracle's stretch bound holds, sampling,
    pivots and bunches are all consistent. *)

type t

type answer =
  | Distance of float
  | Disconnected
      (** The endpoints lie in different connected components; no finite
          distance exists. *)
  | Broken_hierarchy of { u : int; v : int; level : int }
      (** The bunch walk exhausted all [k] levels on a {e connected} pair.
          The TZ invariants make this impossible on a well-formed oracle
          (a top-level pivot's cluster spans its whole component), so this
          is a data-corruption diagnosis, not a distance. *)

val build : rng:Random.State.t -> k:int -> Dgraph.Graph.t -> t

val of_hierarchy : Dgraph.Graph.t -> Hierarchy.t -> t
(** Reuse an existing hierarchy (e.g. to compare against a routing scheme
    built on the same sample). *)

val k : t -> int

val n : t -> int
(** Number of vertices the oracle was built for. *)

val hierarchy : t -> Hierarchy.t
(** The sampling hierarchy the oracle was built on (pivots and level
    distances) — exposed so {!module:Serve.Packed_oracle} can compile the
    walk into flat arrays. *)

val bunch_entries : t -> int -> (int * float) list
(** [(w, d(v,w))] rows of [B(v)], in unspecified order. *)

val query : t -> int -> int -> float
(** Estimated distance: [d(u,v) ≤ query t u v ≤ (2k−1)·d(u,v)] whp.
    [infinity] iff the endpoints are disconnected.
    @raise Invalid_argument if the bunch walk exhausts on a connected pair —
    a broken-hierarchy invariant violation that earlier versions silently
    reported as [infinity]. Use {!query_checked} to inspect without
    raising. *)

val query_checked : t -> int -> int -> answer
(** Like {!query} but distinguishes the legitimate [Disconnected] answer
    from a [Broken_hierarchy] invariant violation instead of raising. *)

val drop_bunch_entry : t -> v:int -> w:int -> t
(** Testing hook: a copy of the oracle with [w] removed from [B(v)],
    deliberately violating the bunch invariants so corruption detection can
    be exercised. Never use outside tests. *)

val max_bunch_size : t -> int
