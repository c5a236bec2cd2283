open Dgraph
open Hopsets

(* Appendix B's upper stage, message-by-message: two runs of the
   superstep engine ({!Superstep}), each with its own payloads and steps.

   Run A (construction) computes the wave fixpoints the hopset edge list is
   a pure function of ([Construct.fields]): one lexicographic (dist, src)
   wave per hopset level, then one truncated wave per bunch level with every
   owner of that level concurrent — a vertex forwards an owner's entry only
   while it lies under the vertex's own level field, exactly the
   superclustering pruning rule. Both are order-independent fixpoints, so
   every run-A phase is one free segment (offers forwarded on arrival).
   The harvested fields feed the *shared* [Construct.assemble], so
   distributed and centralized edge lists are identical whenever the
   fields are.

   Run B (approximate Bellman-Ford over G' ∪ H) executes up to [beta]
   iterations per phase (the engine stops the loop at its fixpoint), each
   a [B]-budget host wave segment followed by a relay segment: every
   hopset-edge endpoint launches its post-wave value along the stored host
   path (a free segment: forwarded on arrival, next-hop tables deposited
   by the construction), and the far endpoint buffers proposals committed
   when the segment closes by lex-min (value, edge) — a distributed Jacobi
   step, bit-identical to [Hopset.run_core]'s snapshot relaxation. Cluster
   phases append a free recovery segment (backward trigger to the feeding
   endpoint, then a forward accumulating walk whose proposals commit at
   the segment close by lex-min (acc, prev)) and a final
   [B]-budget limited wave — mirroring [Scheme.approx_cluster_candidates]
   clause for clause.

   Exactness notes: wave commits during run B are *stamped*: within one
   superstep an equal value from a smaller sender id displaces (matching
   [Virtual_graph.bf_iteration_tracked]'s ascending-scan semantics), across
   supersteps only a strict improvement does. Every wave segment starts by
   re-marking all entries dirty — a new Bellman-Ford iteration relaxes
   every current estimate, not only the last superstep's improvements. *)

(* Run A's payload: a lexicographic or truncated wave offer. *)
type offer = Offer of { key : int; dist : float }

module PA = struct
  type t = offer

  let words (Offer _) = 3

  module Sl = Congest.Slab

  let slots = 3

  let encode sl b (Offer { key; dist }) =
    Sl.set sl b key;
    Sl.set_float sl (b + 1) dist

  let decode sl b = Offer { key = Sl.get sl b; dist = Sl.get_float sl (b + 1) }
end

(* Run B's payloads: attributed wave offers, relay hops along hopset-edge
   paths, recovery triggers and recovery walks. *)
type approx_msg =
  | Offer2 of { key : int; dist : float; origin : int }
  | Relay of { key : int; edge : int; dir : int; value : float; origin : int }
  | Rec_req of { key : int; edge : int; dir : int }
  | Rec of { key : int; edge : int; dir : int; acc : float }

module PB = struct
  type t = approx_msg

  let words = function Offer2 _ | Rec_req _ -> 4 | Rec _ -> 5 | Relay _ -> 6

  module Sl = Congest.Slab

  (* widest record: Relay = tag + key + edge + dir + origin + value(2) *)
  let slots = 7

  let encode sl b = function
    | Offer2 { key; dist; origin } ->
      Sl.set sl b 0;
      Sl.set sl (b + 1) key;
      Sl.set sl (b + 2) origin;
      Sl.set_float sl (b + 3) dist
    | Relay { key; edge; dir; value; origin } ->
      Sl.set sl b 1;
      Sl.set sl (b + 1) key;
      Sl.set sl (b + 2) edge;
      Sl.set sl (b + 3) dir;
      Sl.set sl (b + 4) origin;
      Sl.set_float sl (b + 5) value
    | Rec_req { key; edge; dir } ->
      Sl.set sl b 2;
      Sl.set sl (b + 1) key;
      Sl.set sl (b + 2) edge;
      Sl.set sl (b + 3) dir
    | Rec { key; edge; dir; acc } ->
      Sl.set sl b 3;
      Sl.set sl (b + 1) key;
      Sl.set sl (b + 2) edge;
      Sl.set sl (b + 3) dir;
      Sl.set_float sl (b + 4) acc

  let decode sl b =
    match Sl.get sl b with
    | 0 ->
      Offer2
        {
          key = Sl.get sl (b + 1);
          origin = Sl.get sl (b + 2);
          dist = Sl.get_float sl (b + 3);
        }
    | 1 ->
      Relay
        {
          key = Sl.get sl (b + 1);
          edge = Sl.get sl (b + 2);
          dir = Sl.get sl (b + 3);
          origin = Sl.get sl (b + 4);
          value = Sl.get_float sl (b + 5);
        }
    | 2 ->
      Rec_req
        { key = Sl.get sl (b + 1); edge = Sl.get sl (b + 2); dir = Sl.get sl (b + 3) }
    | 3 ->
      Rec
        {
          key = Sl.get sl (b + 1);
          edge = Sl.get sl (b + 2);
          dir = Sl.get sl (b + 3);
          acc = Sl.get_float sl (b + 4);
        }
    | t -> invalid_arg (Printf.sprintf "Dist_hopset: corrupt tag %d" t)
end

module EA = Superstep.Make (PA)
module EB = Superstep.Make (PB)

type failure = Superstep.failure =
  | Setup_timeout of { vertex : int; round : int }
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
  | Link_lost of { vertex : int; neighbor : int; reason : string }
  | Harvest of { vertex : int; reason : string }
  | Transport of string

let failure_to_string = Superstep.failure_to_string
let pp_failure = Superstep.pp_failure

type outcome = {
  upper : Scheme.Upper_stage.t option;
  fields : Construct.fields;
  hopset : Hopset.t option;
  lambda : int;
  beta : int;
  epsilon : float;
  b : int;
  members : int list;
  xlevels : int array;
  k : int;
  ih : int;
  report : Congest.Metrics.t;
  phase_rounds : (string * int) list;
  failures : failure list;
}

(* One wave entry of the keyed table: current best value, the port it was
   learned from (-1 for seeds and relay commits), the attributed origin, the
   superstep id of the last commit (for the stamped tie-break), which hopset
   edge fed the value (-1 = host wave), and the recovery-join flag. *)
type entry = {
  mutable d : float;
  mutable port : int;
  mutable origin : int;
  mutable stamp : int;
  mutable via_edge : int;
  mutable via_dir : int;
  mutable joined : bool;
  mutable dirty : bool;
}

let entry ?(port = -1) ?(origin = -1) ?(stamp = -1) ?(via_edge = -1) ?(via_dir = 0)
    ?(joined = false) d =
  { d; port; origin; stamp; via_edge; via_dir; joined; dirty = true }

type construct_phase = Levels of int | Bunches of int
type approx_phase = Pivots of int | Clusters of int
type approx_seg = Wave | Hop | Recover | Final

let count f a = Array.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 a

(* ---- run A: the construction waves behind [Construct.fields] ---- *)

let construct ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains
    g ~lambda ~hlv =
  let n = Graph.n g in
  let kinds =
    Array.init ((lambda - 1) + lambda) (fun p ->
        if p < lambda - 1 then Levels (p + 1) else Bunches (p - (lambda - 1)))
  in
  let plan =
    {
      Superstep.setup = "hopset setup (BFS)";
      names =
        Array.map
          (function
            | Levels j -> Printf.sprintf "hopset levels %d" j
            | Bunches l -> Printf.sprintf "hopset bunches level %d" l)
          kinds;
      details =
        Array.map
          (function
            | Levels j -> Printf.sprintf "|A^H_%d|=%d" j (count (fun l -> l >= j) hlv)
            | Bunches l -> Printf.sprintf "|owners|=%d" (count (fun x -> x = l) hlv))
          kinds;
      schedules =
        Array.map (fun _ -> Superstep.single { kind = (); mode = Free }) kinds;
    }
  in
  let hl_dist =
    Array.init (lambda + 1) (fun j -> if j = 0 then [||] else Array.make n infinity)
  in
  let hl_src = Array.init (lambda + 1) (fun j -> if j = 0 then [||] else Array.make n (-1)) in
  let bunch_local = Array.make n [] in
  let steps v =
    let me = EA.me v and weights = EA.weights v in
    let p_dist = ref infinity and p_src = ref (-1) and p_port = ref (-1) in
    let p_dirty = ref false in
    let table : (int, entry) Hashtbl.t = Hashtbl.create 8 in
    let my_hl = Array.make (lambda + 1) infinity in
    {
      Superstep.seed =
        (fun () ->
          match kinds.(EA.phase v) with
          | Levels j ->
            if hlv.(me) >= j then begin
              p_dist := 0.0;
              p_src := me;
              p_port := -1;
              p_dirty := true
            end
          | Bunches l -> if hlv.(me) = l then Hashtbl.add table me (entry ~origin:me 0.0));
      seg_start = ignore;
      snapshot =
        (fun () ->
          match kinds.(EA.phase v) with
          | Levels _ ->
            if !p_dirty then begin
              p_dirty := false;
              EA.send_all v ~except:!p_port (Offer { key = !p_src; dist = !p_dist })
            end
          | Bunches l ->
            (* the superclustering pruning rule: forward an owner's entry
               only while it lies under my own level field *)
            Hashtbl.iter
              (fun w e ->
                if e.dirty then begin
                  e.dirty <- false;
                  if w = me || e.d < my_hl.(l + 1) then
                    EA.send_all v ~except:e.port (Offer { key = w; dist = e.d })
                end)
              table);
      data =
        (fun port (Offer { key; dist }) ->
          let nd = dist +. weights.(port) in
          match kinds.(EA.phase v) with
          | Levels _ ->
            (* lexicographic (dist, src): the unique order-independent
               fixpoint equals Sssp.dijkstra_sources bit-for-bit *)
            if nd < !p_dist || (nd = !p_dist && key < !p_src) then begin
              p_dist := nd;
              p_src := key;
              p_port := port;
              p_dirty := true
            end
          | Bunches _ -> (
            match Hashtbl.find_opt table key with
            | Some e ->
              if nd < e.d then begin
                e.d <- nd;
                e.port <- port;
                e.dirty <- true
              end
            | None -> Hashtbl.add table key (entry ~port nd)));
      seg_end = ignore;
      phase_end =
        (fun () ->
          match kinds.(EA.phase v) with
          | Levels j ->
            hl_dist.(j).(me) <- !p_dist;
            hl_src.(j).(me) <- !p_src;
            my_hl.(j) <- !p_dist;
            p_dist := infinity;
            p_src := -1;
            p_port := -1;
            p_dirty := false
          | Bunches _ ->
            Hashtbl.iter (fun w e -> bunch_local.(me) <- (w, e.d) :: bunch_local.(me)) table;
            Hashtbl.reset table);
      words = (fun () -> 16 + Array.length my_hl + (8 * Hashtbl.length table));
    }
  in
  let res =
    EA.run ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g plan steps
  in
  (res, hl_dist, hl_src, bunch_local)

(* ---- run B: approximate pivots and cluster waves over G' ∪ H ---- *)

let approximate ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains
    g ~k ~ih ~beta ~epsilon ~b ~xlevels (edges : Hopset.edge array) =
  let n = Graph.n g in
  let one_eps = 1.0 +. epsilon in
  (* relay tables: per-vertex incident hopset edges (edge, dir, weight) and
     next hops along the stored paths, keyed 2*edge + dir *)
  let inc = Array.make n [] in
  let succ = Array.init n (fun _ -> Hashtbl.create 2) in
  Array.iteri
    (fun i (e : Hopset.edge) ->
      inc.(e.x) <- (i, 0, e.w) :: inc.(e.x);
      inc.(e.y) <- (i, 1, e.w) :: inc.(e.y);
      let p = e.path in
      let l = Array.length p in
      for j = 0 to l - 1 do
        if j < l - 1 then Hashtbl.replace succ.(p.(j)) ((2 * i) + 0) p.(j + 1);
        if j > 0 then Hashtbl.replace succ.(p.(j)) ((2 * i) + 1) p.(j - 1)
      done)
    edges;
  let np = k - 1 - ih in
  let kinds =
    Array.init (np + (k - ih)) (fun p ->
        if p < np then Pivots (ih + 1 + p) else Clusters (ih + (p - np)))
  in
  (* up to beta iterations of a B-budget host wave then a free relay
     segment; the engine ends the loop once an iteration changes nothing *)
  let iterations =
    {
      Superstep.loop =
        [| { kind = Wave; mode = Lockstep b }; { kind = Hop; mode = Free } |];
      times = beta;
      tail = [||];
    }
  in
  let plan =
    {
      Superstep.setup = "approx setup (BFS)";
      names =
        Array.map
          (function
            | Pivots j -> Printf.sprintf "approx pivots level %d" j
            | Clusters i -> Printf.sprintf "approx clusters level %d" i)
          kinds;
      details =
        Array.map
          (function
            | Pivots j -> Printf.sprintf "|A_%d|=%d" j (count (fun l -> l >= j) xlevels)
            | Clusters i -> Printf.sprintf "|owners|=%d" (count (fun l -> l = i) xlevels))
          kinds;
      schedules =
        Array.map
          (function
            | Pivots _ -> iterations
            | Clusters _ ->
              {
                iterations with
                tail =
                  [| { kind = Recover; mode = Free }; { kind = Final; mode = Lockstep b } |];
              })
          kinds;
    }
  in
  let pe_dist = Array.init k (fun _ -> Array.make n infinity) in
  let pe_org = Array.init k (fun _ -> Array.make n (-1)) in
  let cl_local = Array.make n [] in
  let steps v =
    let me = EB.me v and neighbors = EB.neighbors v and weights = EB.weights v in
    let port_of : (int, int) Hashtbl.t = Hashtbl.create (max 1 (Array.length neighbors)) in
    Array.iteri (fun p u -> Hashtbl.replace port_of u p) neighbors;
    let q_dist = ref infinity
    and q_org = ref (-1)
    and q_port = ref (-1)
    and q_stamp = ref (-1)
    and q_dirty = ref false in
    let table : (int, entry) Hashtbl.t = Hashtbl.create 8 in
    let my_dhat = Array.make (k + 1) infinity in
    let relay_prop : (int, float * int * int * int) Hashtbl.t = Hashtbl.create 4 in
    let rec_prop : (int, float * int) Hashtbl.t = Hashtbl.create 4 in
    let rec0 : (int, float) Hashtbl.t = Hashtbl.create 4 in
    let relay_words = (3 * List.length inc.(me)) + (2 * Hashtbl.length succ.(me)) in
    (* one hop along a stored path; relay and recovery segments are free, so
       the hop is sent on arrival *)
    let fwd ei dir m =
      match Hashtbl.find_opt succ.(me) ((2 * ei) + dir) with
      | Some nxt -> (
        match Hashtbl.find_opt port_of nxt with
        | Some p -> EB.send v p m
        | None -> EB.abort v (Printf.sprintf "relay next hop %d not adjacent" nxt))
      | None -> ()
    in
    let has_succ ei dir = Hashtbl.mem succ.(me) ((2 * ei) + dir) in
    {
      Superstep.seed =
        (fun () ->
          match kinds.(EB.phase v) with
          | Pivots j ->
            if xlevels.(me) >= j then begin
              q_dist := 0.0;
              q_org := me;
              q_port := -1;
              q_stamp := -1;
              q_dirty := true
            end
          | Clusters i -> if xlevels.(me) = i then Hashtbl.add table me (entry ~origin:me 0.0));
      seg_start =
        (function
          | Wave | Final -> (
            (* a fresh Bellman-Ford iteration relaxes every current estimate *)
            match kinds.(EB.phase v) with
            | Pivots _ -> if !q_dist < infinity then q_dirty := true
            | Clusters _ -> Hashtbl.iter (fun _ e -> e.dirty <- true) table)
          | Hop -> (
            (* Jacobi step: every admissible endpoint launches its post-wave
               snapshot value along each incident hopset edge *)
            match kinds.(EB.phase v) with
            | Pivots _ ->
              if !q_dist < infinity then
                List.iter
                  (fun (ei, dir, w) ->
                    fwd ei dir
                      (Relay { key = 0; edge = ei; dir; value = !q_dist +. w; origin = !q_org }))
                  inc.(me)
            | Clusters i ->
              Hashtbl.iter
                (fun w e ->
                  if e.d < infinity && (w = me || e.d *. one_eps *. one_eps < my_dhat.(i + 1))
                  then
                    List.iter
                      (fun (ei, dir, ew) ->
                        fwd ei dir
                          (Relay { key = w; edge = ei; dir; value = e.d +. ew; origin = -1 }))
                      inc.(me))
                table)
          | Recover -> (
            (* snapshot candidates, then trigger a walk for every entry the
               hopset fed within the virtual limit (Claim 9's premise) *)
            Hashtbl.reset rec0;
            Hashtbl.iter (fun w e -> Hashtbl.replace rec0 w e.d) table;
            match kinds.(EB.phase v) with
            | Clusters i ->
              Hashtbl.iter
                (fun w e ->
                  if
                    e.via_edge >= 0 && e.d < infinity
                    && e.d *. one_eps *. one_eps < my_dhat.(i + 1)
                  then
                    fwd e.via_edge (1 - e.via_dir)
                      (Rec_req { key = w; edge = e.via_edge; dir = e.via_dir }))
                table
            | Pivots _ -> ()));
      (* snapshot: wave segments offer dirty entries (subject to the
         forwarding predicate); relay/recovery segments send in [seg_start]
         and [data] *)
      snapshot =
        (function
          | Wave | Final -> (
            match kinds.(EB.phase v) with
            | Pivots _ ->
              if !q_dirty then begin
                q_dirty := false;
                EB.send_all v ~except:!q_port
                  (Offer2 { key = 0; dist = !q_dist; origin = !q_org })
              end
            | Clusters i ->
              Hashtbl.iter
                (fun w e ->
                  if e.dirty then begin
                    e.dirty <- false;
                    if w = me || e.d *. one_eps < my_dhat.(i + 1) then
                      EB.send_all v ~except:e.port
                        (Offer2 { key = w; dist = e.d; origin = e.origin })
                  end)
                table)
          | Hop | Recover -> ());
      data =
        (fun port m ->
          match m with
          | Offer2 { key; dist; origin } -> (
            let nd = dist +. weights.(port) in
            let sender = neighbors.(port) in
            let ss_id = EB.superstep_id v in
            (* stamped commit: within one superstep an equal value from a
               smaller sender displaces; across supersteps only strict < *)
            match kinds.(EB.phase v) with
            | Pivots _ ->
              if
                nd < !q_dist
                || (nd = !q_dist && !q_stamp = ss_id && !q_port >= 0
                   && sender < neighbors.(!q_port))
              then begin
                q_dist := nd;
                q_org := origin;
                q_port := port;
                q_stamp := ss_id;
                q_dirty := true;
                EB.note_change v
              end
            | Clusters _ -> (
              match Hashtbl.find_opt table key with
              | Some e ->
                if
                  nd < e.d
                  || (nd = e.d && e.stamp = ss_id && e.port >= 0
                     && sender < neighbors.(e.port))
                then begin
                  e.d <- nd;
                  e.port <- port;
                  e.origin <- origin;
                  e.stamp <- ss_id;
                  e.via_edge <- -1;
                  e.joined <- false;
                  e.dirty <- true;
                  EB.note_change v
                end
              | None ->
                Hashtbl.add table key (entry ~port ~origin ~stamp:ss_id nd);
                EB.note_change v))
          | Relay { key; edge; dir; value; origin } ->
            if has_succ edge dir then fwd edge dir m
            else begin
              (* destination endpoint: buffer, committed when the segment
                 closes by lex-min (value, edge) — the Jacobi tie-break *)
              match Hashtbl.find_opt relay_prop key with
              | Some (v0, e0, _, _) when (v0, e0) <= (value, edge) -> ()
              | _ -> Hashtbl.replace relay_prop key (value, edge, dir, origin)
            end
          | Rec_req { key; edge; dir } ->
            if has_succ edge (1 - dir) then fwd edge (1 - dir) m
            else begin
              (* feeding endpoint: start the accumulating walk from my own
                 pre-recovery candidate *)
              let acc =
                match Hashtbl.find_opt rec0 key with Some d -> d | None -> infinity
              in
              fwd edge dir (Rec { key; edge; dir; acc })
            end
          | Rec { key; edge; dir; acc } ->
            let acc' = acc +. weights.(port) in
            let prev = neighbors.(port) in
            let cd0 =
              match Hashtbl.find_opt rec0 key with Some d -> d | None -> infinity
            in
            (* <= with tolerance: the endpoint's candidate ties its recorded
               estimate and must still acquire a parent on the path *)
            if acc' <= cd0 +. (1e-9 *. (1.0 +. abs_float cd0)) then begin
              match Hashtbl.find_opt rec_prop key with
              | Some (a0, p0) when (a0, p0) <= (acc', prev) -> ()
              | _ -> Hashtbl.replace rec_prop key (acc', prev)
            end;
            if has_succ edge dir then fwd edge dir (Rec { key; edge; dir; acc = acc' }));
      (* proposals buffered during a relay/recovery segment commit when it
         closes — all derived from the same snapshot, so the result is
         independent of arrival order *)
      seg_end =
        (function
          | Wave | Final -> ()
          | Hop ->
            (match kinds.(EB.phase v) with
            | Pivots _ ->
              Hashtbl.iter
                (fun _ (x, _, _, o) ->
                  if x < !q_dist then begin
                    q_dist := x;
                    q_org := o;
                    q_port := -1;
                    q_dirty := true;
                    EB.note_change v
                  end)
                relay_prop
            | Clusters _ ->
              Hashtbl.iter
                (fun w (x, ei, dir, _) ->
                  match Hashtbl.find_opt table w with
                  | Some e ->
                    if x < e.d then begin
                      e.d <- x;
                      e.port <- -1;
                      e.via_edge <- ei;
                      e.via_dir <- dir;
                      e.joined <- false;
                      e.dirty <- true;
                      EB.note_change v
                    end
                  | None ->
                    Hashtbl.add table w (entry ~via_edge:ei ~via_dir:dir x);
                    EB.note_change v)
                relay_prop);
            Hashtbl.reset relay_prop
          | Recover ->
            Hashtbl.iter
              (fun w (acc, prev) ->
                if acc < infinity then begin
                  let e =
                    match Hashtbl.find_opt table w with
                    | Some e -> e
                    | None ->
                      let e = entry infinity in
                      Hashtbl.add table w e;
                      e
                  in
                  e.d <- Float.min acc e.d;
                  (match Hashtbl.find_opt port_of prev with
                  | Some p -> e.port <- p
                  | None -> EB.abort v (Printf.sprintf "recovery parent %d not adjacent" prev));
                  e.via_edge <- -1;
                  e.joined <- true;
                  e.dirty <- true
                end)
              rec_prop;
            Hashtbl.reset rec_prop;
            Hashtbl.reset rec0);
      phase_end =
        (fun () ->
          match kinds.(EB.phase v) with
          | Pivots j ->
            pe_dist.(j).(me) <- !q_dist;
            pe_org.(j).(me) <- !q_org;
            my_dhat.(j) <- !q_dist;
            q_dist := infinity;
            q_org := -1;
            q_port := -1;
            q_stamp := -1;
            q_dirty := false
          | Clusters _ ->
            Hashtbl.iter
              (fun w e ->
                cl_local.(me) <-
                  (w, e.d, (if e.port >= 0 then neighbors.(e.port) else -1), e.joined)
                  :: cl_local.(me))
              table;
            Hashtbl.reset table);
      words =
        (fun () ->
          16 + Array.length my_dhat + relay_words
          + (8 * Hashtbl.length table)
          + (4 * Hashtbl.length relay_prop)
          + (2 * Hashtbl.length rec_prop)
          + (2 * Hashtbl.length rec0));
    }
  in
  let res =
    EB.run ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g plan steps
  in
  (res, pe_dist, pe_org, cl_local)

let run ~rng ?(params = Scheme.Params.default) ?faults ?reliable ?config ?trace
    ?max_rounds ?scheduler ?domains g (ds : Dist_scheme.outcome) =
  let n = Graph.n g in
  let exact = ds.Dist_scheme.exact in
  let k = exact.Scheme.Exact_stage.k in
  let ih = exact.Scheme.Exact_stage.ih in
  let xlevels = exact.Scheme.Exact_stage.levels in
  let lambda = params.Scheme.Params.lambda in
  if lambda < 2 then invalid_arg "Dist_hopset.run: lambda >= 2 required";
  let beta = Scheme.Params.beta params in
  let epsilon = params.Scheme.Params.epsilon in
  let b = ds.Dist_scheme.b in
  let members = ds.Dist_scheme.members in
  let vg = Virtual_graph.make g ~members ~b in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  (* level pre-draw: the exact stream Construct.tz_hopset consumes, so the
     hopset hierarchy is bit-identical on an identically positioned state *)
  let hlevels = Construct.sample_levels ~rng ~lambda ~m in
  let hlv = Array.make n (-1) in
  Array.iteri (fun j v -> hlv.(v) <- hlevels.(j)) mv;
  let post : failure list ref = ref [] in
  let harvest vertex reason = post := Harvest { vertex; reason } :: !post in
  let res_a, hl_dist, hl_src, bunch_local =
    construct ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g
      ~lambda ~hlv
  in
  let fields =
    {
      Construct.levels = hlevels;
      dist_to_level = hl_dist;
      pivot_of_level = hl_src;
      bunch_dist =
        (let rows = Array.init m (fun _ -> Array.make n infinity) in
         Array.iteri
           (fun v entries ->
             List.iter
               (fun (w, d) ->
                 match Virtual_graph.to_virtual vg w with
                 | Some jw -> rows.(jw).(v) <- d
                 | None -> harvest v (Printf.sprintf "bunch owner %d not virtual" w))
               entries)
           bunch_local;
         rows);
    }
  in
  let mk_outcome ~upper ~hopset res_b =
    let runs = res_a :: Option.to_list res_b in
    {
      upper;
      fields;
      hopset;
      lambda;
      beta;
      epsilon;
      b;
      members;
      xlevels;
      k;
      ih;
      report =
        (match res_b with
        | None -> res_a.Superstep.report
        | Some r -> Congest.Metrics.merge res_a.Superstep.report r.Superstep.report);
      phase_rounds =
        List.concat_map
          (fun (r : Superstep.result) ->
            List.map
              (fun (p : Cost.phase) -> (p.Cost.name, p.Cost.rounds))
              (Cost.phases r.phases))
          runs;
      failures =
        List.concat_map (fun (r : Superstep.result) -> r.failures) runs @ List.rev !post;
    }
  in
  if res_a.Superstep.failures <> [] || !post <> [] then
    mk_outcome ~upper:None ~hopset:None None
  else
    match Construct.assemble vg fields with
    | exception Invalid_argument msg ->
      harvest (-1) ("assemble rejected fields: " ^ msg);
      mk_outcome ~upper:None ~hopset:None None
    | hopset ->
      let edges = Hopset.edges hopset in
      let res_b, pe_dist, pe_org, cl_local =
        approximate ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g
          ~k ~ih ~beta ~epsilon ~b ~xlevels edges
      in
      let failed () = res_b.Superstep.failures <> [] || !post <> [] in
      if failed () then mk_outcome ~upper:None ~hopset:(Some hopset) (Some res_b)
      else begin
        let pivot_estimates = ref [] in
        for j = k - 1 downto ih + 1 do
          pivot_estimates := (j, (pe_dist.(j), pe_org.(j))) :: !pivot_estimates
        done;
        let waves : (int, Scheme.Upper_stage.cluster_wave) Hashtbl.t =
          Hashtbl.create 64
        in
        for w = 0 to n - 1 do
          if xlevels.(w) >= ih then
            Hashtbl.replace waves w
              {
                Scheme.Upper_stage.owner = w;
                level = xlevels.(w);
                cdist = Array.make n infinity;
                cparent = Array.make n (-1);
                joined = Array.make n false;
              }
        done;
        Array.iteri
          (fun v entries ->
            List.iter
              (fun (w, d, par, joined) ->
                match Hashtbl.find_opt waves w with
                | Some cw ->
                  cw.Scheme.Upper_stage.cdist.(v) <- d;
                  cw.Scheme.Upper_stage.cparent.(v) <- par;
                  cw.Scheme.Upper_stage.joined.(v) <- joined
                | None -> harvest v (Printf.sprintf "cluster deposit for non-owner %d" w))
              entries)
          cl_local;
        let cluster_waves = ref [] in
        for w = n - 1 downto 0 do
          match Hashtbl.find_opt waves w with
          | Some cw -> cluster_waves := cw :: !cluster_waves
          | None -> ()
        done;
        let upper =
          {
            Scheme.Upper_stage.hopset_edges = Array.to_list edges;
            pivot_estimates = !pivot_estimates;
            cluster_waves = !cluster_waves;
            (* newest first, as Cost keeps them *)
            phases =
              {
                Cost.phases =
                  res_b.Superstep.phases.Cost.phases @ res_a.Superstep.phases.Cost.phases;
              };
          }
        in
        if failed () then mk_outcome ~upper:None ~hopset:(Some hopset) (Some res_b)
        else mk_outcome ~upper:(Some upper) ~hopset:(Some hopset) (Some res_b)
      end

(* ---- differential gate ---- *)

let check_against_centralized ~rng ?(mode = Dist_scheme.Exact) g (o : outcome) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = Graph.n g in
  let vg = Virtual_graph.make g ~members:o.members ~b:o.b in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  (* hopset levels: always exact — one pass over the pre-drawn stream *)
  let hlevels = Construct.sample_levels ~rng ~lambda:o.lambda ~m in
  Array.iteri
    (fun j l ->
      if o.fields.Construct.levels.(j) <> l then
        err "hopset level of w'=%d: distributed %d, centralized %d" mv.(j)
          o.fields.Construct.levels.(j) l)
    hlevels;
  (* level fields: always exact — one lex multi-source Dijkstra per level *)
  let cdl, cpl = Construct.level_fields g mv ~lambda:o.lambda ~levels:hlevels in
  for i = 1 to o.lambda do
    for v = 0 to n - 1 do
      if cdl.(i).(v) <> o.fields.Construct.dist_to_level.(i).(v) then
        err "d(v%d, A^H_%d): distributed %h, centralized %h" v i
          o.fields.Construct.dist_to_level.(i).(v)
          cdl.(i).(v);
      if cpl.(i).(v) <> o.fields.Construct.pivot_of_level.(i).(v) then
        err "hopset pivot_%d(v%d): distributed %d, centralized %d" i v
          o.fields.Construct.pivot_of_level.(i).(v)
          cpl.(i).(v)
    done
  done;
  (* bunch fields: each is a truncated Dijkstra — the per-member blocker
     worth sampling at large n *)
  let check_bunch jw =
    let bound v = cdl.(hlevels.(jw) + 1).(v) in
    let f = Construct.bunch_field g ~src:mv.(jw) ~bound in
    if f <> o.fields.Construct.bunch_dist.(jw) then
      err "bunch field of w'=%d: distributed wave differs from truncated Dijkstra"
        mv.(jw)
  in
  (match mode with
  | Dist_scheme.Exact ->
    for jw = 0 to m - 1 do
      check_bunch jw
    done
  | Dist_scheme.Sampled { sample; seed } ->
    let srng = Random.State.make [| seed; n; 17 |] in
    List.iter check_bunch (Dist_scheme.sample_indices srng m sample));
  (match o.upper with
  | None -> ()
  | Some u ->
    (* hopset edge list: in exact mode re-assembled from the centralized
       fields and compared edge-for-edge; in sampled mode the distributed
       edge list (whose fields were spot-checked above) seeds the run-B
       reference directly *)
    let hopset =
      match mode with
      | Dist_scheme.Exact ->
        let cf = Construct.compute_fields g mv ~lambda:o.lambda ~levels:hlevels in
        let ch = Construct.assemble vg cf in
        let ce = Hopset.edges ch in
        let de = Array.of_list u.Scheme.Upper_stage.hopset_edges in
        if Array.length ce <> Array.length de then
          err "hopset size: distributed %d, centralized %d" (Array.length de)
            (Array.length ce)
        else
          Array.iteri
            (fun i (c : Hopset.edge) ->
              let d = de.(i) in
              if
                c.Hopset.x <> d.Hopset.x || c.Hopset.y <> d.Hopset.y
                || c.Hopset.w <> d.Hopset.w
                || c.Hopset.path <> d.Hopset.path
              then err "hopset edge %d differs ({%d,%d} vs {%d,%d})" i d.Hopset.x d.Hopset.y c.Hopset.x c.Hopset.y)
            ce;
        ch
      | Dist_scheme.Sampled _ -> Hopset.make vg u.Scheme.Upper_stage.hopset_edges
    in
    (* approximate pivots: always exact — one run per high level is cheap *)
    let est = Hashtbl.create 8 in
    for j = o.ih + 1 to o.k - 1 do
      let srcs = ref [] in
      for v = n - 1 downto 0 do
        if o.xlevels.(v) >= j then srcs := (v, 0.0) :: !srcs
      done;
      if !srcs <> [] then begin
        let dist, _, origin = Hopset.run_attributed hopset ~sources:!srcs ~beta:o.beta in
        Hashtbl.replace est j dist;
        match List.assoc_opt j u.Scheme.Upper_stage.pivot_estimates with
        | None -> err "missing pivot estimates for level %d" j
        | Some (dd, dorg) ->
          for v = 0 to n - 1 do
            if dist.(v) <> dd.(v) then
              err "dhat(v%d, A_%d): distributed %h, centralized %h" v j dd.(v) dist.(v);
            if origin.(v) <> dorg.(v) then
              err "approx pivot_%d(v%d): distributed %d, centralized %d" j v
                dorg.(v) origin.(v)
          done
      end
    done;
    let inf_arr = lazy (Array.make n infinity) in
    let dhat j =
      if j >= o.k then Lazy.force inf_arr
      else
        match Hashtbl.find_opt est j with
        | Some d -> d
        | None -> Lazy.force inf_arr
    in
    (* cluster waves: one limited exploration + recovery + final wave per
       owner — the run-B blocker worth sampling *)
    let owners = ref [] in
    for i = o.k - 1 downto o.ih do
      for w = n - 1 downto 0 do
        if o.xlevels.(w) = i then owners := (i, w) :: !owners
      done
    done;
    let owners = Array.of_list !owners in
    let check_owner (i, w) =
      let limits = dhat (i + 1) in
      let _, _, cdist, cparent, joined =
        Scheme.approx_cluster_candidates ~hopset ~vg ~epsilon:o.epsilon
          ~beta:o.beta ~limits g ~owner:w
      in
      match
        List.find_opt
          (fun (cw : Scheme.Upper_stage.cluster_wave) ->
            cw.Scheme.Upper_stage.owner = w && cw.Scheme.Upper_stage.level = i)
          u.Scheme.Upper_stage.cluster_waves
      with
      | None -> err "missing cluster wave of owner %d (level %d)" w i
      | Some cw ->
        for v = 0 to n - 1 do
          if cw.Scheme.Upper_stage.cdist.(v) <> cdist.(v) then
            err "cluster %d: cdist(v%d) distributed %h, centralized %h" w v
              cw.Scheme.Upper_stage.cdist.(v) cdist.(v);
          if cw.Scheme.Upper_stage.cparent.(v) <> cparent.(v) then
            err "cluster %d: cparent(v%d) distributed %d, centralized %d" w v
              cw.Scheme.Upper_stage.cparent.(v) cparent.(v);
          if cw.Scheme.Upper_stage.joined.(v) <> joined.(v) then
            err "cluster %d: joined(v%d) differs" w v
        done
    in
    (match mode with
    | Dist_scheme.Exact -> Array.iter check_owner owners
    | Dist_scheme.Sampled { sample; seed } ->
      let srng = Random.State.make [| seed; n; 19 |] in
      List.iter
        (fun i -> check_owner owners.(i))
        (Dist_scheme.sample_indices srng (Array.length owners) sample)));
  List.rev !errs

let build_scheme ~rng ?trace g (ds : Dist_scheme.outcome) (o : outcome) =
  let params =
    {
      Scheme.Params.b = Some ds.Dist_scheme.b;
      lambda = o.lambda;
      beta = Some o.beta;
      epsilon = o.epsilon;
    }
  in
  Scheme.build_from_exact ~rng ~params ?trace ?upper:o.upper
    ~exact:ds.Dist_scheme.exact g

let build_full ~rng ~k ?(params = Scheme.Params.default) ?faults ?reliable
    ?config ?trace ?max_rounds ?scheduler ?domains g =
  let ds =
    Dist_scheme.run ~rng ~k ?b:params.Scheme.Params.b ?faults ?reliable ?config
      ?trace ?max_rounds ?scheduler ?domains g
  in
  if ds.Dist_scheme.failures <> [] then (ds, None, None)
  else
    let o =
      run ~rng ~params ?faults ?reliable ?config ?trace ?max_rounds ?scheduler
        ?domains g ds
    in
    let scheme =
      if o.failures = [] && o.upper <> None then Some (build_scheme ~rng g ds o)
      else None
    in
    (ds, Some o, scheme)
