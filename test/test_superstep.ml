(* Tests for the superstep engine: a schedule's loop of segments ends at
   its fixpoint, never on a segment closed by its budget, and the tail runs
   after the exit; a free segment forwards on arrival and closes only once
   nothing is in flight. The protocols are toy token relays whose timing is
   known exactly, so each test pins the case it is about. *)

open Dgraph

(* A token relay: each reached vertex re-offers the token to its successor
   in [succ] at the first superstep of every loop segment (the tail relays
   nothing), and a vertex that first hears the token is reached. A pass is a deterministic
   function of the reached set, so the fixpoint exit must not change it. *)
module Tok = struct
  type t = unit

  let words () = 1
  let slots = 1
  let encode sl b () = Congest.Slab.set sl b 0
  let decode _ _ = ()
end

module E = Routing.Superstep.Make (Tok)

type seg = Loop | Tail

(* Root 0 with three depth-1 leaves a = 1, b = 2, c = 3 and the side edges
   a-b and b-c. The token goes 0 -> a -> b -> c: the root's offer lands
   together with the barrier that opens a's segment (a commits before its
   [Done]); a's offer to b, a same-depth leaf, lands one round after b's
   [Done]. *)
let fan () =
  Graph.of_edges ~n:4
    (List.map
       (fun (u, v) -> { Graph.u; v; w = 1.0 })
       [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3) ])

let succ = [| 1; 2; 3; -1 |]

(* Runs two identical phases of [times] passes of one loop segment with the
   given budget, then a one-superstep tail. Returns the reached set of each
   phase, how often each vertex opened the tail, and the measured rounds
   per phase. *)
let relay ?reliable ~budget ~times () =
  let g = fan () in
  let n = Graph.n g in
  let reached_at = Array.make_matrix 2 n false in
  let tails = Array.make n 0 in
  let schedule =
    {
      Routing.Superstep.loop =
        [| { Routing.Superstep.kind = Loop; mode = Lockstep budget } |];
      times;
      tail = [| { kind = Tail; mode = Lockstep 1 } |];
    }
  in
  let plan =
    {
      Routing.Superstep.setup = "setup";
      names = [| "relay 0"; "relay 1" |];
      details = [| ""; "" |];
      schedules = [| schedule; schedule |];
    }
  in
  let steps v =
    let me = E.me v in
    let reached = ref false and dirty = ref false in
    let port =
      if succ.(me) < 0 then -1
      else
        match Graph.port g me succ.(me) with
        | Some p -> p
        | None -> invalid_arg "relay successor not adjacent"
    in
    {
      Routing.Superstep.seed =
        (fun () ->
          reached := me = 0;
          dirty := false);
      seg_start =
        (function Loop -> dirty := !reached | Tail -> tails.(me) <- tails.(me) + 1);
      snapshot =
        (function
          | Loop ->
            if !dirty then begin
              dirty := false;
              if port >= 0 then E.send v port ()
            end
          | Tail -> ());
      data =
        (fun _ () ->
          if not !reached then begin
            reached := true;
            dirty := true;
            E.note_change v
          end);
      seg_end = ignore;
      phase_end = (fun () -> reached_at.(E.phase v).(me) <- !reached);
      words = (fun () -> 1);
    }
  in
  let res = E.run ?reliable ~max_rounds:100_000 g plan steps in
  if res.Routing.Superstep.failures <> [] then
    Alcotest.failf "relay run failed: %s"
      (String.concat " | "
         (List.map Routing.Superstep.failure_to_string res.Routing.Superstep.failures));
  let rounds =
    List.map
      (fun (p : Routing.Cost.phase) -> (p.Routing.Cost.name, p.Routing.Cost.rounds))
      (Routing.Cost.phases res.Routing.Superstep.phases)
  in
  (reached_at, tails, rounds)

let all_reached = [| true; true; true; true |]

let check_reached what reached_at =
  Array.iteri
    (fun p r ->
      Alcotest.(check (array bool)) (Printf.sprintf "%s: phase %d reached" what p)
        all_reached r)
    reached_at

let test_exit_is_free () =
  (* budget 2: a pass relays the token two hops and the pass after the
     last commit closes on quiescence, so the loop exits there; any number
     of passes past it costs nothing *)
  let r3, t3, rounds3 = relay ~budget:2 ~times:3 () in
  let r30, t30, rounds30 = relay ~budget:2 ~times:30 () in
  check_reached "times = 3" r3;
  check_reached "times = 30" r30;
  Alcotest.(check (list (pair string int))) "rounds at times 3 and 30" rounds3 rounds30;
  Alcotest.(check (array int)) "tail opened once per phase" [| 2; 2; 2; 2 |] t30;
  Alcotest.(check (array int)) "same tails" t3 t30

let test_no_exit_on_budget_close () =
  (* budget 1: every segment closes on its budget. In the second pass the
     only commit (b hearing from a) lands after b's [Done], so no change
     has been reported when the segment closes; exiting there would leave
     c unreached *)
  let r, t, _ = relay ~budget:1 ~times:4 () in
  check_reached "budget 1" r;
  Alcotest.(check (array int)) "tail opened once per phase" [| 2; 2; 2; 2 |] t

let test_exit_over_reliable () =
  (* the same exit through the reliable transport's control traffic *)
  let r, _, rounds = relay ~reliable:true ~budget:2 ~times:30 () in
  let _, _, rounds3 = relay ~reliable:true ~budget:2 ~times:3 () in
  check_reached "reliable" r;
  Alcotest.(check (list (pair string int))) "rounds at times 3 and 30" rounds3 rounds

(* ---------- free segments ---------- *)

(* A token spread: the seeds hold the token when the segment opens, and a
   vertex that first holds it sends it once on each of its successor ports
   ([succ me arrival_port], the arrival port being -1 at a seed). One phase
   of one segment in the given mode. Returns, per vertex and read at
   [seg_end], whether it holds the token, how many messages it sent and
   received, and the phase's measured rounds. *)
let spread ?faults ?reliable ~mode g ~seeds ~succ =
  let n = Graph.n g in
  let reached = Array.make n false
  and sent = Array.make n 0
  and received = Array.make n 0 in
  let plan =
    {
      Routing.Superstep.setup = "setup";
      names = [| "spread" |];
      details = [| "" |];
      schedules = [| Routing.Superstep.single { Routing.Superstep.kind = (); mode } |];
    }
  in
  let steps v =
    let me = E.me v in
    let holds = ref false and pending = ref [] and nsent = ref 0 and nrecv = ref 0 in
    let take arrival =
      holds := true;
      pending := succ me arrival
    in
    {
      Routing.Superstep.seed = (fun () -> if List.mem me seeds then take (-1));
      seg_start = ignore;
      snapshot =
        (fun () ->
          List.iter
            (fun p ->
              incr nsent;
              E.send v p ())
            !pending;
          pending := []);
      data =
        (fun port () ->
          incr nrecv;
          if not !holds then take port);
      seg_end =
        (fun () ->
          reached.(me) <- !holds;
          sent.(me) <- !nsent;
          received.(me) <- !nrecv);
      phase_end = ignore;
      words = (fun () -> 1);
    }
  in
  let res = E.run ?faults ?reliable ~max_rounds:100_000 g plan steps in
  if res.Routing.Superstep.failures <> [] then
    Alcotest.failf "spread run failed: %s"
      (String.concat " | "
         (List.map Routing.Superstep.failure_to_string res.Routing.Superstep.failures));
  let rounds =
    match Routing.Cost.phases res.Routing.Superstep.phases with
    | [ _setup; p ] -> p.Routing.Cost.rounds
    | _ -> Alcotest.fail "expected a setup and one phase"
  in
  (reached, sent, received, rounds)

let sum = Array.fold_left ( + ) 0

let unit_edges l = List.map (fun (u, v) -> { Graph.u; v; w = 1.0 }) l

let ports_to g me targets =
  List.filter_map (fun t -> Graph.port g me t) targets

(* a path 0 - 1 - ... - l *)
let path l = Graph.of_edges ~n:(l + 1) (unit_edges (List.init l (fun i -> (i, i + 1))))

let chain_succ g me _ = ports_to g me [ me + 1 ]

(* the once-per-vertex flood: forward on every port but the arrival one *)
let flood_succ g me arrival =
  List.filter (fun p -> p <> arrival)
    (List.init (Array.length (Graph.neighbors g me)) Fun.id)

let flood_graph () = Gen.grid ~rng:(Random.State.make [| 3 |]) ~rows:5 ~cols:5 ()

(* the far corner floods: a late receipt fans out after most counts *)
let flood_seed = 24

let faulted () =
  Congest.Fault.make { Congest.Fault.none with drop = 0.1; duplicate = 0.05; seed = 9 }

let check_all what reached =
  Alcotest.(check (array bool)) what (Array.make (Array.length reached) true) reached

let test_free_chain ?faults () =
  (* a token chained 8 hops in one free segment is delivered before the
     segment closes, in fewer rounds than the lockstep run's one hop per
     superstep *)
  let l = 8 in
  let g = path l in
  let reached, _, _, free_rounds =
    spread ?faults ~mode:Routing.Superstep.Free g ~seeds:[ 0 ] ~succ:(chain_succ g)
  in
  let lock_reached, _, _, lock_rounds =
    spread ?faults ~mode:(Routing.Superstep.Lockstep 1_000) g ~seeds:[ 0 ]
      ~succ:(chain_succ g)
  in
  check_all "free: token at every hop by seg_end" reached;
  check_all "lockstep: token at every hop" lock_reached;
  if free_rounds >= lock_rounds then
    Alcotest.failf "free segment took %d rounds, lockstep %d" free_rounds lock_rounds

let test_free_flood ?faults () =
  (* fan-out > 1: the same reached set as the lockstep run, and every
     message sent was received by the time the segment closed *)
  let g = flood_graph () in
  let succ = flood_succ g in
  let reached, sent, received, _ =
    spread ?faults ~mode:Routing.Superstep.Free g ~seeds:[ flood_seed ] ~succ
  in
  let lock_reached, lock_sent, _, _ =
    spread ?faults ~mode:(Routing.Superstep.Lockstep 1_000) g ~seeds:[ flood_seed ] ~succ
  in
  Alcotest.(check (array bool)) "reached = lockstep" lock_reached reached;
  check_all "flood reaches every vertex" reached;
  Alcotest.(check int) "sent = lockstep" (sum lock_sent) (sum sent);
  Alcotest.(check int) "nothing in flight at seg_end" (sum sent) (sum received)

(* Root 0 with depth-1 neighbours c = 1, x = 2, a late-counting y = 3 (a
   child chain y - 4 - 5 - 6 under it) and a line of depth-1 leaves
   7 - 8 - ... - 20 hanging off x. The token goes 0 -> c -> x, then x fans
   out to y and along the line. x and the line report their first probe
   before the token reaches them, y after, so that probe balances (sent =
   received = 2: the root's and c's sends, c's and y's receipts) while the
   token is still on the line. Closing on it would lose the line. *)
let fan_gadget () =
  let line = List.init 14 (fun i -> 7 + i) in
  let edges =
    [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (2, 7) ]
    @ List.map (fun u -> (0, u)) line
    @ List.init 13 (fun i -> (7 + i, 8 + i))
  in
  let g = Graph.of_edges ~n:21 (unit_edges edges) in
  let succ me _ =
    ports_to g me
      (match me with
      | 0 -> [ 1 ]
      | 1 -> [ 2 ]
      | 2 -> [ 3; 7 ]
      | u when u >= 7 && u < 20 -> [ u + 1 ]
      | _ -> [])
  in
  (g, succ)

let test_balanced_probe_not_enough () =
  let g, succ = fan_gadget () in
  let reached, sent, received, _ =
    spread ~mode:Routing.Superstep.Free g ~seeds:[ 0 ] ~succ
  in
  Alcotest.(check bool) "line end reached by seg_end" true reached.(20);
  Alcotest.(check int) "nothing in flight at seg_end" (sum sent) (sum received)

let test_free_silent () =
  (* a free segment that sends nothing closes after one probe: exactly the
     rounds of one quiescent lockstep superstep *)
  let g = flood_graph () in
  let silent = spread g ~seeds:[] ~succ:(flood_succ g) in
  let _, _, _, free_rounds = silent ~mode:Routing.Superstep.Free in
  let _, _, _, lock_rounds = silent ~mode:(Routing.Superstep.Lockstep 1_000) in
  Alcotest.(check int) "one probe" lock_rounds free_rounds

let test_free_never_balances () =
  (* a token bounced forever between two vertices never balances a probe:
     the run ends in a Stalled failure at the root, not a hang and not a
     close *)
  let g = path 1 in
  let plan =
    {
      Routing.Superstep.setup = "setup";
      names = [| "ping-pong" |];
      details = [| "" |];
      schedules =
        [| Routing.Superstep.single { Routing.Superstep.kind = (); mode = Free } |];
    }
  in
  let closed = ref false in
  let steps v =
    let hold = ref (E.me v = 0) in
    {
      Routing.Superstep.seed = ignore;
      seg_start = ignore;
      snapshot =
        (fun () ->
          if !hold then begin
            hold := false;
            E.send v 0 ()
          end);
      data = (fun _ () -> hold := true);
      seg_end = (fun () -> closed := true);
      phase_end = ignore;
      words = (fun () -> 1);
    }
  in
  let res = E.run ~max_rounds:100_000 g plan steps in
  Alcotest.(check bool) "segment never closed" false !closed;
  match res.Routing.Superstep.failures with
  | [ Routing.Superstep.Stalled { vertex = 0; phase = "ping-pong"; superstep; _ } ] ->
    Alcotest.(check int) "probe cap 2n + 4" 8 superstep
  | fs ->
    Alcotest.failf "expected one Stalled failure at the root, got: %s"
      (String.concat " | " (List.map Routing.Superstep.failure_to_string fs))

let () =
  Alcotest.run "superstep"
    [
      ( "fixpoint exit",
        [
          Alcotest.test_case "loop past the fixpoint is free" `Quick test_exit_is_free;
          Alcotest.test_case "no exit on a budget close" `Quick
            test_no_exit_on_budget_close;
          Alcotest.test_case "exit over Reliable" `Quick test_exit_over_reliable;
        ] );
      ( "free segment",
        [
          Alcotest.test_case "chained token beats lockstep" `Quick test_free_chain;
          Alcotest.test_case "fan-out flood = lockstep" `Quick test_free_flood;
          Alcotest.test_case "one balanced probe is not enough" `Quick
            test_balanced_probe_not_enough;
          Alcotest.test_case "silent segment: one probe" `Quick test_free_silent;
          Alcotest.test_case "never balanced -> Stalled" `Quick test_free_never_balances;
          Alcotest.test_case "chain over faulted Reliable" `Quick
            (test_free_chain ~faults:(faulted ()));
          Alcotest.test_case "flood over faulted Reliable" `Quick
            (test_free_flood ~faults:(faulted ()));
        ] );
    ]
