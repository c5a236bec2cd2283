(* Tests for the superstep engine's schedules: a loop of segments ends at
   its fixpoint, never on a segment closed by its budget, and the tail runs
   after the exit. The protocol is a toy relay whose barrier timing is known
   exactly, so each test pins the case it is about. *)

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
      Routing.Superstep.loop = [| { Routing.Superstep.kind = Loop; budget } |];
      times;
      tail = [| { kind = Tail; budget = 1 } |];
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
    ]
