open Dgraph

(* The superstep engine: one BFS tree rooted at vertex 0 synchronizes a
   sequence of phases; each phase is a sequence of segments (a loop that
   stops at its fixpoint, then a tail). A lockstep segment is a sequence of
   supersteps closed by an Advance/Done barrier over the tree; a free
   segment forwards payload on arrival and the same convergecast only
   counts, closing the segment once two probes agree. The protocol decides
   what a superstep offers and reports its state changes; the engine
   queues, drains, counts and closes. *)

type failure =
  | Setup_timeout of { vertex : int; round : int }
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
  | Link_lost of { vertex : int; neighbor : int; reason : string }
  | Harvest of { vertex : int; reason : string }
  | Transport of string

let failure_to_string = function
  | Setup_timeout { vertex; round } ->
    Printf.sprintf "v%d: setup timed out: no phase start by round %d" vertex round
  | Stalled { vertex; round; phase; superstep } ->
    Printf.sprintf "v%d: stalled by round %d (phase %s, superstep %d)" vertex round
      phase superstep
  | Link_lost { vertex; neighbor; reason } ->
    Printf.sprintf "v%d: link to v%d lost: %s" vertex neighbor reason
  | Harvest { vertex; reason } -> Printf.sprintf "v%d: %s" vertex reason
  | Transport s -> s

let pp_failure ppf f = Format.pp_print_string ppf (failure_to_string f)

module type PAYLOAD = sig
  type t

  val words : t -> int
  val slots : int
  val encode : Congest.Slab.t -> int -> t -> unit
  val decode : Congest.Slab.t -> int -> t
end

type mode = Lockstep of int | Free

type 's segment = { kind : 's; mode : mode }

type 's schedule = { loop : 's segment array; times : int; tail : 's segment array }

let single seg = { loop = [| seg |]; times = 1; tail = [||] }

type 's plan = {
  setup : string;
  names : string array;
  details : string array;
  schedules : 's schedule array;
}

type ('p, 's) steps = {
  seed : unit -> unit;
  seg_start : 's -> unit;
  snapshot : 's -> unit;
  data : int -> 'p -> unit;
  seg_end : 's -> unit;
  phase_end : unit -> unit;
  words : unit -> int;
}

type result = {
  report : Congest.Metrics.t;
  phases : Cost.t;
  failures : failure list;
}

type action = Echo_check | Decide | Complete | Watchdog

(* a free segment that has not balanced after this many probes is wedged *)
let probe_cap n = (2 * n) + 4

let rec peak_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then peak_max cell v

module Make (P : PAYLOAD) = struct
  type msg =
    | Bfs of { depth : int }
    | Bfs_adopt
    | Bfs_echo
    | Done of { sent : int; received : int; changes : int }
    | Advance
    | Next of { target : int }  (* the segment to open; past the last = phase end *)
    | Abort  (* the root gave up on a free segment that never balanced *)
    | Data of P.t

  module M = struct
    type t = msg

    let words = function
      | Bfs_adopt | Bfs_echo | Advance | Abort -> 1
      | Bfs _ | Next _ -> 2
      | Done _ -> 4
      | Data p -> P.words p

    (* Slab codec: the engine's tag, then the control field or the
       payload's own slots. *)
    module Sl = Congest.Slab

    let slots = 1 + max 3 P.slots

    let encode sl b = function
      | Bfs { depth } ->
        Sl.set sl b 0;
        Sl.set sl (b + 1) depth
      | Bfs_adopt -> Sl.set sl b 1
      | Bfs_echo -> Sl.set sl b 2
      | Done { sent; received; changes } ->
        Sl.set sl b 3;
        Sl.set sl (b + 1) sent;
        Sl.set sl (b + 2) received;
        Sl.set sl (b + 3) changes
      | Advance -> Sl.set sl b 4
      | Next { target } ->
        Sl.set sl b 5;
        Sl.set sl (b + 1) target
      | Data p ->
        Sl.set sl b 6;
        P.encode sl (b + 1) p
      | Abort -> Sl.set sl b 7

    let decode sl b =
      match Sl.get sl b with
      | 0 -> Bfs { depth = Sl.get sl (b + 1) }
      | 1 -> Bfs_adopt
      | 2 -> Bfs_echo
      | 3 ->
        Done
          {
            sent = Sl.get sl (b + 1);
            received = Sl.get sl (b + 2);
            changes = Sl.get sl (b + 3);
          }
      | 4 -> Advance
      | 5 -> Next { target = Sl.get sl (b + 1) }
      | 6 -> Data (P.decode sl (b + 1))
      | 7 -> Abort
      | t -> invalid_arg (Printf.sprintf "Superstep: corrupt tag %d" t)
  end

  module S = Congest.Sim.Make (M)
  module R = Congest.Reliable.Make (M)

  type transport = (module Congest.Sim.TRANSPORT with type msg = msg)

  type vertex = {
    me : int;
    neighbors : int array;
    weights : float array;
    queues : P.t Queue.t array;
    mutable queued : int;
    mutable own_sent : int;
        (* payload messages queued this superstep (lockstep) or since the
           segment opened (free) *)
    mutable own_received : int;  (* payload messages handled, likewise *)
    mutable changes : int;  (* state changes noted since the last Done *)
    mutable phase : int;
    mutable ss_id : int;
    mutable finished : bool;
    slots : failure list array;  (* the run's per-vertex failure slots *)
  }

  let me v = v.me
  let neighbors v = v.neighbors
  let weights v = v.weights
  let phase v = v.phase
  let superstep_id v = v.ss_id

  let send v p m =
    Queue.add m v.queues.(p);
    v.queued <- v.queued + 1;
    v.own_sent <- v.own_sent + 1

  let send_all v ~except m =
    for p = 0 to Array.length v.neighbors - 1 do
      if p <> except then send v p m
    done

  (* single writer: a vertex only writes its own slot *)
  let fail v f = v.slots.(v.me) <- f :: v.slots.(v.me)

  let note_change v = v.changes <- v.changes + 1

  let abort v reason =
    fail v (Harvest { vertex = v.me; reason });
    v.finished <- true

  let run ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g
      plan make_steps =
    let use_reliable =
      match reliable with Some b -> b | None -> Option.is_some faults
    in
    let n = Graph.n g in
    let n_phases = Array.length plan.names in
    let name p = if p < 0 then plan.setup else plan.names.(p) in
    (* Under Reliable a masked delivery may back off for a whole
       retransmission streak before the link is declared dead, so the stall
       interval must dominate that streak: shorter and a healthy faulted run
       could trip the watchdog mid-backoff. Derived from the transport
       config actually in use, not hardcoded. *)
    let watchdog_interval =
      let base = (4 * n) + 64 in
      if use_reliable then
        let cfg =
          match config with Some c -> c | None -> Congest.Reliable.default_config
        in
        max base (Congest.Reliable.retransmission_budget cfg + 64)
      else base
    in
    (* measured per-vertex words, max per phase (index = phase + 1); atomic
       because every vertex maxes into the shared cells and, under the
       domain-sharded scheduler, from different domains — CAS-max keeps the
       result exact (max is commutative) without per-vertex storage *)
    let phase_peak = Array.init (n_phases + 1) (fun _ -> Atomic.make 0) in
    (* (phase, rounds), newest first; written by the root only *)
    let marks = ref [] in
    let slots = Array.make n [] in
    let node ((module T) : transport) ~me ~neighbors ~weights =
      let deg = Array.length neighbors in
      let is_root = me = 0 in
      let v =
        {
          me;
          neighbors;
          weights;
          queues = Array.init (max 1 deg) (fun _ -> Queue.create ());
          queued = 0;
          own_sent = 0;
          own_received = 0;
          changes = 0;
          phase = -1;
          ss_id = 0;
          finished = false;
          slots;
        }
      in
      let st = make_steps v in
      let phase_trace name =
        if is_root then
          match trace with Some tr -> Congest.Trace.phase tr name | None -> ()
      in
      let phase_trace_end () =
        if is_root then
          match trace with Some tr -> Congest.Trace.phase_end tr | None -> ()
      in
      (* ---- BFS setup state ---- *)
      let bfs_parent_port = ref (-1)
      and bfs_children = ref 0
      and echoes = ref 0 in
      let is_child = Array.make (max 1 deg) false in
      (* ---- barrier state ---- *)
      let sched = ref { loop = [||]; times = 0; tail = [||] }
      and seg = ref 0
      and superstep = ref 0  (* supersteps (lockstep) or probes (free) so far *)
      and in_superstep = ref false
      and done_sent = ref false
      and done_children = ref 0
      and children_sent = ref 0
      and children_received = ref 0
      and children_changes = ref 0
      and last_probe = ref (-1, -1)  (* root: (sent, received) of the previous probe *)
      and got_payload = ref false  (* a payload message arrived this round *)
      and since_first = ref 0  (* root: changes since the loop's first segment closed *)
      and phase_start = ref 0
      and last_drain = ref (-1)
      and last_progress = ref 0 in
      let agenda = ref [] in
      let schedule r a =
        let rec ins = function
          | [] -> [ (r, a) ]
          | (r', _) :: _ as l when r < r' -> (r, a) :: l
          | x :: rest -> x :: ins rest
        in
        agenda := ins !agenda
      in
      (* control messages share edges with data; every send is tallied per
         port so nothing exceeds the run's edge capacity of 2 *)
      let ctrl_round = ref (-1) in
      let ctrl = Array.make (max 1 deg) 0 in
      let note_send p =
        if !ctrl_round <> T.round () then begin
          ctrl_round := T.round ();
          Array.fill ctrl 0 (Array.length ctrl) 0
        end;
        ctrl.(p) <- ctrl.(p) + 1
      in
      let port_used p = if !ctrl_round = T.round () then ctrl.(p) else 0 in
      let send_ctrl p m =
        note_send p;
        T.send p m
      in
      let bc_down m =
        for p = 0 to deg - 1 do
          if is_child.(p) then send_ctrl p m
        done
      in
      let update_mem () =
        let words = st.words () + (2 * v.queued) in
        T.set_memory words;
        peak_max phase_peak.(min n_phases (v.phase + 1)) words
      in
      (* segments are numbered pass by pass through the loop, then the tail;
         one past the last ends the phase *)
      let looped () = !sched.times * Array.length !sched.loop in
      let n_segs () = looped () + Array.length !sched.tail in
      let segment s =
        if s < looped () then !sched.loop.(s mod Array.length !sched.loop)
        else !sched.tail.(s - looped ())
      in
      let kind () = (segment !seg).kind in
      let free () = (segment !seg).mode = Free in
      (* a probe of the Done convergecast opens: touches barrier state only *)
      let open_probe () =
        in_superstep := true;
        done_sent := false;
        done_children := 0;
        children_sent := 0;
        children_received := 0;
        children_changes := 0
      in
      (* a (local) superstep: the protocol queues its offers *)
      let flush () =
        v.ss_id <- v.ss_id + 1;
        st.snapshot (kind ())
      in
      (* counts restart with each lockstep superstep, and with a segment of
         either mode *)
      let reset_counts () =
        v.own_sent <- 0;
        v.own_received <- 0
      in
      let open_segment () =
        reset_counts ();
        st.seg_start (kind ());
        open_probe ();
        flush ()
      in
      let open_phase () =
        v.phase <- v.phase + 1;
        seg := 0;
        superstep := 0;
        if v.phase >= n_phases then begin
          v.finished <- true;
          phase_trace_end ()
        end
        else begin
          phase_trace (name v.phase);
          if is_root then phase_start := T.round ();
          sched := plan.schedules.(v.phase);
          st.seed ();
          open_segment ()
        end
      in
      let on_next target =
        if v.phase < 0 then begin
          phase_trace_end ();
          open_phase ()
        end
        else begin
          st.seg_end (kind ());
          seg := target;
          superstep := 0;
          if target >= n_segs () then begin
            st.phase_end ();
            open_phase ()
          end
          else open_segment ()
        end
      in
      (* Advance: a lockstep segment's next superstep, a free segment's next
         probe *)
      let on_advance () =
        incr superstep;
        open_probe ();
        if not (free ()) then begin
          reset_counts ();
          flush ()
        end
      in
      let start_phases () =
        (* setup complete at the root: record its span, open phase 0 *)
        marks := (-1, T.round ()) :: !marks;
        bc_down (Next { target = 0 });
        on_next 0
      in
      (* root only: the segment to open after the current one closes. When
         the loop's first segment closes on quiescence in a later pass and
         nothing changed since it closed in the previous pass, the rest of
         the loop would repeat that pass's no-op: jump to the tail. *)
      let next_segment ~quiescent =
        let s = !seg in
        if s < looped () && s mod Array.length !sched.loop = 0 then begin
          let fixpoint = s > 0 && quiescent && !since_first = 0 in
          since_first := 0;
          if fixpoint then looped () else s + 1
        end
        else s + 1
      in
      let maybe_complete () =
        if
          !in_superstep && (not !done_sent) && v.queued = 0
          && !done_children = !bfs_children
        then begin
          if is_root then begin
            done_sent := true;
            (* one-round deferral: guarantees Advance/Next land strictly
               after every data message of the superstep they close *)
            schedule (T.round () + 1) Decide
          end
          else if port_used !bfs_parent_port < 2 then begin
            done_sent := true;
            in_superstep := false;
            send_ctrl !bfs_parent_port
              (Done
                 {
                   sent = v.own_sent + !children_sent;
                   received = v.own_received + !children_received;
                   changes = v.changes + !children_changes;
                 });
            v.changes <- 0
          end
          else
            (* parent edge is at capacity this round (the drain just emptied
               the queue into it) - send Done next round *)
            schedule (T.round () + 1) Complete
        end
      in
      let handle (port, m) =
        match m with
        | Bfs { depth } ->
          if !bfs_parent_port < 0 && not is_root then begin
            bfs_parent_port := port;
            send_ctrl port Bfs_adopt;
            for p = 0 to deg - 1 do
              if p <> port then send_ctrl p (Bfs { depth = depth + 1 })
            done;
            schedule (T.round () + 3) Echo_check
          end
        | Bfs_adopt ->
          incr bfs_children;
          is_child.(port) <- true
        | Bfs_echo ->
          incr echoes;
          if !echoes = !bfs_children then
            if is_root then start_phases ()
            else send_ctrl !bfs_parent_port Bfs_echo
        | Done { sent; received; changes } ->
          incr done_children;
          children_sent := !children_sent + sent;
          children_received := !children_received + received;
          children_changes := !children_changes + changes
        | Advance ->
          if port = !bfs_parent_port then begin
            bc_down Advance;
            on_advance ()
          end
        | Next { target } ->
          if port = !bfs_parent_port then begin
            bc_down m;
            on_next target
          end
        | Abort ->
          if port = !bfs_parent_port then begin
            bc_down Abort;
            v.finished <- true
          end
        | Data d ->
          v.own_received <- v.own_received + 1;
          got_payload := true;
          st.data port d
      in
      let run_action = function
        | Echo_check ->
          if !bfs_children = 0 then
            if is_root then start_phases ()
            else send_ctrl !bfs_parent_port Bfs_echo
        | Decide -> (
          let sent = v.own_sent + !children_sent
          and received = v.own_received + !children_received in
          since_first := !since_first + v.changes + !children_changes;
          v.changes <- 0;
          let close ~quiescent =
            let target = next_segment ~quiescent in
            if target >= n_segs () then
              marks := (v.phase, T.round () - !phase_start) :: !marks;
            bc_down (Next { target });
            on_next target
          in
          let advance () =
            bc_down Advance;
            on_advance ()
          in
          match (segment !seg).mode with
          | Lockstep budget ->
            if sent = 0 || !superstep + 1 >= budget then close ~quiescent:(sent = 0)
            else advance ()
          | Free ->
            (* counting close: nothing sent at all, or two consecutive
               probes with the same balanced totals *)
            if sent = 0 || (sent = received && !last_probe = (sent, received)) then begin
              last_probe := (-1, -1);
              close ~quiescent:true
            end
            else if !superstep + 1 >= probe_cap n then begin
              fail v
                (Stalled
                   {
                     vertex = me;
                     round = T.round ();
                     phase = name v.phase;
                     superstep = !superstep + 1;
                   });
              bc_down Abort;
              v.finished <- true
            end
            else begin
              last_probe := (sent, received);
              advance ()
            end)
        | Complete -> maybe_complete ()
        | Watchdog ->
          (* Typed-failure path under crash-stop faults: a vertex that has
             neither received a message nor advanced a barrier for a whole
             interval declares the run wedged instead of hanging forever.
             The interval dominates any legal barrier span (a superstep
             drains at most ~n/2 rounds per port), so a healthy run never
             trips it. *)
          if not v.finished then begin
            if T.round () - !last_progress >= watchdog_interval then begin
              (if v.phase < 0 then
                 fail v (Setup_timeout { vertex = me; round = T.round () })
               else
                 fail v
                   (Stalled
                      {
                        vertex = me;
                        round = T.round ();
                        phase = name v.phase;
                        superstep = !superstep;
                      }));
              v.finished <- true
            end
            else schedule (T.round () + watchdog_interval) Watchdog
          end
      in
      let drain () =
        let r = T.round () in
        if !last_drain < r then begin
          last_drain := r;
          for p = 0 to deg - 1 do
            let budget = ref (2 - port_used p) in
            while !budget > 0 && not (Queue.is_empty v.queues.(p)) do
              let d = Queue.pop v.queues.(p) in
              v.queued <- v.queued - 1;
              decr budget;
              note_send p;
              T.send p (Data d)
            done
          done
        end
      in
      let dead_seen = ref [] in
      let check_dead () =
        List.iter
          (fun (p, why) ->
            if not (List.mem p !dead_seen) then begin
              dead_seen := p :: !dead_seen;
              fail v (Link_lost { vertex = me; neighbor = neighbors.(p); reason = why });
              (* every edge carries wave data: any dead link breaks the run *)
              v.finished <- true
            end)
          (T.dead_ports ())
      in
      (* round 0: BFS flood from the root *)
      phase_trace plan.setup;
      if is_root then begin
        for p = 0 to deg - 1 do
          send_ctrl p (Bfs { depth = 0 })
        done;
        schedule 3 Echo_check
      end;
      schedule watchdog_interval Watchdog;
      update_mem ();
      let next_deadline () =
        let a = match !agenda with [] -> max_int | (r, _) :: _ -> r in
        if v.queued > 0 then min a (T.round () + 1) else a
      in
      let rec loop () =
        if not v.finished then begin
          let dl = next_deadline () in
          let inbox = if dl = max_int then T.wait () else T.wait_until dl in
          if inbox <> [] then last_progress := T.round ();
          (* control first: a data message sharing the inbox with the
             Advance/Next that opens its superstep comes from a
             one-round-shallower BFS neighbour and belongs to the state that
             barrier installs (old superstep/phase data provably arrives in
             strictly earlier rounds, thanks to the root's one-round decision
             deferral) *)
          List.iter (fun (p, m) -> match m with Data _ -> () | _ -> handle (p, m)) inbox;
          List.iter (fun (p, m) -> match m with Data _ -> handle (p, m) | _ -> ()) inbox;
          (* a free segment's local superstep: forward what just arrived *)
          if !got_payload then begin
            got_payload := false;
            if free () && not v.finished then flush ()
          end;
          check_dead ();
          let rec run_due () =
            match !agenda with
            | (r, a) :: rest when r <= T.round () ->
              agenda := rest;
              run_action a;
              run_due ()
            | _ -> ()
          in
          run_due ();
          if not v.finished then begin
            drain ();
            maybe_complete ();
            update_mem ();
            loop ()
          end
        end
      in
      loop ()
    in
    let spans_before =
      match trace with Some tr -> List.length (Congest.Trace.phases tr) | None -> 0
    in
    let report =
      if use_reliable then
        R.run ~edge_capacity:2 ?faults ?trace ?max_rounds ?scheduler ?domains
          ?config g
          ~node:(fun t rctx ->
            node t ~me:rctx.R.me ~neighbors:rctx.R.neighbors
              ~weights:rctx.R.weights)
      else
        S.run ~edge_capacity:2 ?faults ?trace ?max_rounds ?scheduler ?domains g
          ~node:(fun (sctx : S.ctx) ->
            node
              (module S.Transport : Congest.Sim.TRANSPORT with type msg = msg)
              ~me:sctx.S.me ~neighbors:sctx.S.neighbors ~weights:sctx.S.weights)
    in
    (* the root opened the setup span, then one span per phase, in order *)
    (match trace with
    | Some tr ->
      List.iteri
        (fun i s ->
          let cell = i - spans_before in
          if cell >= 0 && cell <= n_phases then
            Congest.Trace.set_span_peak_memory s (Atomic.get phase_peak.(cell)))
        (Congest.Trace.phases tr)
    | None -> ());
    let transport =
      match report.Congest.Sim.outcome with
      | Congest.Sim.Completed -> []
      | Congest.Sim.Deadlocked _ as oc ->
        [ Transport (Format.asprintf "%a" Congest.Sim.pp_outcome oc) ]
      | Congest.Sim.Round_limit -> [ Transport "round limit exceeded" ]
    in
    let phases =
      List.fold_left
        (fun c (p, rounds) ->
          Cost.add c
            ~detail:(if p < 0 then "" else plan.details.(p))
            ~name:(name p) ~rounds
            ~peak_memory:(Atomic.get phase_peak.(p + 1)))
        Cost.empty (List.rev !marks)
    in
    {
      report = report.Congest.Sim.metrics;
      phases;
      failures =
        transport @ Array.fold_right (fun fs acc -> List.rev_append fs acc) slots [];
    }
end
