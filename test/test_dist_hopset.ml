(* Tests for the distributed upper stage (hopset construction and
   [beta]-iteration approximate Bellman-Ford on the CONGEST simulator): the
   differential gate against the centralized computation, edge-for-edge
   hopset identity, typed fault outcomes, and the full-pipeline splice. *)

open Dgraph

let rng seed = Random.State.make [| seed; 91 |]

let concat_take k l =
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  String.concat " | " (take k l)

let fail_failures what fs =
  Alcotest.failf "%s failures: %s" what
    (String.concat " | " (List.map Routing.Dist_hopset.failure_to_string fs))

(* Run the whole pipeline on one rng state: the exact stage leaves [r]
   positioned for the hopset level draw, a copy captured there seeds the
   gate's centralized re-computation. *)
let run_gate ?b ?params ?faults ?domains ~seed ~k g =
  let r = rng seed in
  let ds = Routing.Dist_scheme.run ~rng:r ~k ?b ?faults ?domains ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rgate = Random.State.copy r in
  let o =
    Routing.Dist_hopset.run ~rng:r ?params ?faults ?domains ~max_rounds:500_000 g ds
  in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  if o.Routing.Dist_hopset.upper = None then
    Alcotest.fail "clean run produced no upper stage";
  let errs =
    Routing.Dist_hopset.check_against_centralized ~rng:rgate g o
  in
  if errs <> [] then
    Alcotest.failf "%d divergences vs centralized: %s" (List.length errs)
      (concat_take 5 errs);
  (ds, o)

(* ---------- the differential gate across topologies ---------- *)

let test_gate_grid () =
  let g = Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 () in
  let _, o = run_gate ~seed:11 ~k:3 g in
  (* run A: setup + (lambda-1) level phases + lambda bunch phases;
     run B: setup + (k-1-ih) pivot phases + (k-ih) cluster phases *)
  let lambda = o.Routing.Dist_hopset.lambda in
  let k = o.Routing.Dist_hopset.k and ih = o.Routing.Dist_hopset.ih in
  let expect = (1 + (lambda - 1) + lambda) + (1 + (k - 1 - ih) + (k - ih)) in
  Alcotest.(check int) "phase count" expect
    (List.length o.Routing.Dist_hopset.phase_rounds);
  List.iter
    (fun (name, rounds) ->
      if rounds <= 0 then Alcotest.failf "phase %S measured %d rounds" name rounds)
    o.Routing.Dist_hopset.phase_rounds

let test_gate_er_k2 () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 2)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:60 ~avg_deg:4.0 ()
  in
  ignore (run_gate ~seed:12 ~k:2 g)

let test_gate_er_k3 () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 3)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:60 ~avg_deg:4.0 ()
  in
  ignore (run_gate ~seed:13 ~k:3 g)

let test_gate_torus () =
  let g = Gen.torus ~rng:(rng 4) ~rows:6 ~cols:6 () in
  ignore (run_gate ~seed:14 ~k:2 g)

let test_gate_small_b () =
  (* forcing b below the hop diameter makes the hopset do real work: waves
     are cut at b hops, so relays and path recovery carry real traffic *)
  let g = Gen.grid ~rng:(rng 5) ~rows:6 ~cols:6 () in
  ignore (run_gate ~seed:15 ~k:3 ~b:3 g)

let test_gate_lambda2 () =
  let g = Gen.grid ~rng:(rng 6) ~rows:6 ~cols:6 () in
  let params = { Routing.Scheme.Params.default with lambda = 2 } in
  ignore (run_gate ~seed:16 ~k:3 ~params g)

let test_gate_sampled_agrees_with_exact () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 30)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:80 ~avg_deg:4.0 ()
  in
  let r = rng 31 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rgate = Random.State.copy r in
  let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  List.iter
    (fun sample ->
      let mode = Routing.Dist_scheme.Sampled { sample; seed = 0x5eed } in
      let errs =
        Routing.Dist_hopset.check_against_centralized
          ~rng:(Random.State.copy rgate) ~mode g o
      in
      if errs <> [] then
        Alcotest.failf "%s: %d divergences: %s"
          (Routing.Dist_scheme.gate_mode_name mode)
          (List.length errs) (concat_take 5 errs))
    [ 1; 8; 1000 (* > population: degenerates to exhaustive *) ]

let test_gate_order_independent () =
  (* Free segments (run A's waves, run B's relays and recovery) forward
     payload on arrival. Over Reliable with delays and on two domains both
     gates stay clean and the upper stage is the fault-free one, on a unit
     grid (every path ties) and on ER *)
  let delay = Congest.Fault.make { Congest.Fault.none with delay = 0.2; seed = 5 } in
  let check ~seed g =
    let _, clean = run_gate ~seed ~k:3 g in
    List.iter
      (fun (what, faults, domains) ->
        let ds, o = run_gate ?faults ?domains ~seed ~k:3 g in
        (match Routing.Dist_scheme.check_against_centralized ~rng:(rng seed) g ds with
        | [] -> ()
        | errs -> Alcotest.failf "%s: exact stage: %s" what (concat_take 5 errs));
        if o.Routing.Dist_hopset.upper <> clean.Routing.Dist_hopset.upper then
          Alcotest.failf "%s: upper stage differs from the fault-free run" what)
      [ ("reliable, delay 0.2", Some delay, None); ("2 domains", None, Some 2) ]
  in
  check ~seed:21 (Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 ());
  check ~seed:22
    (Gen.connected_erdos_renyi ~rng:(rng 2)
       ~weights:(Gen.uniform_weights 1.0 4.0) ~n:48 ~avg_deg:4.0 ())

(* ---------- the fixpoint exit: free and exact ---------- *)

(* The approx phases' beta-iteration loop ends once an iteration changes
   nothing, so raising beta past the fixpoint changes neither the harvest
   nor a single measured round; the gate (run at each beta) holds both
   times. *)
let check_beta_free ?b ~seed g =
  let beta x = { Routing.Scheme.Params.default with beta = Some x } in
  let _, o8 = run_gate ?b ~params:(beta 8) ~seed ~k:3 g in
  let _, o32 = run_gate ?b ~params:(beta 32) ~seed ~k:3 g in
  if o8.Routing.Dist_hopset.upper <> o32.Routing.Dist_hopset.upper then
    Alcotest.fail "upper stage differs between beta = 8 and beta = 32";
  Alcotest.(check (list (pair string int)))
    "phase_rounds at beta = 8 and 32" o8.Routing.Dist_hopset.phase_rounds
    o32.Routing.Dist_hopset.phase_rounds

let test_exit_free_and_exact () =
  check_beta_free ~seed:21 (Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 ());
  check_beta_free ~seed:22
    (Gen.connected_erdos_renyi ~rng:(rng 2)
       ~weights:(Gen.uniform_weights 1.0 4.0) ~n:48 ~avg_deg:4.0 ())

let test_exit_small_b () =
  (* b = 3 cuts the host waves below the hop diameter: wave segments close
     on their budget with offers in flight, where the exit must not fire,
     and the hopset relays carry real traffic before the fixpoint *)
  check_beta_free ~b:3 ~seed:21 (Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 ())

(* ---------- hopset identity: distributed = centralized, edge for edge ----- *)

let prop_hopset_identical =
  QCheck.Test.make ~name:"distributed hopset = tz_hopset edge-for-edge"
    ~count:6
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let g =
        Gen.connected_erdos_renyi
          ~rng:(Random.State.make [| seed; 7 |])
          ~weights:(Gen.uniform_weights 1.0 4.0) ~n:40 ~avg_deg:3.5 ()
      in
      let r = rng seed in
      let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
      QCheck.assume (ds.Routing.Dist_scheme.failures = []);
      let rc = Random.State.copy r in
      let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
      QCheck.assume (o.Routing.Dist_hopset.failures = []);
      let dist_hs =
        match o.Routing.Dist_hopset.hopset with
        | Some h -> h
        | None -> QCheck.Test.fail_report "no hopset harvested"
      in
      let vg =
        Hopsets.Virtual_graph.make g ~members:o.Routing.Dist_hopset.members
          ~b:o.Routing.Dist_hopset.b
      in
      let cent_hs =
        Hopsets.Construct.tz_hopset ~rng:rc
          ~lambda:o.Routing.Dist_hopset.lambda vg
      in
      let de = Hopsets.Hopset.edges dist_hs and ce = Hopsets.Hopset.edges cent_hs in
      if Array.length de <> Array.length ce then
        QCheck.Test.fail_reportf "size: distributed %d, centralized %d"
          (Array.length de) (Array.length ce);
      Array.iteri
        (fun i (c : Hopsets.Hopset.edge) ->
          let d = de.(i) in
          if
            c.Hopsets.Hopset.x <> d.Hopsets.Hopset.x
            || c.Hopsets.Hopset.y <> d.Hopsets.Hopset.y
            || c.Hopsets.Hopset.w <> d.Hopsets.Hopset.w
            || c.Hopsets.Hopset.path <> d.Hopsets.Hopset.path
          then
            QCheck.Test.fail_reportf "edge %d: {%d,%d} vs {%d,%d}" i
              d.Hopsets.Hopset.x d.Hopsets.Hopset.y c.Hopsets.Hopset.x
              c.Hopsets.Hopset.y)
        ce;
      true)

(* ---------- golden counts: the executed protocol, pinned ---------- *)

(* Fault-free counts of both upper-stage runs at fixed seeds: merged rounds
   and messages, then (phase, measured rounds, peak declared words) per
   phase. A change that shifts a barrier by one round, adds a message or
   changes a declared word fails here. *)
let check_golden ~seed g ~rounds ~messages ~phases =
  let _, o = run_gate ~seed ~k:3 g in
  let report = o.Routing.Dist_hopset.report in
  Alcotest.(check int) "rounds" rounds report.Congest.Metrics.rounds;
  Alcotest.(check int) "messages" messages report.Congest.Metrics.messages;
  Alcotest.(check (list (pair string int)))
    "phase_rounds"
    (List.map (fun (name, r, _) -> (name, r)) phases)
    o.Routing.Dist_hopset.phase_rounds;
  let upper =
    match o.Routing.Dist_hopset.upper with
    | Some u -> u
    | None -> Alcotest.fail "no upper stage"
  in
  Alcotest.(check (list (pair string int)))
    "peak words per phase"
    (List.map (fun (name, _, w) -> (name, w)) phases)
    (List.map
       (fun (p : Routing.Cost.phase) -> (p.Routing.Cost.name, p.Routing.Cost.peak_memory))
       (Routing.Cost.phases upper.Routing.Scheme.Upper_stage.phases))

let test_golden_counts () =
  check_golden ~seed:21
    (Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 ())
    ~rounds:1933 ~messages:15176
    ~phases:
      [
        ("hopset setup (BFS)", 27, 20);
        ("hopset levels 1", 75, 20);
        ("hopset levels 2", 75, 20);
        ("hopset bunches level 0", 75, 92);
        ("hopset bunches level 1", 75, 36);
        ("hopset bunches level 2", 75, 36);
        ("approx setup (BFS)", 27, 112);
        ("approx pivots level 2", 330, 142);
        ("approx clusters level 1", 597, 424);
        ("approx clusters level 2", 553, 270);
      ];
  check_golden ~seed:22
    (Gen.connected_erdos_renyi ~rng:(rng 2)
       ~weights:(Gen.uniform_weights 1.0 4.0) ~n:48 ~avg_deg:4.0 ())
    ~rounds:721 ~messages:19072
    ~phases:
      [
        ("hopset setup (BFS)", 11, 20);
        ("hopset levels 1", 27, 20);
        ("hopset levels 2", 9, 20);
        ("hopset bunches level 0", 27, 84);
        ("hopset bunches level 1", 30, 88);
        ("hopset bunches level 2", 9, 20);
        ("approx setup (BFS)", 11, 109);
        ("approx pivots level 2", 104, 121);
        ("approx clusters level 1", 228, 361);
        ("approx clusters level 2", 257, 236);
      ]

(* ---------- traced phase spans carry the measured peaks ---------- *)

let test_span_peaks () =
  (* every phase span a traced build_full opens reports the same peak words
     as the Cost phase of the same name, on both stages *)
  let check g ~seed =
    let tr = Congest.Trace.make () in
    let ds, o, _ =
      Routing.Dist_hopset.build_full ~rng:(rng seed) ~k:3 ~trace:tr
        ~max_rounds:500_000 g
    in
    let upper =
      match o with
      | Some { Routing.Dist_hopset.upper = Some u; _ } -> u
      | _ -> Alcotest.fail "build_full produced no upper stage"
    in
    let cost =
      Routing.Cost.phases
        ds.Routing.Dist_scheme.exact.Routing.Scheme.Exact_stage.phases
      @ Routing.Cost.phases upper.Routing.Scheme.Upper_stage.phases
    in
    let spans = Congest.Trace.phases tr in
    Alcotest.(check int) "one span per phase" (List.length cost) (List.length spans);
    List.iter
      (fun s ->
        let name = Congest.Trace.span_name s in
        match List.find_opt (fun (p : Routing.Cost.phase) -> p.Routing.Cost.name = name) cost with
        | None -> Alcotest.failf "span %S has no Cost phase" name
        | Some p ->
          if p.Routing.Cost.peak_memory <= 0 then
            Alcotest.failf "phase %S measured no peak" name;
          Alcotest.(check int) ("peak words of " ^ name) p.Routing.Cost.peak_memory
            (Congest.Trace.span_peak_memory s))
      spans
  in
  check (Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 ()) ~seed:21;
  check
    (Gen.connected_erdos_renyi ~rng:(rng 2)
       ~weights:(Gen.uniform_weights 1.0 4.0) ~n:48 ~avg_deg:4.0 ())
    ~seed:22

(* ---------- faults: typed outcome, no upper stage ---------- *)

let test_crash_typed_failure () =
  let g = Gen.grid ~rng:(rng 40) ~rows:4 ~cols:4 () in
  let r = rng 41 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:2 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (5, 40) ] }
  in
  let o = Routing.Dist_hopset.run ~rng:r ~faults ~max_rounds:100_000 g ds in
  (match o.Routing.Dist_hopset.failures with
  | [] -> Alcotest.fail "crash-stop run reported no failures"
  | fs ->
    let typed =
      List.exists
        (function
          | Routing.Dist_hopset.Stalled _ | Routing.Dist_hopset.Link_lost _
          | Routing.Dist_hopset.Setup_timeout _ ->
            true
          | Routing.Dist_hopset.Harvest _ | Routing.Dist_hopset.Transport _ ->
            false)
        fs
    in
    if not typed then
      Alcotest.failf "no watchdog/link failure among: %s"
        (String.concat " | "
           (List.map Routing.Dist_hopset.failure_to_string fs)));
  if o.Routing.Dist_hopset.upper <> None then
    Alcotest.fail "failed run still produced an upper stage"

let test_reliable_transport_gate () =
  (* the same protocol body over Congest.Reliable, fault-free: the gate
     must hold identically *)
  let g = Gen.grid ~rng:(rng 42) ~rows:5 ~cols:5 () in
  let r = rng 43 in
  let ds =
    Routing.Dist_scheme.run ~rng:r ~k:3 ~reliable:true ~max_rounds:500_000 g
  in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rgate = Random.State.copy r in
  let o =
    Routing.Dist_hopset.run ~rng:r ~reliable:true ~max_rounds:500_000 g ds
  in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  let errs = Routing.Dist_hopset.check_against_centralized ~rng:rgate g o in
  if errs <> [] then
    Alcotest.failf "%d divergences over Reliable: %s" (List.length errs)
      (concat_take 5 errs)

(* ---------- splicing into the full scheme ---------- *)

let test_build_scheme_matches_centralized_upper () =
  (* both schemes share the SAME distributed exact stage; one computes the
     upper half centrally, the other splices the distributed upper stage.
     When the gate holds, every routing structure is bit-identical, so
     routes must agree path-for-path. *)
  let g = Gen.grid ~rng:(rng 50) ~rows:6 ~cols:6 () in
  let k = 3 and seed = 51 in
  let r = rng seed in
  let ds = Routing.Dist_scheme.run ~rng:r ~k ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rc = Random.State.copy r in
  let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  let s_dist = Routing.Dist_hopset.build_scheme ~rng:r g ds o in
  let s_cent = Routing.Dist_scheme.build_scheme ~rng:rc g ds in
  Alcotest.(check int) "k" (Routing.Scheme.k s_cent) (Routing.Scheme.k s_dist);
  Alcotest.(check int) "b" (Routing.Scheme.b_bound s_cent)
    (Routing.Scheme.b_bound s_dist);
  Alcotest.(check int) "hopset size" (Routing.Scheme.hopset_size s_cent)
    (Routing.Scheme.hopset_size s_dist);
  Alcotest.(check int) "virtual size" (Routing.Scheme.virtual_size s_cent)
    (Routing.Scheme.virtual_size s_dist);
  let n = Graph.n g in
  let r' = rng 52 in
  for _ = 1 to 300 do
    let src = Random.State.int r' n and dst = Random.State.int r' n in
    if src <> dst then
      let p1 = Routing.Scheme.route s_cent ~src ~dst in
      let p2 = Routing.Scheme.route s_dist ~src ~dst in
      match (p1, p2) with
      | Ok p1, Ok p2 ->
        if p1 <> p2 then
          Alcotest.failf "route %d -> %d differs (lengths %d vs %d)" src dst
            (List.length p1) (List.length p2)
      | Error e, _ | _, Error e ->
        Alcotest.failf "route %d -> %d failed: %a" src dst Tz.Routing_error.pp e
  done;
  (* the spliced scheme's cost must carry the measured spans: every hopset /
     approx phase name from the protocol appears, none of the charged-only
     hopset formula names *)
  let phases = Routing.Cost.phases (Routing.Scheme.cost s_dist) in
  let has name =
    List.exists
      (fun (ph : Routing.Cost.phase) -> ph.Routing.Cost.name = name)
      phases
  in
  if has "hopset" then
    Alcotest.fail "spliced scheme still charges the centralized hopset formula";
  if not (has "hopset levels 1") then
    Alcotest.fail "spliced scheme lost the measured hopset level spans";
  if not (has "approx setup (BFS)") then
    Alcotest.fail "spliced scheme lost the measured approx setup span"

let test_build_full () =
  let g = Gen.torus ~rng:(rng 60) ~rows:5 ~cols:5 () in
  let ds, o, scheme =
    Routing.Dist_hopset.build_full ~rng:(rng 61) ~k:3 ~max_rounds:500_000 g
  in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let o = match o with Some o -> o | None -> Alcotest.fail "no upper outcome" in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  let s = match scheme with Some s -> s | None -> Alcotest.fail "no scheme" in
  let n = Graph.n g in
  let bound =
    float_of_int ((4 * 3) - 3) *. (1.0 +. (8.0 *. Routing.Scheme.epsilon s))
  in
  let r = rng 62 in
  for _ = 1 to 200 do
    let src = Random.State.int r n and dst = Random.State.int r n in
    if src <> dst then
      let d = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
      match Routing.Scheme.route_weight g s ~src ~dst with
      | Ok w ->
        if w > bound *. d then
          Alcotest.failf "stretch %d -> %d: %.3f > bound %.3f" src dst (w /. d)
            bound
      | Error e ->
        Alcotest.failf "route %d -> %d failed: %a" src dst Tz.Routing_error.pp e
  done

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "dist_hopset"
    [
      ( "gate",
        [
          Alcotest.test_case "grid k=3 + phase accounting" `Quick test_gate_grid;
          Alcotest.test_case "erdos-renyi k=2" `Quick test_gate_er_k2;
          Alcotest.test_case "erdos-renyi k=3" `Quick test_gate_er_k3;
          Alcotest.test_case "torus k=2" `Quick test_gate_torus;
          Alcotest.test_case "small b (hopset under load)" `Quick
            test_gate_small_b;
          Alcotest.test_case "lambda=2" `Quick test_gate_lambda2;
          Alcotest.test_case "sampled gate agrees with exact" `Quick
            test_gate_sampled_agrees_with_exact;
          Alcotest.test_case "order-independent (delay, 2 domains)" `Quick
            test_gate_order_independent;
        ] );
      qsuite "identity" [ prop_hopset_identical ];
      ( "pinned",
        [
          Alcotest.test_case "golden counts (grid, ER)" `Quick test_golden_counts;
          Alcotest.test_case "phase spans carry peak words" `Quick test_span_peaks;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "beta 8 = beta 32 (grid, ER)" `Quick
            test_exit_free_and_exact;
          Alcotest.test_case "budget-closed waves (b=3)" `Quick test_exit_small_b;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash-stop -> typed failure" `Quick
            test_crash_typed_failure;
          Alcotest.test_case "gate over Reliable" `Quick
            test_reliable_transport_gate;
        ] );
      ( "splice",
        [
          Alcotest.test_case "upper splice = centralized upper" `Quick
            test_build_scheme_matches_centralized_upper;
          Alcotest.test_case "build_full end-to-end" `Quick test_build_full;
        ] );
    ]
