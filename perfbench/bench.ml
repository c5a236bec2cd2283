(* The repository benchmark: one workload per process, one domain, a fixed
   suite of seed-derived instances per run.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--state DIR]

   Workloads (README.md says why each exists):
   - construct-grid: the executed Appendix B pipeline (Dist_scheme,
     Dist_hopset, splice) on 12x12 grids, every build gated bit-for-bit
     against the centralized computation, then served;
   - construct-er: the same on connected Erdos-Renyi graphs (n = 256,
     average degree 5);
   - serve: schemes built centrally (Scheme.build) on 40x40 grids,
     compiled to packed routers, forwarding a uniform traffic matrix.

   With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
   per-layer metrics, each timed from this file around calls into the
   layer's public functions. Progress and every correctness violation go to
   stderr; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.

   Simulated counts (rounds, messages, words) must not move between runs at
   one seed: every build is compared with the first build of its instance,
   and with --state DIR the run's counts are also compared with those an
   earlier run of the same executable recorded for this workload and seed. *)

open Dgraph
module DS = Routing.Dist_scheme
module DH = Routing.Dist_hopset
module Scheme = Routing.Scheme
module Cost = Routing.Cost
module M = Congest.Metrics
module H = Congest.Histogram
module J = Congest.Export.Json
module Engine = Serve.Engine

let k = 3

(* the routing stretch every built scheme must stay within: (4k-3)(1+8 eps) *)
let stretch_bound =
  float_of_int ((4 * k) - 3) *. (1.0 +. (8.0 *. Scheme.Params.default.epsilon))

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

type kind = Construct | Serving

type workload = {
  name : string;
  kind : kind;
  instances : int;
      (** suite size; fixed, so every count is a function of the seed alone *)
  graph : Random.State.t -> Graph.t;
  queries : int;  (** uniform traffic matrix per instance *)
  min_passes : int;  (** forwarding passes per instance, at least *)
}

let weights = Gen.uniform_weights 1.0 8.0
let grid side rng = Gen.grid ~rng ~weights ~rows:side ~cols:side ()

let construct_grid =
  {
    name = "construct-grid";
    kind = Construct;
    instances = 48;
    graph = grid 12;
    queries = 10_000;
    min_passes = 3;
  }

let workloads =
  [
    construct_grid;
    {
      name = "construct-er";
      kind = Construct;
      instances = 48;
      graph =
        (fun rng ->
          Gen.connected_erdos_renyi ~rng ~weights ~n:256 ~avg_deg:5.0 ());
      queries = 10_000;
      min_passes = 3;
    };
    {
      name = "serve";
      kind = Serving;
      instances = 16;
      graph = grid 40;
      queries = 25_000;
      min_passes = 2;
    };
  ]

(* Independent streams per instance: graph, scheme construction, traffic
   matrix, packed-router differential pairs. *)
let stream seed i s = Random.State.make [| seed; i; s |]
let graph_rng seed i = stream seed i 1
let scheme_rng seed i = stream seed i 2
let matrix_rng seed i = stream seed i 3
let pairs_rng seed i = stream seed i 4

(* ---------------------------------------------------------------- *)
(* Measurement helpers                                               *)
(* ---------------------------------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum l = List.fold_left ( +. ) 0.0 l
let mean l = sum l /. float_of_int (List.length l)
let mean_by f l = mean (List.map f l)

(* A peak is a maximum over vertices, so one instance's can be several
   times its neighbours'; the suite reports their geometric mean. *)
let geomean_by f l = exp (mean_by (fun x -> log (f x)) l)

let fi = float_of_int

(* nearest-rank percentile of an ascending array, as Engine computes it *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) ((((p * n) + 99) / 100) - 1)))

type status = {
  mutable attempted : int;
  mutable failed : int;
  mutable violations : int;
}

let status = { attempted = 0; failed = 0; violations = 0 }

let violation fmt =
  Printf.ksprintf
    (fun s ->
      status.violations <- status.violations + 1;
      prerr_endline ("perfbench: " ^ s))
    fmt

let progress fmt = Printf.ksprintf prerr_endline fmt
let instance_label name i = Printf.sprintf "%s instance %d" name i

(* one reported metric: name, value, unit *)
type metric = string * float * string

let seconds name v : metric = (name, v, "s")
let count name v : metric = (name, v, "count")
let words name v : metric = (name, v, "words")
let ratio name v : metric = (name, v, "ratio")

(* ---------------------------------------------------------------- *)
(* Serving a built scheme                                            *)
(* ---------------------------------------------------------------- *)

let hops (f : Engine.forwarded) = H.sum f.Engine.fwd_hops

(* What a forwarding pass measured. The first pass of a scheme is kept
   whole; later ones are only compared with it and then reduced to this. *)
type pass = { queries : int; pass_s : float; pass_hops : int; alloc : float }

let measured (f : Engine.forwarded) =
  {
    queries = f.Engine.fwd_queries;
    pass_s = f.Engine.fwd_seconds;
    pass_hops = hops f;
    alloc = f.Engine.fwd_loop_alloc_bytes;
  }

let queries_per_second p = fi p.queries /. p.pass_s

(* The reported forwarding rate: the one nine passes in ten reach (10th
   percentile of per-pass qps). On a shared host passes run at one of two
   speeds, in stretches of seconds; the median jumps between them when a run
   spends about half its time at each, this percentile stays on the slower
   one unless the faster holds nine tenths of the run. *)
let qps_p10 passes =
  let a = Array.of_list (List.map queries_per_second passes) in
  Array.sort compare a;
  percentile a 10

(* Every [forwarded] field except the measurements: wall time, allocated
   bytes (one bracketing per domain) and the domain count. *)
let same_forwarding (a : Engine.forwarded) (b : Engine.forwarded) =
  let open Engine in
  a.fwd_queries = b.fwd_queries
  && a.fwd_delivered = b.fwd_delivered
  && a.fwd_failed = b.fwd_failed
  && a.fwd_errors = b.fwd_errors
  && a.fwd_err_code = b.fwd_err_code
  && H.buckets a.fwd_hops = H.buckets b.fwd_hops
  && a.fwd_edge_load = b.fwd_edge_load
  && compare a.fwd_weight b.fwd_weight = 0

(* A scheme compiled for forwarding, with its matrix and timed passes. The
   centralized router is not kept: it is many times the packed one. *)
type served = {
  packed : Serve.Packed_router.t;
  compile_s : float;
  gate_s : float;  (** the packed-router differential gate *)
  pairs : (int * int) array;
  mutable first : Engine.forwarded option;
  mutable passes : pass list;
}

(* Compile the scheme's router and prove the packed copy bit-identical to
   it on 2 000 seeded pairs. *)
let compile label seed i scheme pairs =
  let router = Scheme.router scheme in
  let packed, compile_s =
    timed (fun () -> Serve.Packed_router.of_graph_routing router)
  in
  let divs, gate_s =
    timed (fun () ->
        Serve.Differential.check_router ~rng:(pairs_rng seed i) router packed
          ~pairs:2000)
  in
  (match divs with
  | [] -> ()
  | d :: _ ->
    violation "%s: packed router diverges (%d lines): %s" label
      (List.length divs) d);
  { packed; compile_s; gate_s; pairs; first = None; passes = [] }

let first_pass sv = Option.get sv.first

(* [~ops]: queries are this workload's operations (serve), so count them *)
let forward_pass ?(ops = false) label g sv =
  let f = Engine.forward ~domains:1 g sv.packed sv.pairs in
  if ops then begin
    status.attempted <- status.attempted + f.Engine.fwd_queries;
    status.failed <- status.failed + f.Engine.fwd_failed
  end;
  if f.Engine.fwd_failed > 0 then
    violation "%s: %d of %d queries undelivered" label f.Engine.fwd_failed
      f.Engine.fwd_queries;
  (match sv.first with
  | None -> sv.first <- Some f
  | Some first ->
    if not (same_forwarding first f) then
      violation "%s: forwarding pass differs from the first pass" label);
  sv.passes <- measured f :: sv.passes

(* The stretch evaluation of the first pass. *)
type checked = {
  ev : Engine.evaluated;
  stretch_p95 : float;
  stretch_max : float;
}

let evaluate label g sv =
  let ev =
    Engine.evaluate ~domains:1 g sv.pairs
      ~weight:(first_pass sv).Engine.fwd_weight
  in
  let st = ev.Engine.ev_stretches in
  let stretch_max = st.(Array.length st - 1) in
  if stretch_max > stretch_bound then
    violation "%s: stretch %.4f above the bound %.4f" label stretch_max
      stretch_bound;
  { ev; stretch_p95 = percentile st 95; stretch_max }

(* ---------------------------------------------------------------- *)
(* The executed construction                                         *)
(* ---------------------------------------------------------------- *)

type built = {
  ds : DS.outcome;
  dh : DH.outcome;
  scheme : Scheme.t;
  rgate : Random.State.t;  (** the rng as [Dist_hopset.run] found it *)
  exact_s : float;
  upper_s : float;
  splice_s : float;
}

let build_s b = b.exact_s +. b.upper_s +. b.splice_s
let merged b = M.merge b.ds.DS.report b.dh.DH.report

let construct ?tr_exact ?tr_upper seed i g =
  let failed fs =
    Error (String.concat "; " (List.map DS.failure_to_string fs))
  in
  let rng = scheme_rng seed i in
  let ds, exact_s = timed (fun () -> DS.run ~rng ~k ?trace:tr_exact g) in
  if ds.DS.failures <> [] then failed ds.DS.failures
  else
    let rgate = Random.State.copy rng in
    let dh, upper_s = timed (fun () -> DH.run ~rng ?trace:tr_upper g ds) in
    if dh.DH.failures <> [] then failed dh.DH.failures
    else
      let scheme, splice_s = timed (fun () -> DH.build_scheme ~rng g ds dh) in
      Ok { ds; dh; scheme; rgate; exact_s; upper_s; splice_s }

(* Everything a build produces that must repeat exactly at one seed. *)
let fingerprint b =
  let phases =
    List.map
      (fun (n, r) -> J.Arr [ J.Str n; J.Int r ])
      (b.ds.DS.phase_rounds @ b.dh.DH.phase_rounds)
  in
  J.to_string
    (J.Arr
       [
         Congest.Export.metrics (merged b);
         J.Arr phases;
         J.Int (Scheme.max_table_words b.scheme);
         J.Int (Scheme.max_label_words b.scheme);
       ])

(* One construction run: build, then both differential gates in exact
   mode. Fails on protocol failures or any divergence; [~ops] counts it as
   one of the workload's operations. Returns the build with both gate
   times. *)
let construction_run ?(ops = true) label seed i g =
  let count n = if ops then status.failed <- status.failed + n in
  if ops then status.attempted <- status.attempted + 1;
  let bad msg =
    count 1;
    violation "%s: %s" label msg;
    None
  in
  match construct seed i g with
  | Error e -> bad ("protocol failures: " ^ e)
  | Ok b -> (
    let d1, gate_exact =
      timed (fun () ->
          DS.check_against_centralized ~rng:(scheme_rng seed i) ~mode:DS.Exact
            g b.ds)
    in
    let d2, gate_upper =
      timed (fun () ->
          DH.check_against_centralized ~rng:(Random.State.copy b.rgate)
            ~mode:DS.Exact g b.dh)
    in
    match d1 @ d2 with
    | [] -> Some (b, gate_exact, gate_upper)
    | d :: _ ->
      bad
        (Printf.sprintf "diverges from centralized (%d lines): %s"
           (List.length (d1 @ d2)) d))

(* ---------------------------------------------------------------- *)
(* Cross-run exact-repeat check                                      *)
(* ---------------------------------------------------------------- *)

(* [state_dir/<workload>-<seed>] holds the executable's digest and the
   digest of the counts the first run at that seed produced. A later run
   of the same executable must reproduce them exactly. *)
let check_state state wl seed counts =
  match state with
  | None -> ()
  | Some dir ->
    let exe = Digest.to_hex (Digest.file Sys.executable_name) in
    let mine = Digest.to_hex (Digest.string counts) in
    let file = Filename.concat dir (Printf.sprintf "%s-%d" wl.name seed) in
    let recorded =
      if Sys.file_exists file then
        In_channel.with_open_text file In_channel.input_line
      else None
    in
    match recorded with
    | Some line when line = exe ^ " " ^ mine -> ()
    | Some line when String.length line > 32 && String.sub line 0 32 = exe ->
      violation
        "%s seed %d: simulated counts differ from an earlier run of this \
         executable"
        wl.name seed
    | _ ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "%s %s\n" exe mine)

(* ---------------------------------------------------------------- *)
(* construct-* : end-to-end run                                      *)
(* ---------------------------------------------------------------- *)

type cinst = { ci : int; cg : Graph.t; cpairs : (int * int) array }

(* The suite's inputs. One instance takes about a millisecond, too little
   to time alone, so set-up is timed over a whole suite generation. *)
let setup_construct wl seed =
  List.init wl.instances (fun ci ->
      let cg = wl.graph (graph_rng seed ci) in
      let cpairs =
        Serve.Traffic.generate ~rng:(matrix_rng seed ci) Serve.Traffic.Uniform
          cg ~queries:wl.queries
      in
      { ci; cg; cpairs })

type cresult = {
  inst : cinst;
  first : built;
  print : string;
  mutable builds : float list;
  mutable gates : float list;
  sv : served;
  chk : checked;
}

let construct_e2e wl seed budget state =
  let insts, setup = timed (fun () -> setup_construct wl seed) in
  (* the suite is generated again after every fourth instance of the first
     pass, so the set-up median samples the whole run, not one moment *)
  let setups = ref [ setup ] in
  let t0 = now () in
  let label c = instance_label wl.name c.ci in
  let results =
    List.filter_map
      (fun c ->
        if c.ci mod 4 = 3 then
          setups := snd (timed (fun () -> setup_construct wl seed)) :: !setups;
        match construction_run (label c) seed c.ci c.cg with
        | None -> None
        | Some (b, ge, gu) ->
          let sv = compile (label c) seed c.ci b.scheme c.cpairs in
          for _ = 1 to wl.min_passes do
            forward_pass (label c) c.cg sv
          done;
          let chk = evaluate (label c) c.cg sv in
          Some
            {
              inst = c;
              first = b;
              print = fingerprint b;
              builds = [ build_s b ];
              gates = [ ge +. gu ];
              sv;
              chk;
            })
      insts
  in
  (* repeat builds round-robin until the time is up, at least one *)
  let arr = Array.of_list results in
  let j = ref 0 in
  while Array.length arr > 0 && (!j = 0 || now () -. t0 < budget) do
    let r = arr.(!j mod Array.length arr) in
    (match construction_run (label r.inst) seed r.inst.ci r.inst.cg with
    | None -> ()
    | Some (b, ge, gu) ->
      if fingerprint b <> r.print then
        violation "%s: simulated counts drifted between builds" (label r.inst);
      r.builds <- build_s b :: r.builds;
      r.gates <- (ge +. gu) :: r.gates);
    incr j
  done;
  progress "%s: %d construction runs in %.1f s" wl.name status.attempted
    (now () -. t0);
  check_state state wl seed
    (String.concat "\n"
       (List.map
          (fun r ->
            Printf.sprintf "%s %h %h" r.print r.chk.stretch_p95
              r.chk.stretch_max)
          results));
  let by f = mean_by f results in
  let m r = merged r.first and sc r = r.first.scheme in
  [
    seconds "setup_s" (median !setups);
    seconds "build_s" (by (fun r -> median r.builds));
    seconds "verify_s" (by (fun r -> median r.gates));
    count "rounds" (by (fun r -> fi (m r).M.rounds));
    count "messages" (by (fun r -> fi (m r).M.messages));
    words "peak_words"
      (geomean_by (fun r -> fi (M.peak_memory_max (m r))) results);
    words "table_words" (by (fun r -> fi (Scheme.max_table_words (sc r))));
    words "label_words" (by (fun r -> fi (Scheme.max_label_words (sc r))));
    ("qps", qps_p10 (List.concat_map (fun r -> r.sv.passes) results), "1/s");
    ratio "stretch_p95" (by (fun r -> r.chk.stretch_p95));
    ratio "stretch_max" (by (fun r -> r.chk.stretch_max));
  ]

(* ---------------------------------------------------------------- *)
(* serve : end-to-end run                                            *)
(* ---------------------------------------------------------------- *)

type sinst = {
  si : int;
  sg : Graph.t;
  table_words : int;
  label_words : int;
  charged_rounds : int;  (** Cost.total_rounds of the centralized build *)
  charged_peak : int;  (** Scheme.peak_memory_words *)
  scheme_s : float;  (** Scheme.build alone *)
  ssetup : float;  (** graph + Scheme.build + compile + matrix *)
  ssv : served;
}

let setup_serve wl seed =
  List.init wl.instances (fun si ->
      let t0 = now () in
      let sg = wl.graph (graph_rng seed si) in
      let scheme, scheme_s =
        timed (fun () -> Scheme.build ~rng:(scheme_rng seed si) ~k sg)
      in
      let pairs =
        Serve.Traffic.generate ~rng:(matrix_rng seed si) Serve.Traffic.Uniform
          sg ~queries:wl.queries
      in
      let ssv = compile (instance_label wl.name si) seed si scheme pairs in
      {
        si;
        sg;
        table_words = Scheme.max_table_words scheme;
        label_words = Scheme.max_label_words scheme;
        charged_rounds = Cost.total_rounds (Scheme.cost scheme);
        charged_peak = Scheme.peak_memory_words scheme;
        scheme_s;
        ssetup = now () -. t0 -. ssv.gate_s;
        ssv;
      })

(* Each instance's first passes and its stretch evaluation, then the
   measured part: more passes round-robin until the time budget is up.
   Evaluation runs one Dijkstra per source and would take most of a short
   budget, so it stays outside it. Returns each instance with its
   evaluation and verify time (packed-router gate + evaluation). *)
let serve_run wl seed budget =
  let insts = setup_serve wl seed in
  let pass s =
    forward_pass ~ops:true (instance_label wl.name s.si) s.sg s.ssv
  in
  let checks =
    List.map
      (fun s ->
        for _ = 1 to wl.min_passes do
          pass s
        done;
        let chk, eval_s =
          timed (fun () -> evaluate (instance_label wl.name s.si) s.sg s.ssv)
        in
        (s, chk, s.ssv.gate_s +. eval_s))
      insts
  in
  let arr = Array.of_list insts in
  let t0 = now () and j = ref 0 in
  while now () -. t0 < budget do
    pass arr.(!j mod Array.length arr);
    incr j
  done;
  progress "%s: %d passes, %d of them in %.1f s" wl.name
    ((wl.min_passes * Array.length arr) + !j)
    !j (now () -. t0);
  checks

let serve_e2e wl seed budget state =
  let checks = serve_run wl seed budget in
  let by f = mean_by f checks in
  let count_of (s, (c : checked), _) =
    Printf.sprintf "%d %d %d %d %d %h %h" s.table_words s.label_words
      s.charged_rounds s.charged_peak
      (hops (first_pass s.ssv))
      c.stretch_p95 c.stretch_max
  in
  check_state state wl seed (String.concat "\n" (List.map count_of checks));
  let per_instance f = by (fun (s, _, _) -> fi (f s)) in
  [
    seconds "setup_s" (median (List.map (fun (s, _, _) -> s.ssetup) checks));
    seconds "build_s" (by (fun (s, _, _) -> s.scheme_s));
    seconds "verify_s" (by (fun (_, _, v) -> v));
    count "rounds" (per_instance (fun s -> s.charged_rounds));
    count "messages" (per_instance (fun s -> hops (first_pass s.ssv)));
    words "peak_words"
      (geomean_by (fun (s, _, _) -> fi s.charged_peak) checks);
    words "table_words" (per_instance (fun s -> s.table_words));
    words "label_words" (per_instance (fun s -> s.label_words));
    ( "qps",
      qps_p10 (List.concat_map (fun (s, _, _) -> s.ssv.passes) checks),
      "1/s" );
    ratio "stretch_p95" (by (fun (_, c, _) -> c.stretch_p95));
    ratio "stretch_max" (by (fun (_, c, _) -> c.stretch_max));
  ]

(* ---------------------------------------------------------------- *)
(* Traced run: per-layer metrics                                     *)
(* ---------------------------------------------------------------- *)

(* The superstep phase groups; every measured phase name maps to one. *)
let groups =
  [
    "setup";
    "exact_pivots";
    "exact_clusters";
    "virtual_wave";
    "hopset_levels";
    "hopset_bunches";
    "approx_pivots";
    "approx_clusters";
  ]

let group_of name =
  match
    List.find_opt
      (fun (prefix, _) -> String.starts_with ~prefix name)
      [
        ("hierarchy sampling + BFS setup", "setup");
        ("hopset setup", "setup");
        ("approx setup", "setup");
        ("exact pivots level", "exact_pivots");
        ("exact clusters level", "exact_clusters");
        ("virtual edges", "virtual_wave");
        ("hopset levels", "hopset_levels");
        ("hopset bunches level", "hopset_bunches");
        ("approx pivots level", "approx_pivots");
        ("approx clusters level", "approx_clusters");
      ]
  with
  | Some (_, g) -> g
  | None -> failwith ("perfbench: unknown protocol phase " ^ name)

let group_sum g rows =
  List.fold_left (fun a (n, v) -> if group_of n = g then a + v else a) 0 rows

(* The Cost model charges the whole hopset construction as one lump, so the
   two hopset groups are compared with it in aggregate. *)
let compared_with = function
  | "hopset_levels" | "hopset_bunches" -> [ "hopset_levels"; "hopset_bunches" ]
  | g -> [ g ]

type traced = {
  ti : int;
  tg : Graph.t;
  plain : built;  (** tracing off *)
  traced_s : float;  (** build_s of the same build with tracing on *)
  phase_rounds : (string * int) list;  (** both stages, chronological *)
  span_messages : (string * int) list;  (** per phase span, both stages *)
  gexact : float;
  gupper : float;
  central : Scheme.t;  (** Scheme.build on the same graph and rng seed *)
  central_s : float;
}

(* The predicted column: the Cost lemmas' charge per group. Cluster and
   approximate phases carry the centralized build's charges by name; exact
   pivot waves are charged their Claim-8 depth, the virtual wave its hop
   bound B, each BFS setup Lemma 1's D term, and both hopset groups the
   "hopset" lump. *)
let charged t g =
  let n = Graph.n t.tg in
  let named keep =
    List.fold_left
      (fun a (ph : Cost.phase) ->
        if keep ph.Cost.name then a + ph.Cost.rounds else a)
      0
      (Cost.phases (Scheme.cost t.central))
  in
  let prefix p = named (String.starts_with ~prefix:p) in
  let per_phase f =
    List.fold_left
      (fun a (nm, _) -> if group_of nm = g then a + f nm else a)
      0 t.phase_rounds
  in
  match g with
  | "setup" -> per_phase (fun _ -> Diameter.hop_diameter_estimate t.tg)
  | "exact_pivots" ->
    per_phase (fun nm ->
        Scanf.sscanf nm "exact pivots level %d" (fun j ->
            Scheme.Exact_stage.claim8_depth ~n ~k (j - 1)))
  | "exact_clusters" -> prefix "exact clusters level"
  | "virtual_wave" -> t.plain.ds.DS.b
  | "hopset_levels" | "hopset_bunches" -> named (String.equal "hopset")
  | "approx_pivots" -> prefix "approx pivots level"
  | "approx_clusters" -> prefix "approx clusters level"
  | _ -> invalid_arg g

(* One construction run, the same build again with tracing on, and the
   centralized build. Tracing must not move a single count. *)
let trace_construction ~ops label seed (i, g) =
  match construction_run ~ops label seed i g with
  | None -> None
  | Some (plain, gexact, gupper) -> (
    let tr_exact = Congest.Trace.make () and tr_upper = Congest.Trace.make () in
    match construct ~tr_exact ~tr_upper seed i g with
    | Error e ->
      violation "%s: traced build failed: %s" label e;
      None
    | Ok trb ->
      if fingerprint trb <> fingerprint plain then
        violation "%s: tracing changed the simulated counts" label;
      let central, central_s =
        timed (fun () -> Scheme.build ~rng:(scheme_rng seed i) ~k g)
      in
      Some
        {
          ti = i;
          tg = g;
          plain;
          traced_s = build_s trb;
          phase_rounds = plain.ds.DS.phase_rounds @ plain.dh.DH.phase_rounds;
          span_messages =
            List.map
              (fun s ->
                (Congest.Trace.span_name s, Congest.Trace.span_messages s))
              (Congest.Trace.phases tr_exact @ Congest.Trace.phases tr_upper);
          gexact;
          gupper;
          central;
          central_s;
        })

(* Dist_hopset at two domains against one on the same input; the ratio is
   reported only once the two outcomes are proven identical. *)
let sim_speedup label t =
  let run domains =
    timed (fun () ->
        DH.run ~rng:(Random.State.copy t.plain.rgate) ~domains t.tg t.plain.ds)
  in
  let o1, t1 = run 1 in
  let o2, t2 = run 2 in
  let fp (o : DH.outcome) = J.to_string (Congest.Export.metrics o.DH.report) in
  if
    fp o1 = fp o2
    && compare o1.DH.upper o2.DH.upper = 0
    && compare o1.DH.fields o2.DH.fields = 0
    && o1.DH.phase_rounds = o2.DH.phase_rounds
    && o1.DH.failures = o2.DH.failures
  then t1 /. t2
  else begin
    violation "%s: Dist_hopset at 2 domains differs from 1 domain" label;
    nan
  end

let construction_layers name traced =
  match traced with
  | [] -> []
  | t0 :: _ ->
    let by f = mean_by f traced in
    let tot f = sum (List.map f traced) in
    let mm t = merged t.plain in
    let stage name secs (rep : built -> M.t) =
      [
        seconds (name ^ ".s") (by (fun t -> secs t.plain));
        count (name ^ ".rounds") (by (fun t -> fi (rep t.plain).M.rounds));
        count (name ^ ".messages") (by (fun t -> fi (rep t.plain).M.messages));
        words (name ^ ".peak_words")
          (by (fun t -> fi (M.peak_memory_max (rep t.plain))));
      ]
    in
    let phase g =
      let rounds g t = fi (group_sum g t.phase_rounds) in
      let name = Printf.sprintf "phase.%s.%s" g in
      [
        count (name "rounds") (by (rounds g));
        count (name "messages")
          (by (fun t -> fi (group_sum g t.span_messages)));
        count (name "charged_rounds") (by (fun t -> fi (charged t g)));
        ratio (name "overhead")
          (tot (fun t -> sum (List.map (fun g -> rounds g t) (compared_with g)))
          /. tot (fun t -> fi (charged t g)));
      ]
    in
    [
      count "congest.wakeups" (by (fun t -> fi (mm t).M.wakeups));
      ( "congest.msgs_per_round",
        tot (fun t -> fi (mm t).M.messages)
        /. tot (fun t -> fi (mm t).M.rounds),
        "1/round" );
      count "congest.max_edge_load" (by (fun t -> fi (mm t).M.max_edge_load));
      ( "congest.ns_per_wakeup",
        1e9
        *. tot (fun t -> t.plain.exact_s +. t.plain.upper_s)
        /. tot (fun t -> fi (mm t).M.wakeups),
        "ns" );
      words "congest.peak_words_avg" (by (fun t -> M.peak_memory_avg (mm t)));
      ratio "congest.speedup_2d" (sim_speedup (instance_label name t0.ti) t0);
    ]
    @ stage "dist_scheme" (fun b -> b.exact_s) (fun b -> b.ds.DS.report)
    @ stage "dist_hopset" (fun b -> b.upper_s) (fun b -> b.dh.DH.report)
    @ List.concat_map phase groups
    @ [
        seconds "scheme.splice_s" (by (fun t -> t.plain.splice_s));
        seconds "gate.exact_s" (by (fun t -> t.gexact));
        seconds "gate.upper_s" (by (fun t -> t.gupper));
        ratio "trace.overhead"
          (tot (fun t -> t.traced_s) /. tot (fun t -> build_s t.plain));
      ]

(* Engine.forward at two domains against one, proven identical first. *)
let forward_speedup label g sv =
  let f1 = Engine.forward ~domains:1 g sv.packed sv.pairs in
  let f2 = Engine.forward ~domains:2 g sv.packed sv.pairs in
  if same_forwarding f1 f2 then f1.Engine.fwd_seconds /. f2.Engine.fwd_seconds
  else begin
    violation "%s: forwarding at 2 domains differs from 1 domain" label;
    nan
  end

(* [(graph, served, checked)] per served instance *)
let serving_layers name rows =
  match rows with
  | [] -> []
  | (g0, sv0, _) :: _ ->
    let by f = mean_by f rows in
    let passes = List.concat_map (fun (_, sv, _) -> sv.passes) rows in
    [
      seconds "serve.compile_s"
        (median (List.map (fun (_, sv, _) -> sv.compile_s) rows));
      words "serve.router_words"
        (by (fun (_, sv, _) -> fi (Serve.Packed_router.words sv.packed)));
      seconds "serve.gate_s" (by (fun (_, sv, _) -> sv.gate_s));
      ( "serve.forward.ns_per_query",
        1e9 /. median (List.map queries_per_second passes),
        "ns" );
      ( "serve.forward.ns_per_hop",
        median
          (List.map (fun p -> 1e9 *. p.pass_s /. fi p.pass_hops) passes),
        "ns" );
      ( "serve.forward.hops_p50",
        by (fun (_, sv, _) ->
            fi (H.percentile (first_pass sv).Engine.fwd_hops 50)),
        "hops" );
      ( "serve.forward.alloc_bytes",
        mean_by (fun p -> p.alloc) passes,
        "bytes" );
      ratio "serve.forward.speedup_2d" (forward_speedup name g0 sv0);
      seconds "serve.evaluate.s" (by (fun (_, _, c) -> c.ev.Engine.ev_seconds));
      seconds "serve.evaluate.dijkstra_s"
        (by (fun (_, _, c) -> c.ev.Engine.ev_dijkstra_seconds));
      count "serve.evaluate.sources"
        (by (fun (_, _, c) -> fi c.ev.Engine.ev_sources));
      count "serve.max_edge_load"
        (by (fun (_, sv, _) ->
             fi (Array.fold_left max 0 (first_pass sv).Engine.fwd_edge_load)));
    ]

let construct_traced wl seed =
  let insts = setup_construct wl seed in
  let traced =
    List.filter_map
      (fun c ->
        trace_construction ~ops:true (instance_label wl.name c.ci) seed
          (c.ci, c.cg))
      insts
  in
  let rows =
    List.map
      (fun t ->
        let c = List.nth insts t.ti and label = instance_label wl.name t.ti in
        let sv = compile label seed c.ci t.plain.scheme c.cpairs in
        for _ = 1 to wl.min_passes do
          forward_pass label c.cg sv
        done;
        (c.cg, sv, evaluate label c.cg sv))
      traced
  in
  construction_layers wl.name traced
  @ [ seconds "scheme.build_s" (mean_by (fun t -> t.central_s) traced) ]
  @ serving_layers wl.name rows

(* serve runs no simulator: its construction layers are measured on the
   first construct-grid instance of the same seed *)
let serve_traced wl seed budget =
  let checks = serve_run wl seed (budget /. 2.0) in
  let rows = List.map (fun (s, c, _) -> (s.sg, s.ssv, c)) checks in
  let companion =
    Option.to_list
      (trace_construction ~ops:false
         (instance_label construct_grid.name 0)
         seed
         (0, construct_grid.graph (graph_rng seed 0)))
  in
  construction_layers construct_grid.name companion
  @ [ seconds "scheme.build_s" (mean_by (fun (s, _, _) -> s.scheme_s) checks) ]
  @ serving_layers wl.name rows

(* ---------------------------------------------------------------- *)
(* Entry point                                                       *)
(* ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 10.0 in
  let trace = ref 0 and state = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "W construct-grid|construct-er|serve" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float secs, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ( "--state",
        Arg.Set_string state,
        "DIR where exact-repeat records are kept" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--state DIR]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let state = if !state = "" then None else Some !state in
  let metrics =
    match (wl.kind, !trace) with
    | Construct, 0 -> construct_e2e wl !seed !secs state
    | Serving, 0 -> serve_e2e wl !seed !secs state
    | Construct, _ -> construct_traced wl !seed
    | Serving, _ -> serve_traced wl !seed !secs
  in
  (* end-to-end metrics are never 0; no metric is ever missing a value *)
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) || (!trace = 0 && v = 0.0) then
        violation "metric %s reads %g" n v)
    metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (status.violations = 0));
            ("attempted", J.Int status.attempted);
            ("failed", J.Int status.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   metrics) );
          ]))
