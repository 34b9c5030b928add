(* Tests for the workload substrate: profiles, the generator's
   statistical targets, and trace record/replay. *)

module P = Holes_workload.Profile
module D = Holes_workload.Dacapo
module G = Holes_workload.Generator
module T = Holes_workload.Trace
module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics

let check = Alcotest.check

let test_suite_composition () =
  check Alcotest.int "16 analysis benchmarks" 16 (List.length D.suite);
  check Alcotest.int "17 with buggy lusearch" 17 (List.length D.suite_with_buggy);
  Alcotest.(check bool) "buggy excluded from analysis suite" true
    (not (List.exists (fun p -> p.P.name = "lusearch") D.suite));
  Alcotest.(check bool) "find works" true (D.find "pmd" <> None);
  Alcotest.(check bool) "find unknown" true (D.find "nope" = None)

let test_buggy_lusearch_is_3x () =
  (* the paper: the lusearch bug causes an allocation rate "a factor of
     three higher than any other benchmark" — encoded as 3x volume *)
  check Alcotest.int "3x volume" (3 * D.lusearch_fix.P.volume) D.lusearch_buggy.P.volume

let test_scaling () =
  let p = P.scaled D.pmd 0.5 in
  check Alcotest.int "volume halved" (D.pmd.P.volume / 2) p.P.volume;
  check Alcotest.int "live halved" (D.pmd.P.live_target / 2) p.P.live_target;
  Alcotest.check_raises "bad scale" (Invalid_argument "Profile.scaled: scale must be positive")
    (fun () -> ignore (P.scaled D.pmd 0.0))

let test_min_heap_exceeds_live () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.P.name ^ " min heap > live")
        true
        (P.min_heap p > p.P.live_target + p.P.immortal))
    D.suite_with_buggy

let run_scaled ?(scale = 0.1) profile =
  let profile = P.scaled profile scale in
  let vm = Vm.create ~min_heap_bytes:(P.min_heap profile) () in
  (G.run ~rng:(Holes_stdx.Xrng.of_seed 1) vm profile, vm, profile)

let test_generator_reaches_volume () =
  let res, _, profile = run_scaled D.bloat in
  Alcotest.(check bool) "completed" true res.G.completed;
  Alcotest.(check bool) "allocated at least the volume" true
    (res.G.metrics.Metrics.bytes_allocated >= profile.P.volume)

let test_generator_live_near_target () =
  let res, vm, profile = run_scaled ~scale:0.2 D.eclipse in
  Alcotest.(check bool) "completed" true res.G.completed;
  let live = Holes_heap.Object_table.live_bytes (Vm.objects vm) in
  let target = profile.P.live_target + profile.P.immortal in
  (* steady-state live should be within a factor ~2.5 of the target *)
  Alcotest.(check bool)
    (Printf.sprintf "live %d within range of target %d" live target)
    true
    (live > target / 3 && live < target * 5 / 2)

let test_all_profiles_complete_at_2x () =
  List.iter
    (fun p ->
      let res, _, _ = run_scaled ~scale:0.08 p in
      Alcotest.(check bool) (p.P.name ^ " completes at 2x heap") true res.G.completed)
    D.suite_with_buggy

let test_all_profiles_complete_at_1_33x () =
  (* the smallest heap the Fig. 3 sweep uses *)
  List.iter
    (fun p ->
      let profile = P.scaled p 0.08 in
      let vm =
        Vm.create ~cfg:{ Cfg.default with Cfg.heap_factor = 1.33 }
          ~min_heap_bytes:(P.min_heap profile) ()
      in
      let res = G.run ~rng:(Holes_stdx.Xrng.of_seed 1) vm profile in
      Alcotest.(check bool) (p.P.name ^ " completes at 1.33x heap") true res.G.completed)
    D.suite

let test_xalan_uses_los_heavily () =
  let res, _, _ = run_scaled ~scale:0.2 D.xalan in
  let res2, _, _ = run_scaled ~scale:0.2 D.sunflow in
  Alcotest.(check bool) "xalan allocates many more LOS pages" true
    (res.G.metrics.Metrics.los_pages > 4 * res2.G.metrics.Metrics.los_pages)

let test_trace_record () =
  let profile = P.scaled D.luindex 0.05 in
  let tr = T.record ~seed:3 profile in
  (* count and sum only the mortal stream: the immortal base must not
     make up for allocations missing from it *)
  let allocs, bytes =
    Array.fold_left
      (fun (n, b) -> function G.Alloc { size; _ } -> (n + 1, b + size) | G.Immortal _ -> (n, b))
      (0, 0) tr.T.events
  in
  Alcotest.(check bool) "events recorded" true (allocs > 100);
  Alcotest.(check bool) "covers volume" true (bytes >= profile.P.volume)

let test_trace_replay_deterministic () =
  let profile = P.scaled D.luindex 0.05 in
  let tr = T.record ~seed:3 profile in
  let run () =
    let vm = Vm.create ~min_heap_bytes:(P.min_heap profile) () in
    (T.replay vm tr).G.elapsed_ms
  in
  check (Alcotest.float 1e-9) "replay bit-identical" (run ()) (run ())

let test_trace_replay_across_collectors () =
  (* the same trace must be runnable under every collector *)
  let profile = P.scaled D.luindex 0.05 in
  let tr = T.record ~seed:4 profile in
  List.iter
    (fun coll ->
      let vm =
        Vm.create ~cfg:{ Cfg.default with Cfg.collector = coll }
          ~min_heap_bytes:(P.min_heap profile) ()
      in
      let res = T.replay vm tr in
      Alcotest.(check bool)
        (Cfg.collector_name coll ^ " replays trace")
        true res.G.completed)
    [ Cfg.Mark_sweep; Cfg.Immix; Cfg.Sticky_ms; Cfg.Sticky_immix ]

(* a trace is exactly the stream the generator draws from the same seed,
   replayed through the same driver: the two runs are one run *)
let test_trace_is_generator_stream () =
  let bit_equal =
    Alcotest.testable Fmt.float (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
  in
  List.iter
    (fun (p, coll) ->
      let what = p.P.name ^ " under " ^ Cfg.collector_name coll in
      let profile = P.scaled p 0.05 in
      let vm () =
        Vm.create ~cfg:{ Cfg.default with Cfg.collector = coll }
          ~min_heap_bytes:(P.min_heap profile) ()
      in
      let replayed = T.replay (vm ()) (T.record ~seed:3 profile) in
      let generated = G.run ~rng:(Holes_stdx.Xrng.of_seed 3) (vm ()) profile in
      Alcotest.(check bool) (what ^ " completes") true generated.G.completed;
      check
        Alcotest.(list (pair string bit_equal))
        (what ^ " metrics")
        (Metrics.to_fields generated.G.metrics)
        (Metrics.to_fields replayed.G.metrics);
      check bit_equal (what ^ " elapsed_ms") generated.G.elapsed_ms replayed.G.elapsed_ms)
    [
      (D.luindex, Cfg.Sticky_immix);
      (D.luindex, Cfg.Mark_sweep);
      (D.avrora, Cfg.Sticky_immix);
      (D.avrora, Cfg.Mark_sweep);
    ]

let suite =
  [
    ("suite composition", `Quick, test_suite_composition);
    ("buggy lusearch 3x", `Quick, test_buggy_lusearch_is_3x);
    ("profile scaling", `Quick, test_scaling);
    ("min heap exceeds live", `Quick, test_min_heap_exceeds_live);
    ("generator reaches volume", `Quick, test_generator_reaches_volume);
    ("generator live near target", `Quick, test_generator_live_near_target);
    ("all profiles complete at 2x", `Slow, test_all_profiles_complete_at_2x);
    ("all profiles complete at 1.33x", `Slow, test_all_profiles_complete_at_1_33x);
    ("xalan uses LOS heavily", `Quick, test_xalan_uses_los_heavily);
    ("trace record", `Quick, test_trace_record);
    ("trace replay deterministic", `Quick, test_trace_replay_deterministic);
    ("trace replay across collectors", `Quick, test_trace_replay_across_collectors);
    ("trace is the generator's stream", `Quick, test_trace_is_generator_stream);
  ]
