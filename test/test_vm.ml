(* Tests for the Vm facade: configuration validation, heap sizing,
   metrics plumbing and the cost model. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Cost = Holes.Cost
module Metrics = Holes.Metrics

let check = Alcotest.check

let test_config_validation () =
  (match Cfg.validate Cfg.default with Ok () -> () | Error m -> Alcotest.fail m);
  (match Cfg.validate { Cfg.default with Cfg.line_size = 100 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid line size");
  (match Cfg.validate { Cfg.default with Cfg.failure_rate = 0.99 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid rate");
  match Cfg.validate { Cfg.default with Cfg.heap_factor = 0.5 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid heap factor"

let test_config_names () =
  check Alcotest.string "baseline name" "S-IX-L256" (Cfg.name Cfg.default);
  let pcm =
    { Cfg.default with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2 }
  in
  check Alcotest.string "pcm name" "S-IX-PCM-L256-2CL-25%" (Cfg.name pcm);
  check Alcotest.string "collector names" "MS" (Cfg.collector_name Cfg.Mark_sweep)

let test_heap_sizing () =
  let vm = Vm.create ~cfg:{ Cfg.default with Cfg.heap_factor = 2.0 } ~min_heap_bytes:(1 lsl 20) () in
  let pages = Holes_heap.Page_stock.npages (Vm.stock vm) in
  check Alcotest.int "2x heap in pages" (2 * 256) pages

let test_cost_model_accumulates () =
  let c = Cost.create () in
  Cost.charge c 10.0;
  Cost.begin_gc c;
  Cost.charge c 5.0;
  let pause = Cost.end_gc c in
  check (Alcotest.float 1e-9) "pause" 5.0 pause;
  check (Alcotest.float 1e-9) "mutator" 10.0 (Cost.mutator_ns c);
  check (Alcotest.float 1e-9) "gc" 5.0 (Cost.gc_ns c);
  check (Alcotest.float 1e-9) "total" 15.0 (Cost.total_ns c)

let test_metrics_wiring () =
  let vm = Vm.create ~min_heap_bytes:(1 lsl 20) () in
  ignore (Vm.alloc vm ~size:64 ());
  ignore (Vm.alloc vm ~size:10_000 ());
  let m = Vm.metrics vm in
  check Alcotest.int "objects" 2 m.Metrics.objects_allocated;
  Alcotest.(check bool) "bytes counted" true (m.Metrics.bytes_allocated >= 10_064);
  check Alcotest.int "los objects" 1 m.Metrics.los_objects;
  Alcotest.(check bool) "time advanced" true (Vm.elapsed_ms vm > 0.0)

let test_pause_recording () =
  let vm = Vm.create ~min_heap_bytes:(1 lsl 20) () in
  for _ = 1 to 100 do
    ignore (Vm.alloc vm ~size:64 ())
  done;
  Vm.collect vm ~full:true;
  let m = Vm.metrics vm in
  check Alcotest.int "one full gc" 1 m.Metrics.full_gcs;
  (match Metrics.mean_full_pause_ms m with
  | Some p -> Alcotest.(check bool) "pause positive" true (p > 0.0)
  | None -> Alcotest.fail "expected pause");
  match Metrics.max_full_pause_ms m with
  | Some p -> Alcotest.(check bool) "max >= mean" true (p >= Option.get (Metrics.mean_full_pause_ms m))
  | None -> Alcotest.fail "expected max pause"

(* Every collector records its pauses in both the pause list and the
   histogram the JSONL records summarize: a record's pause_ns_count is
   the number of recorded pauses, and nursery_pause_ns_count the number
   of nursery collections. *)
let test_pause_histograms_all_collectors () =
  List.iter
    (fun (collector, gc_slice) ->
      let cfg = { Cfg.default with Cfg.collector; heap_factor = 1.25; gc_slice } in
      let profile = Holes_workload.Dacapo.pmd in
      let res = Holes_workload.Generator.run_config ~cfg ~profile ~scale:0.1 () in
      let m = res.Holes_workload.Generator.metrics in
      let field k = List.assoc k (Metrics.to_fields m) in
      let where = Cfg.name cfg in
      Alcotest.(check bool) (where ^ ": ran a full collection") true (m.Metrics.full_gcs > 0);
      if Cfg.is_generational collector then
        Alcotest.(check bool) (where ^ ": ran a nursery collection") true
          (m.Metrics.nursery_gcs > 0);
      check (Alcotest.float 0.0) (where ^ ": pause_ns_count")
        (float_of_int (List.length m.Metrics.pauses_ns))
        (field "pause_ns_count");
      check (Alcotest.float 0.0) (where ^ ": nursery_pause_ns_count")
        (float_of_int m.Metrics.nursery_gcs)
        (field "nursery_pause_ns_count"))
    [
      (Cfg.Mark_sweep, 0);
      (Cfg.Sticky_ms, 0);
      (Cfg.Immix, 0);
      (Cfg.Sticky_immix, 0);
      (Cfg.Mark_sweep, 256);
      (Cfg.Sticky_immix, 256);
    ]

let test_deterministic_runs () =
  let run () =
    let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.bloat 0.05 in
    let vm = Vm.create ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
    let res = Holes_workload.Generator.run ~rng:(Holes_stdx.Xrng.of_seed 3) vm profile in
    res.Holes_workload.Generator.elapsed_ms
  in
  check (Alcotest.float 1e-9) "bit-identical reruns" (run ()) (run ())

let test_pp_summary_renders () =
  let vm = Vm.create ~min_heap_bytes:(1 lsl 20) () in
  ignore (Vm.alloc vm ~size:64 ());
  let s = Format.asprintf "%a" Vm.pp_summary vm in
  Alcotest.(check bool) "summary non-empty" true (String.length s > 40)

let suite =
  [
    ("config validation", `Quick, test_config_validation);
    ("config names", `Quick, test_config_names);
    ("heap sizing", `Quick, test_heap_sizing);
    ("cost model accumulates", `Quick, test_cost_model_accumulates);
    ("metrics wiring", `Quick, test_metrics_wiring);
    ("pause recording", `Quick, test_pause_recording);
    ("pause histograms, all collectors", `Quick, test_pause_histograms_all_collectors);
    ("deterministic runs", `Quick, test_deterministic_runs);
    ("pp_summary renders", `Quick, test_pp_summary_renders);
  ]
