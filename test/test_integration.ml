(* End-to-end integration tests across the whole stack: device → OS →
   runtime, workloads under combined static + dynamic failures, and
   cross-configuration consistency properties. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module OT = Holes_heap.Object_table
module Pcm = Holes_pcm
module Osal = Holes_osal
module Bitset = Holes_stdx.Bitset
module Xrng = Holes_stdx.Xrng

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Device -> OS -> failure map -> runtime pipeline                     *)
(* ------------------------------------------------------------------ *)

(* Age a clustered device with skewed traffic, export the OS failure
   table as a VM failure map, and run a workload on it: the full
   "memory got old, software adapts" story. *)
let test_aged_device_feeds_runtime () =
  let pages = 64 in
  let device =
    Pcm.Device.create
      ~config:
        {
          Pcm.Device.pages;
          wear = { Pcm.Wear.mean_endurance = 300.0; sigma = 0.3; ecp_entries = 1; ecp_extension = 0.1 };
          clustering = Some 2;
          buffer_capacity = 16;
          caram = None;
          wear_level = None;
        }
      ~seed:3 ()
  in
  let vmm = Osal.Vmm.create ~dram_pages:2 ~pcm_pages:pages () in
  let handler = Osal.Interrupts.attach ~vmm ~device () in
  let rng = Xrng.of_seed 17 in
  let zipf = Holes_stdx.Dist.zipf_sampler ~n:(Pcm.Device.nlines device) ~s:0.9 in
  let payload = Bytes.make Pcm.Geometry.line_bytes 'w' in
  let writes = ref 0 in
  while List.length (Pcm.Device.unusable_lines device) < 256 && !writes < 3_000_000 do
    (match Pcm.Device.write device (zipf rng - 1) payload with
    | Pcm.Device.Stalled -> Osal.Interrupts.service handler
    | _ -> ());
    incr writes
  done;
  Osal.Interrupts.service handler;
  (* export the OS failure table into a device-wide map *)
  let table = Osal.Vmm.failure_table vmm in
  let nlines = pages * Pcm.Geometry.lines_per_page in
  let exported = Bitset.create nlines in
  for p = 0 to pages - 1 do
    let bm = Osal.Failure_table.get table ~page:p in
    for i = 0 to Pcm.Geometry.lines_per_page - 1 do
      if Bitset.get bm i then Bitset.set exported ((p * Pcm.Geometry.lines_per_page) + i)
    done
  done;
  let failed = Bitset.count exported in
  Alcotest.(check bool) "device accumulated failures" true (failed >= 200);
  (* clustering means the exported map still leaves whole perfect pages *)
  Alcotest.(check bool) "clustered map preserves perfect pages" true
    (Pcm.Failure_map.perfect_pages exported > 0);
  (* run a real workload on the aged memory *)
  let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.luindex 0.1 in
  let device_map ~npages =
    (* tile the aged map across the heap *)
    let out = Bitset.create (npages * Pcm.Geometry.lines_per_page) in
    for i = 0 to (npages * Pcm.Geometry.lines_per_page) - 1 do
      if Bitset.get exported (i mod nlines) then Bitset.set out i
    done;
    out
  in
  let vm =
    Vm.create
      ~cfg:{ Cfg.default with Cfg.failure_rate = Pcm.Failure_map.rate exported }
      ~device_map
      ~min_heap_bytes:(Holes_workload.Profile.min_heap profile)
      ()
  in
  let res = Holes_workload.Generator.run ~rng:(Xrng.of_seed 5) vm profile in
  Alcotest.(check bool) "workload completes on aged memory" true
    res.Holes_workload.Generator.completed;
  match Vm.check_invariants vm with Ok () -> () | Error m -> Alcotest.fail m

(* static failures + a stream of dynamic failures during execution *)
let test_static_plus_dynamic_failures () =
  let cfg = { Cfg.default with Cfg.failure_rate = 0.15; failure_dist = Cfg.Hw_cluster 2 } in
  let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.bloat 0.08 in
  let vm = Vm.create ~cfg ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
  let rng = Xrng.of_seed 77 in
  let live = Queue.create () in
  let injected = ref 0 in
  for i = 1 to 30_000 do
    let size = 16 + Xrng.int rng 600 in
    let id = Vm.alloc vm ~size () in
    Queue.push id live;
    if Queue.length live > 300 then Vm.kill vm (Queue.pop live);
    if i mod 3000 = 0 then begin
      (* a line fails under a random live object *)
      let victim = Queue.peek live in
      if OT.is_alive (Vm.objects vm) victim && not (OT.is_los (Vm.objects vm) victim) then begin
        Vm.dynamic_failure vm ~id:victim;
        incr injected;
        Alcotest.(check bool) "victim survived relocation" true
          (OT.is_alive (Vm.objects vm) victim)
      end
    end
  done;
  Alcotest.(check bool) "several dynamic failures injected" true (!injected >= 5);
  match Vm.check_invariants vm with Ok () -> () | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Cross-configuration consistency                                     *)
(* ------------------------------------------------------------------ *)

(* compensation keeps usable memory constant (Sec. 6.2) at the PCM-line
   granularity *)
let test_compensation_preserves_usable_bytes () =
  let usable cfg =
    let vm = Vm.create ~cfg ~min_heap_bytes:(2 * 1024 * 1024) () in
    let stock = Vm.stock vm in
    Holes_heap.Page_stock.free_usable_bytes stock
  in
  let base = usable { Cfg.default with Cfg.line_size = 64 } in
  let at_30 = usable { Cfg.default with Cfg.line_size = 64; failure_rate = 0.30 } in
  let ratio = float_of_int at_30 /. float_of_int base in
  Alcotest.(check bool)
    (Printf.sprintf "usable bytes preserved within 2%% (ratio %.4f)" ratio)
    true
    (ratio > 0.98 && ratio < 1.02)

(* identical traces, increasing failure rates: modeled time must be
   monotone non-decreasing (within a small tolerance) under clustering *)
let test_overhead_monotone_in_failures () =
  let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.jython 0.08 in
  let tr = Holes_workload.Trace.record ~seed:9 profile in
  let time rate =
    let cfg =
      if rate = 0.0 then Cfg.default
      else { Cfg.default with Cfg.failure_rate = rate; failure_dist = Cfg.Hw_cluster 2 }
    in
    let vm = Vm.create ~cfg ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
    let res = Holes_workload.Trace.replay vm tr in
    Alcotest.(check bool) "completes" true res.Holes_workload.Generator.completed;
    res.Holes_workload.Generator.elapsed_ms
  in
  let t0 = time 0.0 and t25 = time 0.25 and t50 = time 0.50 in
  Alcotest.(check bool) "failures never speed things up materially" true
    (t25 >= t0 *. 0.97 && t50 >= t0 *. 0.97)

(* the four collectors produce the same *semantics* on one trace: same
   completion, same survivor set *)
let test_collectors_agree_on_semantics () =
  let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.avrora 0.05 in
  let tr = Holes_workload.Trace.record ~seed:12 profile in
  let survivors coll =
    let vm =
      Vm.create ~cfg:{ Cfg.default with Cfg.collector = coll }
        ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) ()
    in
    let res = Holes_workload.Trace.replay vm tr in
    Alcotest.(check bool) "completed" true res.Holes_workload.Generator.completed;
    OT.live_count (Vm.objects vm)
  in
  let s_ms = survivors Cfg.Mark_sweep in
  let s_ix = survivors Cfg.Immix in
  let s_sms = survivors Cfg.Sticky_ms in
  let s_six = survivors Cfg.Sticky_immix in
  check Alcotest.int "MS = IX survivors" s_ms s_ix;
  check Alcotest.int "IX = S-MS survivors" s_ix s_sms;
  check Alcotest.int "S-MS = S-IX survivors" s_sms s_six

(* line-size sweep at fixed failures: identical *usable* line budgets
   must shrink as lines grow (false failures, Sec. 6.2) *)
let test_false_failures_grow_with_line_size () =
  let usable line_size =
    let cfg =
      { Cfg.default with Cfg.line_size; failure_rate = 0.20; compensate = false }
    in
    let vm = Vm.create ~cfg ~min_heap_bytes:(2 * 1024 * 1024) () in
    let stock = Vm.stock vm in
    (* count usable logical lines over all pages *)
    let total = ref 0 in
    for p = 0 to Holes_heap.Page_stock.npages stock - 1 do
      let page = Holes_heap.Page_stock.page stock p in
      total := !total + page.Holes_heap.Page_stock.usable_logical
    done;
    !total * line_size
  in
  let u64 = usable 64 and u128 = usable 128 and u256 = usable 256 in
  Alcotest.(check bool)
    (Printf.sprintf "usable bytes shrink with line size (%d >= %d >= %d)" u64 u128 u256)
    true
    (u64 >= u128 && u128 >= u256);
  (* at 20% uniform the false-failure loss for 256B lines is severe *)
  Alcotest.(check bool) "L256 loses over 2x more than L64" true
    (float_of_int u64 /. float_of_int u256 > 1.5)

(* clustering removes the false-failure loss *)
let test_clustering_removes_false_failures () =
  let usable dist =
    let cfg =
      { Cfg.default with Cfg.failure_rate = 0.20; failure_dist = dist; compensate = false }
    in
    let vm = Vm.create ~cfg ~min_heap_bytes:(2 * 1024 * 1024) () in
    let stock = Vm.stock vm in
    let total = ref 0 in
    for p = 0 to Holes_heap.Page_stock.npages stock - 1 do
      total := !total + (Holes_heap.Page_stock.page stock p).Holes_heap.Page_stock.usable_logical
    done;
    !total
  in
  Alcotest.(check bool) "2CL preserves many more usable lines" true
    (usable (Cfg.Hw_cluster 2) > usable Cfg.Uniform * 5 / 4)

(* pause ordering: the benchmark with the largest live set has the
   largest full-heap pause (the paper's hsqldb observation, Sec. 4.2) *)
let test_pause_ordering () =
  let pause profile =
    let profile = Holes_workload.Profile.scaled profile 0.15 in
    let vm = Vm.create ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
    let res = Holes_workload.Generator.run ~rng:(Xrng.of_seed 3) vm profile in
    Alcotest.(check bool) "completed" true res.Holes_workload.Generator.completed;
    (* force a full collection at peak live to measure the pause *)
    Vm.collect vm ~full:true;
    Holes_obs.Stats.max_value (Vm.metrics vm).Metrics.pause_hist
  in
  let hsqldb = pause Holes_workload.Dacapo.hsqldb in
  let luindex = pause Holes_workload.Dacapo.luindex in
  Alcotest.(check bool) "hsqldb pause dominates luindex" true (hsqldb > 2.0 *. luindex)

let suite =
  [
    ("aged device feeds runtime", `Slow, test_aged_device_feeds_runtime);
    ("static + dynamic failures", `Quick, test_static_plus_dynamic_failures);
    ("compensation preserves usable bytes", `Quick, test_compensation_preserves_usable_bytes);
    ("overhead monotone in failures", `Quick, test_overhead_monotone_in_failures);
    ("collectors agree on semantics", `Quick, test_collectors_agree_on_semantics);
    ("false failures grow with line size", `Quick, test_false_failures_grow_with_line_size);
    ("clustering removes false failures", `Quick, test_clustering_removes_false_failures);
    ("pause ordering", `Slow, test_pause_ordering);
  ]
