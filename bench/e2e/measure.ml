(* One benchmark run: the declared metrics, the measurement loop and the
   result record.

   A run generates its inputs, makes an untimed warm-up pass that runs
   every correctness check and sets the digest of all virtual outputs,
   reads the peak memory, then alternates timed set-ups and timed passes
   for --seconds.  Host times are read on the thread's CPU clock and
   brought to a reference speed of the host's memory system (Speed),
   sampled while they ran; set-up time is the median set-up and
   throughput comes from the median pass.  Virtual metrics are the
   warm-up pass's, and every pass must reproduce its digest.
   With --trace 1 each timed pass is followed by a traced pass on the
   same inputs, and the run reports the per-layer metrics instead. *)

module Metrics = Holes.Metrics
module Vm = Holes.Vm
module Cost = Holes.Cost
module Stats = Holes_obs.Stats
module Report = Holes_fleet.Report

let workloads = [ "paper-static"; "device-aging"; "hybrid-aging"; "fleet-aging" ]
let default_seed = 1
let held_out_seed = 7919

(* The measured part of a run: a timed set-up, then a pass, at least
   twice and then as long as another round fits in [seconds] at the
   length of the last one.  Interleaving the set-ups with the passes
   spreads them over the whole run, as the passes are: the host's speed
   drifts in phases of several seconds, and set-ups made back to back all
   land in one phase (their median then moved by up to 50% between
   runs).  At least [setup_reps] set-ups are made. *)
let setup_reps = 5

let measure_loop ~(seconds : float) ~(setup : unit -> unit) ~(pass : unit -> unit) : unit =
  let t0 = Clock.now_ns () in
  let n = ref 0 and last = ref 0.0 in
  while !n < 2 || Clock.seconds_since t0 +. !last <= seconds do
    let r0 = Clock.now_ns () in
    setup ();
    pass ();
    last := Clock.seconds_since r0;
    incr n
  done;
  for _ = !n + 1 to setup_reps do
    setup ()
  done

(* ---- declared metrics: (name, unit, better) ---- *)

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("ops_per_s", "1/s", "higher");
    ("peak_rss_mb", "MB", "lower");
    ("virt_us_per_op", "us", "lower");
  ]

let per_layer =
  let c n better = (n, "count", better) in
  let gc prefix =
    [
      c (prefix ^ ".count") "lower";
      (prefix ^ ".host_ms", "ms", "lower");
      (prefix ^ ".host_p99_ms", "ms", "lower");
      (prefix ^ ".virt_ms", "ms", "lower");
    ]
  in
  [
    c "vm.alloc.count" "higher";
    ("vm.alloc.host_ns", "ns", "lower");
    ("vm.alloc.virt_ns", "ns", "lower");
    c "vm.write_ref.count" "higher";
    ("vm.write_ref.host_ns", "ns", "lower");
    c "vm.kill.count" "higher";
    ("vm.kill.host_ns", "ns", "lower");
  ]
  @ gc "immix.nursery" @ gc "immix.full" @ gc "immix.retire" @ gc "immix.collect"
  @ [
      c "immix.hole_skips" "lower";
      c "immix.lines_scanned" "lower";
      ("immix.bytes_copied_mb", "MB", "lower");
      c "immix.objects_evacuated" "lower";
      c "immix.perfect_fallbacks" "lower";
      ("immix.pause_p99_ms", "ms", "lower");
      ("immix.pause_max_ms", "ms", "lower");
      c "los.objects" "lower";
      c "los.pages" "lower";
      ("cost.mutator_ms", "ms", "lower");
      ("cost.gc_ms", "ms", "lower");
      c "device.writes" "lower";
      ("device.writes_per_alloc", "writes/alloc", "lower");
      c "device.reads" "lower";
      c "device.line_failures" "lower";
      c "fbuf.stalls" "lower";
      c "fbuf.peak" "lower";
      c "translate.gap_moves" "lower";
      c "translate.remap_copies" "lower";
      c "osal.upcalls" "lower";
      c "osal.page_copies" "lower";
      c "osal.data_restores" "lower";
      c "osal.reverse_translations" "lower";
      c "osal.swap_ins" "lower";
      c "tier.promotes" "lower";
      c "tier.demotes" "lower";
      c "tier.dram_writes" "higher";
      c "caram.dedup_hits" "higher";
      c "caram.compressed" "higher";
      c "caram.meta_writes" "lower";
      c "fleet.requests" "higher";
      c "fleet.evictions" "lower";
      c "fleet.dead_tenants" "lower";
      c "fleet.device_failures" "lower";
      ("fleet.gc_ms", "ms", "lower");
      c "fleet.gc_pauses" "lower";
      ("fleet.epoch_first_p99_ms", "ms", "lower");
      ("fleet.epoch_last_p99_ms", "ms", "lower");
      ("fleet.drain_ms", "ms", "lower");
      ("fleet.shard.host_s_p50", "s", "lower");
      ("fleet.shard.host_s_max", "s", "lower");
      ("fleet.report.merge_ms", "ms", "lower");
      ("engine.imbalance", "ratio", "lower");
      ("engine.parallel_eff", "ratio", "higher");
      ("engine.overhead_s", "s", "lower");
      ("ocaml.minor_words_per_op", "words/op", "lower");
      c "ocaml.major_gcs" "lower";
      ("ocaml.top_heap_mb", "MB", "lower");
      c "gen.ops" "higher";
      ("gen.host_s", "s", "lower");
      ("vm.create.host_ms", "ms", "lower");
      ("host.speed", "ratio", "higher");
      ("host.cpu_ops_per_s", "1/s", "higher");
      ("bench.traced_wall_s", "s", "lower");
      ("bench.unattributed_s", "s", "lower");
      ("trace.overhead", "ratio", "lower");
      ("model.overhead_uniform", "ratio", "lower");
      ("model.overhead_2cl", "ratio", "lower");
      ("model.line_failures_per_mb", "1/MB", "lower");
      ("model.absorption", "ratio", "higher");
      ("model.virt_ms_per_mb", "ms/MB", "lower");
      ("model.lat_p50_ms", "ms", "lower");
      ("model.lat_p99_ms", "ms", "lower");
      ("model.goodput", "ratio", "higher");
      ("model.gc_pause_p99_ms", "ms", "lower");
      ("model.gc_pause_max_ms", "ms", "lower");
    ]

(* ---- helpers ---- *)

let median (xs : float list) : float = Layers.quantile xs 0.5

let mb (bytes : int) : float = float_of_int bytes /. 1048576.0
let ns_ms (ns : float) : float = ns /. 1e6

(* Virtual sums agree when they match to float rounding. *)
let close (a : float) (b : float) : bool = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

type check = { what : string; ok : bool; detail : string }

(* A timed set-up or pass: its CPU time and the host's speed meanwhile
   (Speed.factor). *)
type timing = { cpu_s : float; speed : float }

(* Its CPU seconds at the reference speed. *)
let at_reference (t : timing) : float = t.cpu_s *. t.speed

(* The end-to-end host metrics: the median set-up, and [ops] (the
   operations of one pass) over the median pass. *)
let host_metrics ~(ops : int) ~(setups : timing list) ~(passes : timing list) : (string * float) list =
  [
    ("setup_s", median (List.map at_reference setups));
    ("ops_per_s", float_of_int ops /. median (List.map at_reference passes));
  ]

(* The host's median speed over the passes, and the throughput on the
   CPU clock alone. *)
let speed_metrics ~(ops : int) ~(passes : timing list) : (string * float) list =
  [
    ("host.speed", median (List.map (fun t -> t.speed) passes));
    ("host.cpu_ops_per_s", float_of_int ops /. median (List.map (fun t -> t.cpu_s) passes));
  ]

type result = {
  workload : string;
  seed : int;
  trace : bool;
  passes : int;
  attempted : int;
  failed : int;
  checks : check list;
  digest : string;
  values : (string * float) list;  (** reported metrics (end-to-end or per-layer) *)
  model : (string * float) list;  (** the workload's modeled outcomes *)
  ops_per_pass : int;
  pass_timings : timing list;  (** the untraced timed passes *)
  setup_timings : timing list;
  cells : Json.t list;  (** per-cell outcome of the first pass (batch workloads) *)
}

let correct (r : result) : bool = List.for_all (fun c -> c.ok) r.checks

(* ---- batch workloads ---- *)

type pass = {
  outs : Batch.outcome list;
  host_s : float;  (** wall clock *)
  cpu_s : float;  (** CPU clock *)
  speed : float;  (** Speed.factor over the cells, sampled between them *)
  ops : int;
  minor_words : float;
  major_gcs : int;
}

(* One pass over every cell.  Each cell starts from a freshly collected
   OCaml heap (outside its timed region), so no cell pays for collecting
   the garbage of the one before it, and the heap's peak does not depend
   on where the OCaml collector happened to be in its cycle.  Speed is
   sampled before the first cell and after each. *)
let run_pass ?probe ~verify ~ids (w : Batch.t) (tapes : Tape.t array) (cells : Batch.cell list) : pass =
  let g0 = Gc.quick_stat () in
  let sp = Speed.start () in
  let outs =
    List.mapi
      (fun i c ->
        Gc.full_major ();
        let o =
          match probe with
          | None -> Batch.run_cell ~verify ~ids w tapes c
          | Some p ->
              p.Layers.lane <- i + 1;
              Layers.span p ~tid:(i + 1) c.Batch.label (fun () -> Batch.run_cell ~probe:p ~verify ~ids w tapes c)
        in
        Speed.add sp o.Batch.cpu_s;
        o)
      cells
  in
  let g1 = Gc.quick_stat () in
  {
    outs;
    host_s = List.fold_left (fun acc (o : Batch.outcome) -> acc +. o.Batch.host_s) 0.0 outs;
    cpu_s = List.fold_left (fun acc (o : Batch.outcome) -> acc +. o.Batch.cpu_s) 0.0 outs;
    speed = Speed.factor sp;
    ops = Batch.allocs outs;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let batch_model (outs : Batch.outcome list) : (string * float) list =
  let bytes = Batch.sum_int outs (fun m -> m.Metrics.bytes_allocated) in
  let total_ns = Batch.sum_float outs (fun o -> o.Batch.total_ns) in
  let aging = List.exists (fun (o : Batch.outcome) -> o.Batch.device) outs in
  [
    ("model.overhead_uniform", Batch.overhead outs ~config:"25%-uniform");
    ("model.overhead_2cl", Batch.overhead outs ~config:"25%-2CL");
    ( "model.line_failures_per_mb",
      if aging && bytes > 0 then float_of_int (Batch.sum_int outs (fun m -> m.Metrics.device_line_failures)) /. mb bytes
      else 0.0 );
    ("model.absorption", Batch.absorption outs);
    ("model.virt_ms_per_mb", if bytes = 0 then 0.0 else ns_ms total_ns /. mb bytes);
    ("model.gc_pause_p99_ms", ns_ms (Stats.quantile ~interp:true (Batch.pauses outs) 0.99));
    ("model.gc_pause_max_ms", ns_ms (Stats.max_value (Batch.pauses outs)));
  ]

let batch_virtual (outs : Batch.outcome list) : (string * float) list =
  let total_ns = Batch.sum_float outs (fun o -> o.Batch.total_ns) in
  let allocs = Batch.allocs outs in
  [ ("virt_us_per_op", if allocs = 0 then 0.0 else total_ns /. 1e3 /. float_of_int allocs) ]

(* Per-layer counters read from the VMs' public metrics. *)
let batch_counters (outs : Batch.outcome list) : (string * float) list =
  let s f = float_of_int (Batch.sum_int outs f) in
  let full_pauses = Stats.merged (List.map (fun o -> o.Batch.metrics.Metrics.pause_hist) outs) in
  let allocs = Batch.allocs outs in
  [
    ("immix.hole_skips", s (fun m -> m.Metrics.hole_skips));
    ("immix.lines_scanned", s (fun m -> m.Metrics.lines_scanned));
    ("immix.bytes_copied_mb", mb (Batch.sum_int outs (fun m -> m.Metrics.bytes_copied)));
    ("immix.objects_evacuated", s (fun m -> m.Metrics.objects_evacuated));
    ("immix.perfect_fallbacks", s (fun m -> m.Metrics.perfect_block_fallbacks));
    ("immix.pause_p99_ms", ns_ms (Stats.quantile ~interp:true full_pauses 0.99));
    ("immix.pause_max_ms", ns_ms (Stats.max_value full_pauses));
    ("los.objects", s (fun m -> m.Metrics.los_objects));
    ("los.pages", s (fun m -> m.Metrics.los_pages));
    ("cost.mutator_ms", ns_ms (Batch.sum_float outs (fun o -> o.Batch.mutator_ns)));
    ("cost.gc_ms", ns_ms (Batch.sum_float outs (fun o -> o.Batch.gc_ns)));
    ("device.writes", s (fun m -> m.Metrics.device_writes));
    ( "device.writes_per_alloc",
      if allocs = 0 then 0.0
      else float_of_int (Batch.sum_int outs (fun m -> m.Metrics.device_writes)) /. float_of_int allocs );
    ("device.reads", s (fun m -> m.Metrics.device_reads));
    ("device.line_failures", s (fun m -> m.Metrics.device_line_failures));
    ("fbuf.stalls", s (fun m -> m.Metrics.fbuf_stall_events));
    ("fbuf.peak", float_of_int (List.fold_left (fun acc o -> max acc o.Batch.metrics.Metrics.fbuf_peak_occupancy) 0 outs));
    ("translate.gap_moves", s (fun m -> m.Metrics.wl_gap_moves));
    ("translate.remap_copies", s (fun m -> m.Metrics.wl_remap_copies));
    ("osal.upcalls", s (fun m -> m.Metrics.os_upcalls));
    ("osal.page_copies", s (fun m -> m.Metrics.os_page_copies));
    ("osal.data_restores", s (fun m -> m.Metrics.os_data_restores));
    ("osal.reverse_translations", s (fun m -> m.Metrics.reverse_translations));
    ("osal.swap_ins", s (fun m -> m.Metrics.swap_ins));
    ("tier.promotes", s (fun m -> m.Metrics.hyb_promotes));
    ("tier.demotes", s (fun m -> m.Metrics.hyb_demotes));
    ("tier.dram_writes", s (fun m -> m.Metrics.hyb_dram_writes));
    ("caram.dedup_hits", s (fun m -> m.Metrics.hyb_dedup_hits));
    ("caram.compressed", s (fun m -> m.Metrics.hyb_compressed));
    ("caram.meta_writes", s (fun m -> m.Metrics.hyb_meta_writes));
  ]

let cell_json (o : Batch.outcome) : Json.t =
  Json.Obj
    [
      ("cell", Json.Str o.Batch.cell.Batch.label);
      ("rounds", Json.Num (float_of_int o.Batch.rounds));
      ("oom", Json.Bool o.Batch.oom);
      ("allocs", Json.Num (float_of_int o.Batch.metrics.Metrics.objects_allocated));
      ("host_s", Json.Num o.Batch.host_s);
      ("cpu_s", Json.Num o.Batch.cpu_s);
      ("virt_ms", Json.Num (ns_ms o.Batch.total_ns));
    ]

let digest_check (what : string) (mismatches : int) : check =
  { what; ok = mismatches = 0; detail = if mismatches = 0 then "" else Printf.sprintf "%d passes differ" mismatches }

let cell_checks (p : pass) : check list =
  List.concat_map
    (fun (o : Batch.outcome) ->
      List.map (fun f -> { what = o.Batch.cell.Batch.label; ok = false; detail = f }) o.Batch.failures)
    p.outs

let failed_cells (p : pass) : int =
  List.length (List.filter (fun (o : Batch.outcome) -> o.Batch.failures <> []) p.outs)

(* Set-up: generate the tapes and construct every VM of one pass, each
   VM dropped as soon as it is built.  For the timing only: returns the
   input-generation and VM-construction CPU times and the host's speed
   (sampled before and after). *)
let batch_setup (w : Batch.t) ~(seed : int) (cells : Batch.cell list) : float * float * float =
  Gc.full_major ();
  let sp = Speed.start () in
  let t, gen_s = Clock.cpu_timed (fun () -> Batch.tapes w ~seed) in
  let create_s =
    List.fold_left
      (fun acc (c : Batch.cell) ->
        acc +. snd (Clock.cpu_timed (fun () -> ignore (Batch.create_vm c t.(c.Batch.tape)))))
      0.0 cells
  in
  Speed.add sp (gen_s +. create_s);
  (gen_s, create_s, Speed.factor sp)

(* Both modes start by generating the inputs once and making a warm-up
   pass: it runs every correctness check, sets the reference digest and
   fills the OCaml heap and caches, and is not timed.  Peak memory is
   read right after it, so that it covers the same work on every run
   (the number of set-ups and timed passes depends on the host's speed).
   Then [measure_loop]: timed set-ups and untraced passes; with [trace]
   each untraced pass is followed by a traced one, so the tracing
   overhead compares neighbouring passes. *)
let run_batch (w : Batch.t) ~(seed : int) ~(seconds : float) ~(trace : bool) ~(trace_path : string option)
    : result =
  let tapes = Batch.tapes w ~seed in
  let cells = Batch.cells w ~seed in
  let ids = Tape.ids_for tapes in
  let warm = run_pass ~verify:true ~ids w tapes cells in
  let digest = Batch.digest warm.outs in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let gen = ref [] and create = ref [] and setups = ref [] in
  let untraced = ref [] and traced = ref [] in
  let bad_untraced = ref 0 and bad_traced = ref 0 in
  measure_loop ~seconds
    ~setup:(fun () ->
      let g, c, speed = batch_setup w ~seed cells in
      gen := (g *. speed) :: !gen;
      create := (c *. speed) :: !create;
      setups := { cpu_s = g +. c; speed } :: !setups)
    ~pass:(fun () ->
      let p = run_pass ~verify:false ~ids w tapes cells in
      if Batch.digest p.outs <> digest then incr bad_untraced;
      untraced := p :: !untraced;
      if trace then begin
        let probe = Layers.create () in
        let p = Layers.span probe ~tid:1000 w.Batch.name (fun () -> run_pass ~probe ~verify:false ~ids w tapes cells) in
        if Batch.digest p.outs <> digest then incr bad_traced;
        traced := (p, probe) :: !traced
      end);
  let gen = !gen and create = !create in
  let passes = List.rev_map (fun (p : pass) -> { cpu_s = p.cpu_s; speed = p.speed }) !untraced in
  let checks =
    ref
      (digest_check "untraced passes reproduce the warm-up digest" !bad_untraced
      :: (if trace then [ digest_check "traced passes reproduce the untraced digest" !bad_traced ] else [])
      @ cell_checks warm)
  in
  let npasses = 1 + List.length !untraced + List.length !traced in
  let result ~values =
    {
      workload = w.Batch.name;
      seed;
      trace;
      passes = npasses;
      attempted = List.length cells * npasses;
      failed =
        List.fold_left (fun acc p -> acc + failed_cells p) (failed_cells warm) (!untraced @ List.map fst !traced);
      checks = !checks;
      digest;
      values;
      model = batch_model warm.outs;
      ops_per_pass = warm.ops;
      pass_timings = passes;
      setup_timings = List.rev !setups;
      cells = List.map cell_json warm.outs;
    }
  in
  if not trace then
    result
      ~values:
        (host_metrics ~ops:warm.ops ~setups:!setups ~passes
        @ (("peak_rss_mb", peak_rss_mb) :: batch_virtual warm.outs))
  else begin
    (* per-layer numbers from the traced pass of median wall time *)
    let by_wall = List.sort (fun (a, _) (b, _) -> compare a.host_s b.host_s) !traced in
    let p, probe = List.nth by_wall (List.length by_wall / 2) in
    let untraced_wall = median (List.map (fun p -> p.host_s) !untraced) in
    let traced_wall = median (List.map (fun (p, _) -> p.host_s) !traced) in
    (* the virtual clock: class times sum to every VM's Cost.total_ns *)
    let virt_total = Batch.sum_float p.outs (fun o -> o.Batch.total_ns) in
    let virt_classes = Layers.total_virt_ns probe +. Batch.sum_float p.outs (fun o -> o.Batch.create_virt_ns) in
    (* the host clock: class times plus the unattributed rest are the wall *)
    let host_classes = float_of_int (Layers.total_host_ns probe) *. 1e-9 in
    let unattributed = p.host_s -. host_classes in
    checks :=
      { what = "class virtual times sum to Cost.total_ns"; ok = close virt_classes virt_total;
        detail = Printf.sprintf "classes %.17g ns, VMs %.17g ns" virt_classes virt_total }
      :: { what = "class host times fit inside the traced wall"; ok = unattributed >= 0.0;
           detail = Printf.sprintf "wall %.6f s, classes %.6f s" p.host_s host_classes }
      :: !checks;
    Option.iter (fun path -> Layers.write_chrome probe ~path ~process:w.Batch.name) trace_path;
    let gc_stat = Gc.quick_stat () in
    result
      ~values:
        (Layers.class_metrics probe @ batch_counters p.outs
        @ [
            ("ocaml.minor_words_per_op", p.minor_words /. float_of_int p.ops);
            ("ocaml.major_gcs", float_of_int p.major_gcs);
            ("ocaml.top_heap_mb", float_of_int (gc_stat.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
            ("gen.ops", float_of_int (Array.fold_left (fun acc t -> acc + t.Tape.nops) 0 tapes));
            ("gen.host_s", median gen);
            ("vm.create.host_ms", median create *. 1e3);
          ]
        @ speed_metrics ~ops:warm.ops ~passes
        @ [
            ("bench.traced_wall_s", p.host_s);
            ("bench.unattributed_s", unattributed);
            ("trace.overhead", traced_wall /. untraced_wall -. 1.0);
          ]
        @ batch_model p.outs)
  end

(* ---- the fleet ---- *)

let fleet_model (r : Report.t) : (string * float) list =
  [
    ("model.lat_p50_ms", Stats.quantile ~interp:true r.Report.latency 0.50 /. 1e6);
    ("model.lat_p99_ms", Stats.quantile ~interp:true r.Report.latency 0.99 /. 1e6);
    ( "model.goodput",
      let n = Fleet_wl.attempted r in
      if n = 0 then 0.0 else float_of_int r.Report.good /. float_of_int n );
    ("model.gc_pause_p99_ms", r.Report.gc_pause_p99_ms);
    ("model.gc_pause_max_ms", r.Report.gc_pause_max_ms);
  ]

(* Same run structure as [run_batch]: a warm-up Sim.run on one domain
   sets the reference digest and is followed by the peak-memory reading,
   then [measure_loop] with timed passes that run the shards one after
   the other on this domain, with a Speed sample before each.  With
   [trace], each is followed by an untraced Sim.run on
   [Fleet_wl.traced_jobs] domains and a traced pass through the shards
   on as many; every pass must reproduce the warm-up report, and the
   tracing overhead compares the last two. *)
let run_fleet (size : Batch.size) ~(seed : int) ~(seconds : float) ~(trace : bool)
    ~(trace_path : string option) : result =
  let p = Fleet_wl.params size ~seed in
  let probe = Layers.create () in
  (* a shard that raises is left out of the report; every pass counts
     the missing ones as failed operations *)
  let missing = ref 0 in
  let note_missing r = missing := !missing + Fleet_wl.missing_shards p r in
  let warm = Holes_fleet.Sim.run ~jobs:1 p in
  note_missing warm;
  let digest = Fleet_wl.digest warm in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let setups = ref [] in
  let untraced = ref [] and untraced_par = ref [] and traced = ref [] in
  let bad_untraced = ref 0 and bad_par = ref 0 and bad_traced = ref 0 in
  measure_loop ~seconds
    ~setup:(fun () ->
      Gc.full_major ();
      let sp = Speed.start () in
      let (), cpu_s = Clock.cpu_timed (fun () -> Fleet_wl.setup p) in
      Speed.add sp cpu_s;
      setups := { cpu_s; speed = Speed.factor sp } :: !setups)
    ~pass:(fun () ->
      Gc.full_major ();
      let sp = Speed.start () in
      let r = Fleet_wl.run_sharded ~speed:sp ~jobs:1 p in
      note_missing r.Fleet_wl.report;
      if Fleet_wl.digest r.Fleet_wl.report <> digest then incr bad_untraced;
      untraced := { cpu_s = Fleet_wl.cpu_s r; speed = Speed.factor sp } :: !untraced;
      if trace then begin
        Gc.full_major ();
        let r, s = Clock.timed (fun () -> Holes_fleet.Sim.run ~jobs:Fleet_wl.traced_jobs p) in
        note_missing r;
        if Fleet_wl.digest r <> digest then incr bad_par;
        untraced_par := s :: !untraced_par;
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let tr, wall = Clock.timed (fun () -> Fleet_wl.run_sharded ~jobs:Fleet_wl.traced_jobs p) in
        let g1 = Gc.quick_stat () in
        note_missing tr.Fleet_wl.report;
        if Fleet_wl.digest tr.Fleet_wl.report <> digest then incr bad_traced;
        traced :=
          (tr, wall, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)
          :: !traced
      end);
  let passes = List.rev !untraced in
  let ops = warm.Report.completed in
  let checks =
    ref
      ({ what = "every device shard completed"; ok = !missing = 0;
         detail = (if !missing = 0 then "" else Printf.sprintf "%d shards failed" !missing) }
      :: digest_check "timed passes reproduce the warm-up Sim.run report" !bad_untraced
      ::
      (if trace then
         [
           digest_check "the report is the same on one and two domains" !bad_par;
           digest_check "the traced per-shard report equals the Sim.run report" !bad_traced;
         ]
       else []))
  in
  let npasses = 1 + List.length !untraced + List.length !untraced_par + List.length !traced in
  let result ~values =
    {
      workload = "fleet-aging";
      seed;
      trace;
      passes = npasses;
      attempted = (Fleet_wl.attempted warm * npasses) + !missing;
      failed = (Fleet_wl.failed warm * npasses) + !missing;
      checks = !checks;
      digest;
      values;
      model = fleet_model warm;
      ops_per_pass = ops;
      pass_timings = passes;
      setup_timings = List.rev !setups;
      cells = [];
    }
  in
  if not trace then
    result
      ~values:
        (host_metrics ~ops ~setups:!setups ~passes
        @ [
            ("peak_rss_mb", peak_rss_mb);
            (* the p99, not the mean: over 30 seeds, a handful of requests
               past the 10 ms SLO put one seed's mean latency 68% above the
               median seed's, and no seed's p99 more than 22% above *)
            ("virt_us_per_op", Stats.quantile ~interp:true warm.Report.latency 0.99 /. 1e3);
          ])
  else begin
    let by_wall = List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) !traced in
    let tr, wall, minor, major = List.nth by_wall (List.length by_wall / 2) in
    let r = tr.Fleet_wl.report in
    let shard = Array.to_list (Array.map (fun (s : Fleet_wl.shard) -> s.Fleet_wl.host_s) tr.Fleet_wl.shards) in
    (* the parallel wall is set by the busier worker: its shards are the
       critical path *)
    let jobs = Fleet_wl.traced_jobs in
    let busy = Array.make jobs 0.0 in
    Array.iter
      (fun (s : Fleet_wl.shard) -> busy.(s.Fleet_wl.worker mod jobs) <- busy.(s.Fleet_wl.worker mod jobs) +. s.Fleet_wl.host_s)
      tr.Fleet_wl.shards;
    let critical = Array.fold_left Float.max 0.0 busy in
    let sum_shard = List.fold_left ( +. ) 0.0 shard in
    let mean_shard = sum_shard /. float_of_int (max 1 (List.length shard)) in
    let max_shard = List.fold_left Float.max 0.0 shard in
    let unattributed = wall -. critical -. tr.Fleet_wl.merge_s in
    let structural name ~tid ~start_ns ~s =
      Layers.add_span probe
        { Layers.name; cls = -1; tid; start_ns; dur_ns = int_of_float (s *. 1e9); virt_ns = 0.0; args = [] }
    in
    structural "engine run" ~tid:100 ~start_ns:tr.Fleet_wl.engine_start_ns ~s:tr.Fleet_wl.engine_s;
    structural "merge" ~tid:100
      ~start_ns:(tr.Fleet_wl.engine_start_ns + int_of_float (tr.Fleet_wl.engine_s *. 1e9))
      ~s:tr.Fleet_wl.merge_s;
    Array.iter
      (fun (s : Fleet_wl.shard) ->
        Layers.add_span probe
          { Layers.name = Printf.sprintf "shard dev%d" s.Fleet_wl.device; cls = -1; tid = s.Fleet_wl.worker + 1;
            start_ns = s.Fleet_wl.start_ns; dur_ns = int_of_float (s.Fleet_wl.host_s *. 1e9); virt_ns = 0.0;
            args = [ ("device", float_of_int s.Fleet_wl.device) ] })
      tr.Fleet_wl.shards;
    Option.iter (fun path -> Layers.write_chrome probe ~path ~process:"fleet-aging") trace_path;
    checks :=
      { what = "shard critical path and merge fit inside the traced wall"; ok = unattributed >= 0.0;
        detail = Printf.sprintf "wall %.6f s, critical %.6f s, merge %.6f s" wall critical tr.Fleet_wl.merge_s }
      :: !checks;
    let gc_stat = Gc.quick_stat () in
    let epochs = Array.length r.Report.epoch in
    result
      ~values:
        ([
           ("fleet.requests", float_of_int r.Report.completed);
           ("fleet.evictions", float_of_int r.Report.evictions);
           ("fleet.dead_tenants", float_of_int r.Report.dead_tenants);
           ("fleet.device_failures", float_of_int r.Report.device_failures);
           ("device.writes", float_of_int r.Report.device_writes);
           ("device.line_failures", float_of_int r.Report.device_failures);
           ("fleet.gc_ms", r.Report.gc_ms);
           ("fleet.gc_pauses", float_of_int (Stats.count r.Report.gc_pause));
           ("fleet.epoch_first_p99_ms", Fleet_wl.epoch_p99_ms r 0);
           ("fleet.epoch_last_p99_ms", Fleet_wl.epoch_p99_ms r (epochs - 1));
           ("fleet.drain_ms", tr.Fleet_wl.drain_ms);
           ("fleet.shard.host_s_p50", median shard);
           ("fleet.shard.host_s_max", max_shard);
           ("fleet.report.merge_ms", tr.Fleet_wl.merge_s *. 1e3);
           ("engine.imbalance", if mean_shard > 0.0 then max_shard /. mean_shard else 0.0);
           ("engine.parallel_eff", sum_shard /. (float_of_int jobs *. tr.Fleet_wl.engine_s));
           ("engine.overhead_s", tr.Fleet_wl.engine_s -. critical);
           ("tier.promotes", float_of_int r.Report.hyb_promotes);
           ("tier.demotes", float_of_int r.Report.hyb_demotes);
           ("tier.dram_writes", float_of_int r.Report.hyb_dram_writes);
           ("caram.dedup_hits", float_of_int r.Report.hyb_dedup_hits);
           ("caram.compressed", float_of_int r.Report.hyb_compressed);
           ("ocaml.minor_words_per_op", minor /. float_of_int (max 1 r.Report.completed));
           ("ocaml.major_gcs", float_of_int major);
           ("ocaml.top_heap_mb", float_of_int (gc_stat.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
           ("vm.create.host_ms", median (List.map at_reference !setups) *. 1e3);
         ]
        @ speed_metrics ~ops ~passes
        @ [
            ("bench.traced_wall_s", wall);
            ("bench.unattributed_s", unattributed);
            ("trace.overhead", median (List.map (fun (_, w, _, _) -> w) !traced) /. median !untraced_par -. 1.0);
          ]
        @ fleet_model r)
  end

(* ---- one run ---- *)

let run ~(workload : string) ~(size : Batch.size) ~(seed : int) ~(seconds : float) ~(trace : bool)
    ?(trace_path : string option) () : result =
  let batch w = run_batch (w size) ~seed ~seconds ~trace ~trace_path in
  match workload with
  | "paper-static" -> batch Batch.paper_static
  | "device-aging" -> batch Batch.device_aging
  | "hybrid-aging" -> batch Batch.hybrid_aging
  | "fleet-aging" -> run_fleet size ~seed ~seconds ~trace ~trace_path
  | w -> invalid_arg ("unknown workload " ^ w)

(* Every declared metric of the run's kind, with its unit; layers a
   workload bypasses read 0. *)
let reported (r : result) : (string * float * string) list =
  let decl = if r.trace then per_layer else end_to_end in
  List.map
    (fun (name, unit_, _) ->
      (name, (match List.assoc_opt name r.values with Some v -> v | None -> 0.0), unit_))
    decl

let summary_json (r : result) : Json.t =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             (reported r)) );
    ]

let result_json (r : result) : Json.t =
  let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  let timings l =
    Json.Arr (List.map (fun (t : timing) -> Json.Obj [ ("cpu_s", Json.Num t.cpu_s); ("speed", Json.Num t.speed) ]) l)
  in
  match summary_json r with
  | Json.Obj fields ->
      Json.Obj
        ([ ("workload", Json.Str r.workload); ("seed", Json.Num (float_of_int r.seed));
           ("trace", Json.Bool r.trace); ("passes", Json.Num (float_of_int r.passes));
           ("digest", Json.Str r.digest) ]
        @ fields
        @ [
            ("model", nums r.model);
            ("ops_per_pass", Json.Num (float_of_int r.ops_per_pass));
            ("pass_timings", timings r.pass_timings);
            ("setup_timings", timings r.setup_timings);
            ("cells", Json.Arr r.cells);
            ( "checks",
              Json.Arr
                (List.map
                   (fun c -> Json.Obj [ ("what", Json.Str c.what); ("ok", Json.Bool c.ok); ("detail", Json.Str c.detail) ])
                   r.checks) );
          ])
  | _ -> assert false

let print_result (r : result) : unit =
  Printf.printf "%s seed %d (%s): %d passes, digest %s\n" r.workload r.seed
    (if r.trace then "traced" else "untraced")
    r.passes r.digest;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.6f %s\n" n v u) (reported r);
  if not r.trace then List.iter (fun (n, v) -> Printf.printf "  %-28s %16.6f (model)\n" n v) r.model;
  List.iter
    (fun c ->
      Printf.printf "  check %-4s %s%s\n" (if c.ok then "ok" else "FAIL") c.what
        (if c.detail = "" then "" else " — " ^ c.detail))
    r.checks;
  Printf.printf "  operations: %d attempted, %d failed\n" r.attempted r.failed

