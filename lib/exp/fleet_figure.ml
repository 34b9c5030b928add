(** Serving under wear-out: request tail latency versus fleet age, per
    wear-leveling policy.

    Each row runs one {!Holes_fleet.Sim} fleet — tenant VMs multiplexed
    over shared aging PCM devices, open-loop MMPP arrivals, periodic
    failure storms — and reports the merged request-latency tail next to
    the wear telemetry.  The operating point (low endurance, bursty
    arrivals, heavy storms) is tuned so devices age visibly *within* the
    run: the per-epoch p99 split shows the latency cliff forming as the
    fleet wears out, and the cliff moves when the device pipeline levels
    wear ([start-gap], [random-remap], [decoder-swap]) or when the OS
    page allocator does ([none + wa], the wear-aware pools flag).

    The figure's claim mirrors Sec. 7.2 at fleet scale: leveling defers
    the end-of-run latency cliff (later epochs stay nearer the young
    fleet's p99) but buys it with remap/copy traffic, while the
    failure-aware runtime alone degrades gracefully — requests slow and
    tenants are evicted, but goodput never collapses to zero.

    One engine job per device shard, so each row is bit-identical at any
    [-j]; rows run sequentially and stream per-device records to
    [params.sink]. *)

open Holes_stdx
module Cfg = Holes.Config
module Wl = Holes_pcm.Wear_level
module Fleet_sim = Holes_fleet.Sim
module Arrivals = Holes_fleet.Arrivals
module Report = Holes_fleet.Report
module Stats = Holes_obs.Stats

let psi = 64

(** Work budget of the incremental-collection row: large enough that a
    cycle finishes within a request burst, small enough that every slice
    stays well under the pause SLO ({!pause_slo_ms}). *)
let inc_budget = 256

(** Pause-time SLO for the incremental row, milliseconds.  CI fails the
    figure artifact when the row's worst recorded stall exceeds this by
    more than 15%. *)
let pause_slo_ms = 1.0

(** Rows: the device-pipeline policies, OS-level leveling (wear-aware
    pools) composed with an unleveled pipeline, and the unleveled
    pipeline with incremental collection (bounded GC slices instead of
    stop-the-world pauses). *)
let rows : (string * Wl.policy option * bool * int) list =
  [
    ("none", None, false, 0);
    ("start-gap", Some (Wl.Start_gap { psi }), false, 0);
    ("random-remap", Some (Wl.Random_remap { psi }), false, 0);
    ("decoder-swap", Some (Wl.Decoder_swap { psi }), false, 0);
    ("none + wa", None, true, 0);
    ("none + inc", None, false, inc_budget);
  ]

(** The aging operating point: endurance low enough that storm traffic
    retires lines mid-run, bursty arrivals so queues form behind GC and
    retirement pauses.  Scaled by tenant/device count only — the
    per-device aging rate (storm writes per line) must match between
    quick and full runs, so both keep the same tenants-per-device ratio
    and the same storm schedule. *)
let fleet_params ~(tenants : int) ~(devices : int) ~(policy : Wl.policy option)
    ~(wear_aware : bool) ~(gc_slice : int) : Fleet_sim.params =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 25.0 } in
  let cfg =
    {
      Fleet_sim.default.Fleet_sim.cfg with
      Cfg.backend = Cfg.Device { d with Cfg.wear; wear_aware_pools = wear_aware };
      wear_level = policy;
      gc_slice;
    }
  in
  {
    Fleet_sim.default with
    Fleet_sim.tenants;
    devices;
    arrival = Arrivals.Mmpp { rate = 150.0; burst = 6.0; dwell_ms = 40.0 };
    duration_ms = 1500.0;
    epochs = 4;
    slo_ms = 10.0;
    storm_every_ms = 50.0;
    storm_writes = 16384;
    cfg;
  }

(** Tail latency versus fleet age under each leveling policy.  The
    [p99 young->old] column is the cliff: first-epoch versus last-epoch
    p99 (requests split by arrival time).  [goodput] is SLO-meeting
    throughput; [wear CoV] is the mean within-device coefficient of
    variation (the [none + wa] row shows the pools flag flattening
    it). *)
let table ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create
      ~title:
        "Serving under wear-out — request tail latency vs fleet age (device backend, \
         MMPP arrivals, failure storms, low endurance)"
      ~headers:
        [
          "policy"; "thr rps"; "goodput"; "p50 ms"; "p99 ms"; "p999 ms";
          "p99 young->old"; "gc p99 ms"; "gc max ms"; "wear CoV"; "evict"; "dead";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        ]
      ()
  in
  (* full quadruples the fleet at the same tenants-per-device ratio and
     storm schedule, so the aging rate matches and the tails sharpen *)
  let tenants, devices = if Runner.is_full params then (16, 8) else (4, 2) in
  List.iter
    (fun (name, policy, wear_aware, gc_slice) ->
      let p = fleet_params ~tenants ~devices ~policy ~wear_aware ~gc_slice in
      (* [params.verify] and [params.tracer] reach no fleet row.  The
         verifier re-checks the whole heap, OS and device after every GC
         slice: on a 2-vCPU guest it took the quick [none] row from 1.38
         to 11.65 s and [none + inc] from 1.35 to 475.5 s (ROADMAP.md, "A
         verifier the fleet can afford").  Traced through
         [Fleet_sim.run]'s collector, the quick figure drops 978,992
         events from the 2^18-event ring, evicting every traced
         {!Runner} trial. *)
      let r = Fleet_sim.run ~jobs:params.Runner.jobs ?sink:params.Runner.sink p in
      let epoch_p99 (h : Stats.hist) = Stats.quantile h 0.99 /. 1e6 in
      let young = epoch_p99 r.Report.epoch.(0) in
      let old_ = epoch_p99 r.Report.epoch.(Array.length r.Report.epoch - 1) in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" r.Report.throughput_rps;
          Printf.sprintf "%.0f" r.Report.goodput_rps;
          Printf.sprintf "%.3f" r.Report.p50_ms;
          Printf.sprintf "%.3f" r.Report.p99_ms;
          Printf.sprintf "%.3f" r.Report.p999_ms;
          Printf.sprintf "%.2f->%.2f" young old_;
          Printf.sprintf "%.3f" r.Report.gc_pause_p99_ms;
          Printf.sprintf "%.3f" r.Report.gc_pause_max_ms;
          Printf.sprintf "%.4f" r.Report.wear_cov_mean;
          string_of_int r.Report.evictions;
          string_of_int r.Report.dead_tenants;
        ])
    rows;
  t
