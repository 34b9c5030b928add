(** Fleet-run reporting: per-device partial results and their
    order-stable merge into the fleet-wide report.

    A fleet run shards by device ({!Sim}); each shard accumulates a
    [partial] — request counts, the request-latency histogram (whole run
    and per age epoch), GC and tenant-lifecycle counters, and its node's
    device, tier and content-store counters in a {!Holes.Metrics.t} —
    and the driver folds the partials in device-index order, so the
    merged report is bit-identical at any [-j].  Latencies are recorded in
    virtual nanoseconds ({!Holes_obs.Stats.hist} log₂ buckets) and
    reported in milliseconds. *)

module Stats = Holes_obs.Stats
module Metrics = Holes.Metrics

type partial = {
  device_index : int;
  mutable arrived : int;  (** requests generated for live tenants *)
  mutable completed : int;  (** requests served to completion *)
  mutable good : int;  (** completed within the SLO *)
  mutable dropped : int;  (** arrivals to permanently dead tenants *)
  mutable failed : int;  (** requests aborted by OOM/eviction *)
  latency : Stats.hist;  (** completion latency, ns *)
  epoch : Stats.hist array;  (** latency split by completion-time epoch *)
  mutable gc_ns : float;  (** collector time across the device's tenants *)
  gc_pause : Stats.hist;
      (** individual GC pauses (full/increment + nursery, ns) across the
          device's tenants, evicted and surviving *)
  mutable evictions : int;
  mutable dead_tenants : int;  (** slots with no replacement left *)
  mutable end_ns : int;  (** virtual time when the device's queue drained *)
  node : Metrics.t;
      (** the node's counters at run end ({!Holes.Memory_backend.sync_node}).
          Its [inc_active] (any tenant ran with a GC increment budget)
          and [hybrid_active] (the node runs a tiering mechanism) gate
          the pause and hyb_* fields, so stop-the-world and untiered
          records keep their historical shape. *)
}

let partial ~(device_index : int) ~(epochs : int) : partial =
  {
    device_index;
    arrived = 0;
    completed = 0;
    good = 0;
    dropped = 0;
    failed = 0;
    latency = Stats.hist ();
    epoch = Array.init (max 1 epochs) (fun _ -> Stats.hist ());
    gc_ns = 0.0;
    gc_pause = Stats.hist ();
    evictions = 0;
    dead_tenants = 0;
    end_ns = 0;
    node = Metrics.create ();
  }

let ns_to_ms (ns : float) : float = ns /. 1e6

let quantiles_ms (h : Stats.hist) : float * float * float =
  (ns_to_ms (Stats.quantile h 0.50), ns_to_ms (Stats.quantile h 0.99), ns_to_ms (Stats.quantile h 0.999))

(* The gated GC-pause fields of a shard record and of the merged report. *)
let pause_fields (h : Stats.hist) : (string * float) list =
  [
    ("gc_pause_p99_ms", ns_to_ms (Stats.quantile ~interp:true h 0.99));
    ("gc_pause_max_ms", ns_to_ms (Stats.max_value h));
    ("gc_pause_count", float_of_int (Stats.count h));
  ]

(** Flat metrics for the JSONL sink, one record per device shard. *)
let partial_fields (p : partial) : (string * float) list =
  let n = p.node in
  let p50, p99, p999 = quantiles_ms p.latency in
  let per_epoch =
    List.concat
      (List.mapi
         (fun i h ->
           [
             (Printf.sprintf "epoch%d_p99_ms" i, ns_to_ms (Stats.quantile h 0.99));
             (Printf.sprintf "epoch%d_count" i, float_of_int (Stats.count h));
           ])
         (Array.to_list p.epoch))
  in
  [
    ("arrived", float_of_int p.arrived);
    ("completed", float_of_int p.completed);
    ("good", float_of_int p.good);
    ("dropped", float_of_int p.dropped);
    ("failed", float_of_int p.failed);
    ("lat_mean_ms", ns_to_ms (Stats.mean p.latency));
    ("lat_p50_ms", p50);
    ("lat_p99_ms", p99);
    ("lat_p999_ms", p999);
    ("lat_max_ms", ns_to_ms (Stats.max_value p.latency));
    ("gc_ms", ns_to_ms p.gc_ns);
    ("wear_cov", n.Metrics.wear_cov);
    ("device_writes", float_of_int n.Metrics.device_writes);
    ("device_failures", float_of_int n.Metrics.device_line_failures);
    ("evictions", float_of_int p.evictions);
    ("dead_tenants", float_of_int p.dead_tenants);
    ("end_ms", ns_to_ms (float_of_int p.end_ns));
  ]
  @ (if not n.Metrics.inc_active then [] else pause_fields p.gc_pause)
  @ (if not n.Metrics.hybrid_active then []
     else
       [
         ("hyb_promotes", float_of_int n.Metrics.hyb_promotes);
         ("hyb_demotes", float_of_int n.Metrics.hyb_demotes);
         ("hyb_dram_writes", float_of_int n.Metrics.hyb_dram_writes);
         ("hyb_dedup_hits", float_of_int n.Metrics.hyb_dedup_hits);
         ("hyb_compressed", float_of_int n.Metrics.hyb_compressed);
       ])
  @ per_epoch

type t = {
  devices : int;
  tenants : int;
  duration_ms : float;
  arrived : int;
  completed : int;
  good : int;
  dropped : int;
  failed : int;
  latency : Stats.hist;
  epoch : Stats.hist array;
  throughput_rps : float;  (** completions per second of arrival window *)
  goodput_rps : float;  (** SLO-meeting completions per second *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  wear_cov_mean : float;  (** mean within-device wear CoV *)
  wear_cov_max : float;
  evictions : int;
  dead_tenants : int;
  device_writes : int;
  device_failures : int;
  gc_ms : float;
  gc_pause : Stats.hist;  (** individual GC pauses across the fleet, ns *)
  gc_pause_p99_ms : float;  (** interpolated p99 of [gc_pause] *)
  gc_pause_max_ms : float;  (** worst single mutator stall anywhere *)
  inc_active : bool;  (** any tenant ran incrementally *)
  hybrid_active : bool;  (** any device ran a tiering mechanism *)
  hyb_promotes : int;
  hyb_demotes : int;
  hyb_dram_writes : int;
  hyb_dedup_hits : int;
  hyb_compressed : int;
  hyb_absorption : float;
      (** fraction of the fleet's charged writes that never wore a PCM
          cell ({!Holes_pcm.Hybrid.absorption}) *)
}

(** Fold per-device partials.  The integer sums, maxima and histogram
    merges are order-insensitive, but the float sums behind [gc_ms] and
    [wear_cov_mean] are not: the merge is deterministic because
    {!Sim.run} passes the partials in device-index order whatever the
    scheduling. *)
let merge ~(duration_ms : float) ~(tenants : int) (parts : partial list) : t =
  let devices = List.length parts in
  let sum (f : partial -> int) = List.fold_left (fun acc p -> acc + f p) 0 parts in
  let sumf (f : partial -> float) = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
  let sum_node (f : Metrics.t -> int) = sum (fun p -> f p.node) in
  let latency = Stats.merged (List.map (fun (p : partial) -> p.latency) parts) in
  let epochs =
    List.fold_left (fun acc (p : partial) -> max acc (Array.length p.epoch)) 1 parts
  in
  let epoch =
    Array.init epochs (fun i ->
        Stats.merged
          (List.filter_map
             (fun (p : partial) -> if i < Array.length p.epoch then Some p.epoch.(i) else None)
             parts))
  in
  let completed = sum (fun p -> p.completed) in
  let good = sum (fun p -> p.good) in
  let dur_s = duration_ms /. 1e3 in
  let p50_ms, p99_ms, p999_ms = quantiles_ms latency in
  let gc_pause = Stats.merged (List.map (fun (p : partial) -> p.gc_pause) parts) in
  let hyb_dram_writes = sum_node (fun m -> m.Metrics.hyb_dram_writes) in
  let hyb_dedup_hits = sum_node (fun m -> m.Metrics.hyb_dedup_hits) in
  let hyb_compressed = sum_node (fun m -> m.Metrics.hyb_compressed) in
  let device_writes = sum_node (fun m -> m.Metrics.device_writes) in
  {
    devices;
    tenants;
    duration_ms;
    arrived = sum (fun p -> p.arrived);
    completed;
    good;
    dropped = sum (fun p -> p.dropped);
    failed = sum (fun p -> p.failed);
    latency;
    epoch;
    throughput_rps = (if dur_s > 0.0 then float_of_int completed /. dur_s else 0.0);
    goodput_rps = (if dur_s > 0.0 then float_of_int good /. dur_s else 0.0);
    p50_ms;
    p99_ms;
    p999_ms;
    wear_cov_mean =
      (if devices = 0 then 0.0
       else sumf (fun p -> p.node.Metrics.wear_cov) /. float_of_int devices);
    wear_cov_max =
      List.fold_left (fun acc (p : partial) -> Float.max acc p.node.Metrics.wear_cov) 0.0 parts;
    evictions = sum (fun p -> p.evictions);
    dead_tenants = sum (fun p -> p.dead_tenants);
    device_writes;
    device_failures = sum_node (fun m -> m.Metrics.device_line_failures);
    gc_ms = ns_to_ms (sumf (fun p -> p.gc_ns));
    gc_pause;
    gc_pause_p99_ms = ns_to_ms (Stats.quantile ~interp:true gc_pause 0.99);
    gc_pause_max_ms = ns_to_ms (Stats.max_value gc_pause);
    inc_active = List.exists (fun (p : partial) -> p.node.Metrics.inc_active) parts;
    hybrid_active = List.exists (fun (p : partial) -> p.node.Metrics.hybrid_active) parts;
    hyb_promotes = sum_node (fun m -> m.Metrics.hyb_promotes);
    hyb_demotes = sum_node (fun m -> m.Metrics.hyb_demotes);
    hyb_dram_writes;
    hyb_dedup_hits;
    hyb_compressed;
    hyb_absorption =
      Holes_pcm.Hybrid.absorption ~device_writes ~dram_writes:hyb_dram_writes
        ~dedup_hits:hyb_dedup_hits ~compressed:hyb_compressed;
  }

(** Flat metrics of the merged report (figure rows, tests). *)
let fields (t : t) : (string * float) list =
  [
    ("devices", float_of_int t.devices);
    ("tenants", float_of_int t.tenants);
    ("arrived", float_of_int t.arrived);
    ("completed", float_of_int t.completed);
    ("good", float_of_int t.good);
    ("dropped", float_of_int t.dropped);
    ("failed", float_of_int t.failed);
    ("throughput_rps", t.throughput_rps);
    ("goodput_rps", t.goodput_rps);
    ("lat_p50_ms", t.p50_ms);
    ("lat_p99_ms", t.p99_ms);
    ("lat_p999_ms", t.p999_ms);
    ("wear_cov_mean", t.wear_cov_mean);
    ("wear_cov_max", t.wear_cov_max);
    ("evictions", float_of_int t.evictions);
    ("dead_tenants", float_of_int t.dead_tenants);
    ("device_writes", float_of_int t.device_writes);
    ("device_failures", float_of_int t.device_failures);
    ("gc_ms", t.gc_ms);
  ]
  @ (if not t.inc_active then [] else pause_fields t.gc_pause)
  @ (if not t.hybrid_active then []
     else
       [
         ("hyb_promotes", float_of_int t.hyb_promotes);
         ("hyb_demotes", float_of_int t.hyb_demotes);
         ("hyb_dram_writes", float_of_int t.hyb_dram_writes);
         ("hyb_dedup_hits", float_of_int t.hyb_dedup_hits);
         ("hyb_compressed", float_of_int t.hyb_compressed);
         ("hyb_absorption", t.hyb_absorption);
       ])
  @ List.concat
      (List.mapi
         (fun i h -> [ (Printf.sprintf "epoch%d_p99_ms" i, ns_to_ms (Stats.quantile h 0.99)) ])
         (Array.to_list t.epoch))

let pp (ppf : Format.formatter) (t : t) : unit =
  let pauses ppf =
    if Stats.count t.gc_pause > 0 then
      Format.fprintf ppf "@,gc pauses: %d recorded, p99 %.3f ms, max %.3f ms"
        (Stats.count t.gc_pause) t.gc_pause_p99_ms t.gc_pause_max_ms;
    if t.hybrid_active then
      Format.fprintf ppf
        "@,hybrid: %d promotes, %d demotes; absorbed %d DRAM + %d dedup + %d compressed \
         (%.1f%% of writes)"
        t.hyb_promotes t.hyb_demotes t.hyb_dram_writes t.hyb_dedup_hits t.hyb_compressed
        (100.0 *. t.hyb_absorption)
  in
  Format.fprintf ppf
    "@[<v>fleet: %d tenants over %d devices, %.0f ms window@,\
     requests: %d arrived, %d completed, %d good (SLO), %d failed, %d dropped@,\
     throughput: %.1f req/s (goodput %.1f)@,\
     latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms@,\
     wear CoV: mean %.4f, max %.4f@,\
     lifecycle: %d evictions, %d dead tenants@,\
     device: %d writes, %d wear failures; gc %.2f ms%t@]" t.tenants t.devices t.duration_ms
    t.arrived t.completed t.good t.failed t.dropped t.throughput_rps t.goodput_rps t.p50_ms
    t.p99_ms t.p999_ms t.wear_cov_mean t.wear_cov_max t.evictions t.dead_tenants
    t.device_writes t.device_failures t.gc_ms pauses
