(** Per-run metrics gathered by the VM — the raw material for every
    figure and table in the evaluation. *)

type t = {
  mutable objects_allocated : int;
  mutable bytes_allocated : int;
  mutable full_gcs : int;
  mutable nursery_gcs : int;
  mutable bytes_copied : int;
  mutable objects_evacuated : int;
  mutable hole_skips : int;  (** bump-pointer hole transitions *)
  mutable lines_scanned : int;  (** hole-search line examinations *)
  mutable blocks_assembled : int;
  mutable overflow_allocs : int;
  mutable overflow_searches : int;  (** FA re-searches of the overflow block *)
  mutable perfect_block_fallbacks : int;
  mutable los_objects : int;
  mutable los_pages : int;
  mutable arraylet_arrays : int;  (** large arrays split into arraylets *)
  mutable arraylet_pieces : int;
  mutable dynamic_failures : int;
  mutable peak_live_bytes : int;
  mutable out_of_memory : bool;
  mutable oom_request : int;  (** size of the allocation that hit OOM (0 = none) *)
  (* device backend: the cooperative pipeline's counters, synced from the
     PCM module / OS layers after a run (all zero on the static backend) *)
  mutable device_reads : int;
  mutable device_writes : int;
  mutable device_line_failures : int;  (** wear-driven write failures *)
  mutable fbuf_peak_occupancy : int;  (** failure-buffer high-water mark *)
  mutable fbuf_stall_events : int;  (** watermark crossings that stalled writes *)
  mutable os_upcalls : int;  (** interrupt resolutions via the runtime handler *)
  mutable os_page_copies : int;  (** failure-unaware page-copy resolutions *)
  mutable os_data_restores : int;  (** clustering re-backed the failing address *)
  mutable reverse_translations : int;
  mutable swap_ins : int;
  (* wear-leveling stage (Translate pipeline): overhead counters, synced
     from the device.  Serialized only when a leveling stage is active
     ([wl_active]) so identity-pipeline records stay byte-identical to
     the pre-pipeline schema. *)
  mutable wl_active : bool;  (** a leveling stage is installed on the device *)
  mutable wl_gap_moves : int;  (** start-gap movements *)
  mutable wl_remaps : int;  (** pair swaps (random remap / decoder swap) *)
  mutable wl_remap_copies : int;  (** overhead line copies charged to the device *)
  mutable wl_meta_writes : int;  (** leveling map / decoder reprogram writes *)
  mutable wear_cov : float;
      (** coefficient of variation of per-line wear across the module
          (synced on the device backend whether or not leveling is on;
          serialized only when it is) *)
  (* incremental collection (Config.gc_slice > 0): slice counter,
     serialized only when the mode was ever on ([inc_active], set by
     Vm.create and Vm.set_gc_slice) so stop-the-world records stay
     byte-identical to the existing schema *)
  mutable inc_active : bool;  (** incremental collection was enabled at some point *)
  mutable gc_increments : int;  (** collection slices executed (snapshot/mark/sweep/defrag) *)
  (* hybrid DRAM/PCM tiering (Config.hybrid, DESIGN.md §17): absorption
     counters, synced from the tier and the device's content store.
     Serialized only when a tiering mechanism was ever on
     ([hybrid_active]) so untiered records stay byte-identical. *)
  mutable hybrid_active : bool;  (** a tiering mechanism was enabled at some point *)
  mutable hyb_promotes : int;  (** PCM pages promoted into DRAM frames *)
  mutable hyb_demotes : int;  (** promoted pages demoted back to their PCM home *)
  mutable hyb_dram_writes : int;  (** charged line writes absorbed by promoted frames *)
  mutable hyb_resident : int;  (** pages resident in DRAM at sync time *)
  mutable hyb_dedup_hits : int;  (** writes absorbed by content dedup *)
  mutable hyb_compressed : int;  (** writes absorbed as single-byte patterns *)
  mutable hyb_meta_writes : int;  (** content-store metadata writes *)
  (* paranoid heap verifier (Verify): pass/check counters.  Deliberately
     NOT serialized by [to_fields] — JSONL records must be bit-identical
     with the verifier on and off, and these are the only counters the
     verifier is allowed to touch. *)
  mutable verify_passes : int;  (** clean verifier runs *)
  mutable verify_checks : int;  (** individual invariant checks performed *)
  (* always-on phase histograms (Obs.Stats): populated by the collector
     and the device write path regardless of tracing, so they are part of
     the deterministic outcome rather than an observability side channel.
     The two pause histograms are the only record of individual pauses. *)
  pause_hist : Holes_obs.Stats.hist;  (** full-heap pause, ns *)
  nursery_pause_hist : Holes_obs.Stats.hist;  (** nursery pause, ns *)
  hole_search_hist : Holes_obs.Stats.hist;  (** lines examined per hole search *)
  fbuf_occupancy_hist : Holes_obs.Stats.hist;
      (** failure-buffer occupancy sampled at each charged device write *)
}

let create () : t =
  {
    objects_allocated = 0;
    bytes_allocated = 0;
    full_gcs = 0;
    nursery_gcs = 0;
    bytes_copied = 0;
    objects_evacuated = 0;
    hole_skips = 0;
    lines_scanned = 0;
    blocks_assembled = 0;
    overflow_allocs = 0;
    overflow_searches = 0;
    perfect_block_fallbacks = 0;
    los_objects = 0;
    los_pages = 0;
    arraylet_arrays = 0;
    arraylet_pieces = 0;
    dynamic_failures = 0;
    peak_live_bytes = 0;
    out_of_memory = false;
    oom_request = 0;
    device_reads = 0;
    device_writes = 0;
    device_line_failures = 0;
    fbuf_peak_occupancy = 0;
    fbuf_stall_events = 0;
    os_upcalls = 0;
    os_page_copies = 0;
    os_data_restores = 0;
    reverse_translations = 0;
    swap_ins = 0;
    wl_active = false;
    wl_gap_moves = 0;
    wl_remaps = 0;
    wl_remap_copies = 0;
    wl_meta_writes = 0;
    wear_cov = 0.0;
    inc_active = false;
    gc_increments = 0;
    hybrid_active = false;
    hyb_promotes = 0;
    hyb_demotes = 0;
    hyb_dram_writes = 0;
    hyb_resident = 0;
    hyb_dedup_hits = 0;
    hyb_compressed = 0;
    hyb_meta_writes = 0;
    verify_passes = 0;
    verify_checks = 0;
    pause_hist = Holes_obs.Stats.hist ();
    nursery_pause_hist = Holes_obs.Stats.hist ();
    hole_search_hist = Holes_obs.Stats.hist ();
    fbuf_occupancy_hist = Holes_obs.Stats.hist ();
  }

let gcs (t : t) : int = t.full_gcs + t.nursery_gcs

(** Record one full-heap pause (a whole stop-the-world collection, or one
    slice of a budgeted one) in its histogram — the single recording
    path every collector uses. *)
let record_pause (t : t) (ns : float) : unit = Holes_obs.Stats.observe t.pause_hist ns

(** Record one nursery-collection pause, likewise. *)
let record_nursery_pause (t : t) (ns : float) : unit =
  Holes_obs.Stats.observe t.nursery_pause_hist ns

let mean_full_pause_ms (t : t) : float option =
  if Holes_obs.Stats.count t.pause_hist = 0 then None
  else Some (Holes_obs.Stats.mean t.pause_hist /. 1.0e6)

let max_full_pause_ms (t : t) : float option =
  if Holes_obs.Stats.count t.pause_hist = 0 then None
  else Some (Holes_obs.Stats.max_value t.pause_hist /. 1.0e6)

(** The full snapshot as flat key/value fields — every counter plus the
    histogram summaries — for the engine's JSONL sink (one record per
    trial must carry the whole pipeline, not a hand-picked subset). *)
let to_fields (t : t) : (string * float) list =
  let f = float_of_int in
  [
    ("objects_allocated", f t.objects_allocated);
    ("bytes_allocated", f t.bytes_allocated);
    ("full_gcs", f t.full_gcs);
    ("nursery_gcs", f t.nursery_gcs);
    ("bytes_copied", f t.bytes_copied);
    ("objects_evacuated", f t.objects_evacuated);
    ("hole_skips", f t.hole_skips);
    ("lines_scanned", f t.lines_scanned);
    ("blocks_assembled", f t.blocks_assembled);
    ("overflow_allocs", f t.overflow_allocs);
    ("overflow_searches", f t.overflow_searches);
    ("perfect_block_fallbacks", f t.perfect_block_fallbacks);
    ("los_objects", f t.los_objects);
    ("los_pages", f t.los_pages);
    ("arraylet_arrays", f t.arraylet_arrays);
    ("arraylet_pieces", f t.arraylet_pieces);
    ("dynamic_failures", f t.dynamic_failures);
    ("peak_live_bytes", f t.peak_live_bytes);
    ("out_of_memory", if t.out_of_memory then 1.0 else 0.0);
    ("oom_request", f t.oom_request);
    ("device_reads", f t.device_reads);
    ("device_writes", f t.device_writes);
    ("device_line_failures", f t.device_line_failures);
    ("fbuf_peak_occupancy", f t.fbuf_peak_occupancy);
    ("fbuf_stall_events", f t.fbuf_stall_events);
    ("os_upcalls", f t.os_upcalls);
    ("os_page_copies", f t.os_page_copies);
    ("os_data_restores", f t.os_data_restores);
    ("reverse_translations", f t.reverse_translations);
    ("swap_ins", f t.swap_ins);
  ]
  @ (if not t.wl_active then []
     else
       [
         ("wl_gap_moves", f t.wl_gap_moves);
         ("wl_remaps", f t.wl_remaps);
         ("wl_remap_copies", f t.wl_remap_copies);
         ("wl_meta_writes", f t.wl_meta_writes);
         ("wear_cov", t.wear_cov);
       ])
  @ (if not t.inc_active then [] else [ ("gc_increments", f t.gc_increments) ])
  @ (if not t.hybrid_active then []
     else
       [
         ("hyb_promotes", f t.hyb_promotes);
         ("hyb_demotes", f t.hyb_demotes);
         ("hyb_dram_writes", f t.hyb_dram_writes);
         ("hyb_resident", f t.hyb_resident);
         ("hyb_dedup_hits", f t.hyb_dedup_hits);
         ("hyb_compressed", f t.hyb_compressed);
         ("hyb_meta_writes", f t.hyb_meta_writes);
       ])
  @ Holes_obs.Stats.to_fields ~prefix:"pause_ns" t.pause_hist
  @ Holes_obs.Stats.to_fields ~prefix:"nursery_pause_ns" t.nursery_pause_hist
  @ Holes_obs.Stats.to_fields ~prefix:"hole_search_lines" t.hole_search_hist
  @ Holes_obs.Stats.to_fields ~prefix:"fbuf_occupancy" t.fbuf_occupancy_hist
