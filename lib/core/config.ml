(** Collector and experiment configuration.

    Mirrors the paper's configuration axes: collector algorithm (MS, IX
    and sticky variants — Fig. 3), Immix logical line size (64/128/256 B —
    Figs. 6/7), PCM failure rate and distribution (uniform, 2^N-clustered
    limit study, or hardware 1-/2-page clustering — Figs. 4, 8, 9), and
    heap compensation (Fig. 5). *)

type collector = Mark_sweep | Immix | Sticky_ms | Sticky_immix

type failure_dist =
  | Uniform  (** wear-leveled PCM: failures uniformly over 64 B lines *)
  | Granule of int
      (** limit study: failures arrive in aligned clusters of this many
          64 B lines (Sec. 6.4, Fig. 8) *)
  | Hw_cluster of int
      (** proposed hardware: uniform failures moved to region ends, with
          the region size in pages (1 = 1CL, 2 = 2CL) *)

(** Adversarial failure-model selection (DESIGN.md §10).  [From_dist]
    keeps the paper's generators selected by [failure_dist]; [Model]
    switches to one of the {!Holes_pcm.Failure_model} adversaries
    (spatial correlation, endurance variation, failure storms, worst-case
    placement). *)
type failure_model = From_dist | Model of Holes_pcm.Failure_model.spec

(** Parameters of the simulated PCM module behind the device backend. *)
type device_params = {
  wear : Holes_pcm.Wear.params;  (** per-line endurance model *)
  clustering : int option;
      (** hardware failure-clustering region size in pages; [None] takes
          it from [failure_dist] ([Hw_cluster] enables it, anything else
          runs unclustered) *)
  buffer_capacity : int;  (** failure-buffer slots (Sec. 3.1.1) *)
  dram_pages : int;  (** DRAM frames in front of the PCM namespace *)
  wear_aware_pools : bool;
      (** OS page-allocator leveling: the free perfect pool hands out the
          least-worn page instead of the head of the free list, so fresh
          grants spread traffic across the module (the PR-6 follow-on
          above the device's own wear leveler) *)
}

type backend =
  | Static
      (** fault-injection: a generated failure map handed straight to the
          page stock (fast, reproducible figure runs) *)
  | Device of device_params
      (** the full cooperative pipeline: pages acquired from the OS pools
          via [mmap_imperfect], heap line writes charged through
          [Device.write] with wear accrual, and dynamic failures
          delivered by the genuine device → failure buffer → interrupt →
          VMM up-call chain *)

let default_device : device_params =
  {
    wear = Holes_pcm.Wear.fast_params;
    clustering = None;
    buffer_capacity = 32;
    dram_pages = 16;
    wear_aware_pools = false;
  }

type t = {
  collector : collector;
  line_size : int;  (** Immix logical line size in bytes *)
  failure_rate : float;  (** fraction of 64 B PCM lines failed *)
  failure_dist : failure_dist;
  compensate : bool;  (** grow the heap to h/(1-f) to hold usable memory constant *)
  heap_factor : float;  (** heap size as a multiple of the workload's minimum *)
  defrag : bool;  (** evacuate sparse blocks during full collections *)
  defrag_occupancy : float;  (** evacuation candidate threshold (live fraction) *)
  nursery_copy : bool;  (** sticky: opportunistically copy nursery survivors *)
  arraylets : bool;
      (** allocate large arrays as discontiguous arraylets (Z-rays,
          Sartor et al. — paper Sec. 3.3.3) instead of page-grained LOS
          objects: no perfect pages needed, at an access-indirection
          cost *)
  backend : backend;  (** how heap pages are granted and failures arrive *)
  wear_level : Holes_pcm.Wear_level.policy option;
      (** the device's wear leveler, above its clustering maps ([None]
          = no leveler; see {!Holes_pcm.Wear_level}).  Parsed/printed by
          [Holes_pcm.Wear_level.of_cli]/[to_cli] *)
  failure_model : failure_model;
      (** which adversary generates (and, for dynamic models, keeps
          injecting) line failures *)
  verify : bool;
      (** run the paranoid heap verifier ([Verify]) after every GC phase;
          expensive, and guaranteed not to change results — only the
          (non-serialized) verifier pass counters *)
  gc_slice : int;
      (** incremental collection work budget per mutator slice, in
          mark-queue entries processed (0 = stop-the-world, the
          default).  When positive, full collections run as
          snapshot-at-the-beginning increments: each allocation advances
          the cycle by at most this much marking work (sweeping and
          evacuation are budgeted proportionally), so the recorded pause
          is per-slice rather than per-cycle.  Total GC work is
          unchanged — only its interleaving with the mutator. *)
  hybrid : Holes_pcm.Hybrid.policy;
      (** DRAM/PCM tiering policy (DESIGN.md §17): MigrantStore-style
          hot-page migration into DRAM frames and/or a CARAM-style
          content-aware line store in front of the cells.
          {!Holes_pcm.Hybrid.none} (the default) is byte-identical to
          the untiered system.  Parsed/printed by
          [Holes_pcm.Hybrid.of_cli]/[to_cli] *)
  seed : int;
}

let default : t =
  {
    collector = Sticky_immix;
    line_size = Holes_heap.Units.default_line_size;
    failure_rate = 0.0;
    failure_dist = Uniform;
    compensate = true;
    heap_factor = 2.0;
    defrag = true;
    defrag_occupancy = 0.30;
    nursery_copy = true;
    arraylets = false;
    backend = Static;
    wear_level = None;
    failure_model = From_dist;
    verify = false;
    gc_slice = 0;
    hybrid = Holes_pcm.Hybrid.none;
    seed = 42;
  }

let collector_name (c : collector) : string =
  match c with
  | Mark_sweep -> "MS"
  | Immix -> "IX"
  | Sticky_ms -> "S-MS"
  | Sticky_immix -> "S-IX"

let dist_name (d : failure_dist) : string =
  match d with
  | Uniform -> "uniform"
  | Granule n -> Printf.sprintf "granule-%dB" (n * Holes_pcm.Geometry.line_bytes)
  | Hw_cluster pages -> Printf.sprintf "%dCL" pages

let name (t : t) : string =
  let base = collector_name t.collector in
  let base = if t.arraylets then base ^ "-zray" else base in
  let base =
    match t.backend with
    | Static -> base
    | Device d ->
        (* the -wa tag only appears when the flag is on, so every
           pre-existing configuration keeps its name (cache keys, seeds
           and result paths derive from it) *)
        Printf.sprintf "%s-dev-e%.0f%s" base d.wear.Holes_pcm.Wear.mean_endurance
          (if d.wear_aware_pools then "-wa" else "")
  in
  (* an unleveled device keeps the name it had before leveling existed
     (cache keys, seeds and result paths derive from it); a leveler tags
     itself on *)
  let base =
    match t.wear_level with
    | None -> base
    | Some _ -> base ^ "-wl" ^ Holes_pcm.Wear_level.short_name t.wear_level
  in
  (* like -wa and -wl, the -hyb tag only appears when a tiering policy
     is on: untiered configurations keep their names *)
  let base =
    if Holes_pcm.Hybrid.is_none t.hybrid then base
    else base ^ "-hyb" ^ Holes_pcm.Hybrid.short_name t.hybrid
  in
  (* like -wa and -wl, the -inc tag only appears when incremental
     collection is on: stop-the-world configurations keep their names *)
  let base = if t.gc_slice > 0 then Printf.sprintf "%s-inc%d" base t.gc_slice else base in
  let line = Printf.sprintf "L%d" t.line_size in
  match t.failure_model with
  | Model m ->
      (* Adversarial models name themselves (the spec rendering includes
         the parameters); the rate still matters for the static part. *)
      Printf.sprintf "%s-PCM-%s-%s-%.0f%%%s" base line
        (Holes_pcm.Failure_model.name m)
        (t.failure_rate *. 100.0)
        (if t.compensate then "" else "-nocomp")
  | From_dist ->
      if t.failure_rate = 0.0 then Printf.sprintf "%s-%s" base line
      else
        Printf.sprintf "%s-PCM-%s-%s-%.0f%%%s" base line (dist_name t.failure_dist)
          (t.failure_rate *. 100.0)
          (if t.compensate then "" else "-nocomp")

let is_generational (c : collector) : bool =
  match c with Sticky_ms | Sticky_immix -> true | Mark_sweep | Immix -> false

let is_immix (c : collector) : bool =
  match c with Immix | Sticky_immix -> true | Mark_sweep | Sticky_ms -> false

let validate (t : t) : (unit, string) result =
  if not (Holes_heap.Units.valid_line_size t.line_size) then
    Error (Printf.sprintf "invalid Immix line size %d" t.line_size)
  else if t.failure_rate < 0.0 || t.failure_rate > 0.95 then
    Error "failure rate must be in [0, 0.95]"
  else if t.heap_factor < 1.0 then Error "heap factor must be >= 1"
  else if t.gc_slice < 0 then Error "gc_slice must be non-negative (0 = stop-the-world)"
  else
    let model_ok =
      match t.failure_model with
      | From_dist -> Ok ()
      | Model m -> (
          match Holes_pcm.Failure_model.validate m with
          | Error e -> Error e
          | Ok () ->
              if Holes_pcm.Failure_model.is_dynamic m && not (is_immix t.collector) then
                Error "dynamic failure models require a failure-aware Immix collector"
              else if Holes_pcm.Failure_model.is_dynamic m && t.backend <> Static then
                Error
                  "dynamic failure models drive the static backend's injector; the device \
                   backend generates its own dynamic failures through wear"
              else Ok ())
    in
    match model_ok with
    | Error _ as e -> e
    | Ok () -> (
        match t.backend with
        | Static ->
            if t.wear_level <> None then
              Error
                "wear_level stages live in the device pipeline; the static backend bakes any \
                 leveling into its failure map"
            else if not (Holes_pcm.Hybrid.is_none t.hybrid) then
              Error
                "hybrid tiering needs the device backend: the static backend has no DRAM \
                 frames or content store to absorb writes"
            else Ok ()
        | Device d ->
            if not (is_immix t.collector) then
              Error "the device backend requires a failure-aware Immix collector"
            else if d.buffer_capacity <= 0 then Error "device buffer capacity must be positive"
            else if d.dram_pages < 0 then Error "device dram_pages must be non-negative"
            else if t.hybrid.Holes_pcm.Hybrid.migrate_epoch <> None && d.dram_pages <= 0 then
              Error "hybrid migration needs at least one DRAM frame (dram_pages > 0)"
            else Ok ())
