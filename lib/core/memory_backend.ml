(** The VM's memory backend seam: where heap pages come from and how
    line failures reach the runtime.

    Two implementations exist.  The *static* backend is the paper's
    fault-injection methodology (Sec. 5): a failure map generated up
    front and handed straight to the page stock — fast and exactly
    reproducible, so every figure run uses it.  The *device* backend
    wires the full cooperative pipeline of Secs. 3.1–3.3 end to end: the
    VM acquires pages from the OS pools via [Vmm.mmap_imperfect], reads
    the live failure bitmaps via [Vmm.map_failures], and every heap line
    store is charged through [Device.write], accruing real wear.  When a
    write wears a line out, the event travels the genuine chain —
    [Device.on_line_failed] → {!Holes_pcm.Failure_buffer} →
    {!Holes_osal.Interrupts} → [Vmm] up-call — and lands in the
    [line_retired] hook the VM installs, which retires the line through
    [Immix.dynamic_failure] or LOS relocation.  No side channel remains:
    the device backend rejects [Vm.dynamic_failure_at]. *)

open Holes_stdx
module Pcm = Holes_pcm
module Osal = Holes_osal
module Trace = Holes_obs.Trace
module Stats = Holes_obs.Stats

(** A device node: the shareable part of the pipeline — the PCM module,
    its VMM (pools + failure table) and the interrupt handler.  A
    standalone VM owns its node outright ({!create_device}); the fleet
    simulator creates one node per pooled device and {!attach}es many
    tenant VMs to it, each as its own failure-aware OS process. *)
type node = {
  n_device : Pcm.Device.t;
  n_vmm : Osal.Vmm.t;
  n_interrupts : Osal.Interrupts.t;
  n_dram_pages : int;  (** physical ids below this are DRAM frames *)
  n_seed : int;  (** the creating config's seed (per-VM derived rngs) *)
  mutable n_hybrid : Pcm.Hybrid.policy;  (** live tiering policy (DESIGN.md §17) *)
  mutable n_tier : Osal.Tier.t option;  (** hot-page migration engine, when on *)
}

type device_state = {
  device : Pcm.Device.t;
  vmm : Osal.Vmm.t;
  proc : Osal.Vmm.process;
  interrupts : Osal.Interrupts.t;
  node : node;  (** the shared node (tier and policy live here) *)
  dram_pages : int;  (** physical ids below this are DRAM frames *)
  virt_of_stock : int array;  (** stock page id -> mapped virtual page *)
  stock_of_virt : int array;  (** virtual page -> stock page id, or -1 *)
  metrics : Metrics.t;
  payload : Bytes.t;  (** reusable one-line write payload *)
  mutable content_rng : Xrng.t option;
      (** content synthesizer for the CARAM store: dedup/compression is
          meaningless against the constant scrub payload, so with caram
          on each charged line write draws a content class (zero /
          recurring pattern / unique).  [None] while caram is off — no
          extra rng draws, keeping hybrid=none bit-identical *)
  mutable content_ctr : int;  (** unique-content stamp for the synthesizer *)
  mutable charge_copy : bytes:int -> unit;
      (** installed by the VM: charge migration copy traffic to its
          cost model (tier promotions/demotions triggered by this VM's
          writes) *)
  mutable line_retired : stock_page:int -> line:int -> data:Bytes.t option -> unit;
      (** installed by the VM once the heap exists: retire 64 B line
          [line] of [stock_page]; [data] is the payload preserved by the
          failure buffer when the retired line was the one being
          written *)
}

type t = Static | Device of device_state

let lines_per_page = Pcm.Geometry.lines_per_page

(* The boot-time physical failure map for a device of [nlines] lines.
   Unlike the static backend's map this is over *physical* lines: with
   hardware clustering the device's own redirection maps move the
   failures to cluster ends, so [Hw_cluster] needs no transform here. *)
let physical_failure_map (cfg : Config.t) ~(rng : Xrng.t) ~(nlines : int) : Bitset.t =
  match cfg.Config.failure_model with
  | Config.Model m ->
      (* dynamic models are rejected by Config.validate on this backend,
         so this only sees the static adversaries *)
      Pcm.Failure_model.static_map m rng ~nlines ~rate:cfg.Config.failure_rate
  | Config.From_dist -> (
      match cfg.Config.failure_dist with
      | Config.Uniform | Config.Hw_cluster _ ->
          Pcm.Failure_map.uniform rng ~nlines ~rate:cfg.Config.failure_rate
      | Config.Granule g ->
          Pcm.Failure_map.clustered rng ~nlines ~rate:cfg.Config.failure_rate ~granule_lines:g)

(** Bring up the shareable half of the pipeline for a module of (at
    least) [device_pages] pages: create the worn device (page count
    rounded up to the clustering region), pre-install the configured
    boot-time failures, boot-scan them into the OS failure table and
    pools, and attach the interrupt handler.  No process exists yet —
    callers {!attach} one per VM. *)
let create_node ?(tracer = Trace.null) ~(cfg : Config.t) ~(params : Config.device_params)
    ~(device_pages : int) () : node =
  let clustering =
    match cfg.Config.failure_dist with
    | Config.Hw_cluster region_pages -> Some region_pages
    | Config.Uniform | Config.Granule _ -> params.Config.clustering
  in
  let region_pages = match clustering with Some rp -> rp | None -> 1 in
  let device_pages = (device_pages + region_pages - 1) / region_pages * region_pages in
  let device =
    Pcm.Device.create
      ~config:
        {
          Pcm.Device.pages = device_pages;
          wear = params.Config.wear;
          clustering;
          buffer_capacity = params.Config.buffer_capacity;
          wear_level = cfg.Config.wear_level;
          caram = cfg.Config.hybrid.Pcm.Hybrid.caram_ways;
        }
      ~tracer ~seed:cfg.Config.seed ()
  in
  let rng = Xrng.of_seed cfg.Config.seed in
  if cfg.Config.failure_rate > 0.0 then
    Pcm.Device.preinstall_failures device
      (physical_failure_map cfg ~rng ~nlines:(device_pages * lines_per_page));
  let dram_pages = params.Config.dram_pages in
  let vmm = Osal.Vmm.create ~tracer ~dram_pages ~pcm_pages:device_pages () in
  (* OS boot scan: publish the device's unusable lines in the failure
     table and page descriptors, then rebuild the free pools in one pass *)
  let table = Osal.Vmm.failure_table vmm in
  let pools = Osal.Vmm.pools vmm in
  List.iter
    (fun l ->
      let page = l / lines_per_page and line = l mod lines_per_page in
      Osal.Failure_table.mark_failed table ~page ~line;
      ignore (Osal.Page.mark_line_failed (Osal.Pools.page pools (dram_pages + page)) ~line))
    (Pcm.Device.unusable_lines device);
  Osal.Pools.renormalize pools;
  if params.Config.wear_aware_pools then
    Osal.Pools.set_wear_rank pools
      (Some (fun phys -> if phys < dram_pages then 0 else Pcm.Device.page_wear device (phys - dram_pages)));
  let interrupts = Osal.Interrupts.attach ~tracer ~vmm ~device ~dram_pages () in
  let tier =
    match cfg.Config.hybrid.Pcm.Hybrid.migrate_epoch with
    | None -> None
    | Some epoch ->
        let t = Osal.Tier.create ~tracer ~vmm ~device ~dram_pages ~epoch () in
        (* a stalled demotion write-back drains the failure buffer the
           same way the VM's own write path does *)
        Osal.Tier.set_on_stall t (fun () -> ignore (Osal.Interrupts.service interrupts));
        Some t
  in
  {
    n_device = device;
    n_vmm = vmm;
    n_interrupts = interrupts;
    n_dram_pages = dram_pages;
    n_seed = cfg.Config.seed;
    n_hybrid = cfg.Config.hybrid;
    n_tier = tier;
  }

(** Spawn a failure-aware process on [node] and map an [npages]-page
    heap with [mmap_imperfect].  Returns the per-VM backend state and
    the per-page failure bitmaps read back through [map_failures] — the
    grants the page stock is built over — or [Error `Out_of_memory] when
    the node's pools cannot back the heap (a full or dying pooled
    device; placement fails, nothing is leaked). *)
let attach ~(node : node) ~(metrics : Metrics.t) ~(npages : int) () :
    (device_state * Bitset.t array, [ `Out_of_memory ]) result =
  let proc = Osal.Vmm.spawn node.n_vmm in
  match Osal.Vmm.mmap_imperfect node.n_vmm proc ~pages:npages with
  | Error `Out_of_memory -> Error `Out_of_memory
  | Ok virts ->
      let virt_of_stock = Array.of_list virts in
      let stock_of_virt = Array.make proc.Osal.Vmm.next_virt (-1) in
      Array.iteri (fun sp v -> stock_of_virt.(v) <- sp) virt_of_stock;
      let st =
        {
          device = node.n_device;
          vmm = node.n_vmm;
          proc;
          interrupts = node.n_interrupts;
          node;
          dram_pages = node.n_dram_pages;
          virt_of_stock;
          stock_of_virt;
          metrics;
          payload = Bytes.make Pcm.Geometry.line_bytes '\xAB';
          content_rng =
            (match node.n_hybrid.Pcm.Hybrid.caram_ways with
            | None -> None
            | Some _ ->
                Some (Xrng.of_seed (node.n_seed lxor 0xCA4A77 lxor (proc.Osal.Vmm.pid * 0x9E3779))));
          content_ctr = 0;
          charge_copy = (fun ~bytes:_ -> ());
          line_retired = (fun ~stock_page:_ ~line:_ ~data:_ -> ());
        }
      in
      (* the Sec. 3.2.2 up-call: virtual page + line -> the VM's retire hook *)
      Osal.Vmm.register_failure_handler proc (fun ~virt_page ~line ~data ->
          st.line_retired ~stock_page:st.stock_of_virt.(virt_page) ~line ~data);
      let bitmaps =
        Array.map (fun virt -> Osal.Vmm.map_failures node.n_vmm proc ~virt) virt_of_stock
      in
      Ok (st, bitmaps)

(** Bring up the device → OS → process pipeline for a heap of [npages]
    pages: a private node sized to the heap plus one attached process
    mapping all of it — the standalone-VM path every figure run uses. *)
let create_device ?(tracer = Trace.null) ~(cfg : Config.t) ~(params : Config.device_params)
    ~(metrics : Metrics.t) ~(npages : int) () : device_state * Bitset.t array =
  let node = create_node ~tracer ~cfg ~params ~device_pages:npages () in
  (* the node rounded its page count up to the clustering region; a
     private device is mapped whole, exactly as before the node split *)
  match attach ~node ~metrics ~npages:(Pcm.Device.npages node.n_device) () with
  | Ok r -> r
  | Error `Out_of_memory ->
      invalid_arg "Memory_backend.create_device: device cannot back the requested heap"

(** Drain pending failure interrupts (OS side).  Returns the number of
    resolutions performed. *)
let service (st : device_state) : int =
  List.length (Osal.Interrupts.service st.interrupts)

(** Evict a VM from its (shared) node: drain pending interrupts, silence
    the retire hook, and unmap every heap page — the pages return to the
    node's pools (their wear and failure state persist on the device)
    for the next placement.  The VM object must not be used afterwards;
    its remaining device writes fall into the [Skipped] path. *)
let detach (st : device_state) : unit =
  ignore (service st);
  st.line_retired <- (fun ~stock_page:_ ~line:_ ~data:_ -> ());
  (* demote this process's promoted pages first: a munmap of a page
     mapped to a DRAM frame would free the frame and leak its reserved
     PCM home *)
  (match st.node.n_tier with
  | Some tier ->
      Osal.Tier.drop_process tier ~pid:st.proc.Osal.Vmm.pid ~charge_copy:st.charge_copy
  | None -> ());
  Array.iter
    (fun virt -> if Osal.Vmm.translate st.proc ~virt >= 0 then Osal.Vmm.munmap st.vmm st.proc ~virt)
    st.virt_of_stock

type write_outcome =
  | Stored  (** the line took the write *)
  | Line_failed  (** wear-out: the failure chain ran (up-call included) *)
  | Skipped  (** unusable / DRAM-backed / unmapped line: no device write *)

(* Synthesize the line content for a charged write.  The scrub payload
   is a constant, which would make content-aware dedup trivially
   perfect; with caram live each write instead draws a content class
   from the paper-adjacent mix CARAM evaluates against: ~30% zero
   lines (compressible), ~15% from a small pool of recurring patterns
   (dedupable), the rest unique.  Returns [st.payload], filled in
   place. *)
let content_for_write (st : device_state) : Bytes.t =
  (match st.content_rng with
  | None -> ()  (* caram off: the constant scrub payload, zero rng draws *)
  | Some rng ->
      let r = Xrng.int rng 100 in
      if r < 30 then Bytes.fill st.payload 0 (Bytes.length st.payload) '\x00'
      else if r < 45 then begin
        let k = Xrng.int rng 12 in
        for i = 0 to Bytes.length st.payload - 1 do
          Bytes.unsafe_set st.payload i (Char.unsafe_chr (((k * 37) + (i * 11)) land 0xff))
        done
      end
      else begin
        (* unique content: a counter stamp over the scrub pattern *)
        Bytes.fill st.payload 0 (Bytes.length st.payload) '\xAB';
        st.content_ctr <- st.content_ctr + 1;
        let c = st.content_ctr in
        for i = 0 to 7 do
          Bytes.unsafe_set st.payload i (Char.unsafe_chr ((c lsr (i * 8)) land 0xff))
        done
      end);
  st.payload

(** Charge one 64 B line store on [stock_page]/[line] through the device
    write path.  A wear failure fires the device callback, and the
    interrupt is serviced immediately — by the time this returns, the
    runtime's [line_retired] hook has run and the line is retired.  A
    stalled device (failure-buffer pressure) is drained and the write
    retried once.  With tiering on, writes whose translation lands on
    a promoted DRAM frame are absorbed by the tier (dirty-line
    tracking, no device write), and PCM writes that reach the device
    feed the tier's hot-page counters once the failure chain has run. *)
let device_write (st : device_state) ~(stock_page : int) ~(line : int) : write_outcome =
  Stats.observe st.metrics.Metrics.fbuf_occupancy_hist
    (float_of_int (Pcm.Device.buffer_occupancy st.device));
  let virt = st.virt_of_stock.(stock_page) in
  let phys = Osal.Vmm.translate st.proc ~virt in
  if phys < 0 then Skipped
  else if phys < st.dram_pages then begin
    (match st.node.n_tier with
    | Some tier ->
        ignore
          (Osal.Tier.note_dram_write tier ~phys ~line ~payload:(content_for_write st)
             ~charge_copy:st.charge_copy)
    | None -> ());
    Skipped
  end
  else begin
    let logical = ((phys - st.dram_pages) * lines_per_page) + line in
    if not (Pcm.Device.line_usable st.device logical) then Skipped
    else begin
      let payload = content_for_write st in
      let outcome =
        match Pcm.Device.write st.device logical payload with
        | Pcm.Device.Stored -> Stored
        | Pcm.Device.Write_failed ->
            ignore (service st);
            Line_failed
        | Pcm.Device.Stalled -> (
            ignore (service st);
            match Pcm.Device.write st.device logical payload with
            | Pcm.Device.Stored -> Stored
            | Pcm.Device.Write_failed ->
                ignore (service st);
                Line_failed
            | Pcm.Device.Stalled -> Skipped)
      in
      (match (outcome, st.node.n_tier) with
      | (Stored | Line_failed), Some tier ->
          Osal.Tier.note_pcm_write tier st.proc ~virt ~pcm_phys:phys ~charge_copy:st.charge_copy
      | Skipped, _ | _, None -> ());
      outcome
    end
  end

(** Copy the node's device, OS, tier and content-store counters into
    [m] (idempotent assignment).  A VM syncs its own metrics at run end
    and before printing summaries; a fleet shard syncs a record of its
    own for the pooled node.  The counters are node-wide: every tenant
    attached to a node reads the same values. *)
let sync_node (node : node) (m : Metrics.t) : unit =
  let s = Pcm.Device.stats node.n_device in
  m.Metrics.device_reads <- s.Pcm.Device.reads;
  m.Metrics.device_writes <- s.Pcm.Device.writes;
  m.Metrics.device_line_failures <- s.Pcm.Device.failures;
  m.Metrics.fbuf_peak_occupancy <- s.Pcm.Device.buffer.Pcm.Failure_buffer.max_occupancy;
  m.Metrics.fbuf_stall_events <- s.Pcm.Device.buffer.Pcm.Failure_buffer.stall_events;
  m.Metrics.os_upcalls <- Osal.Interrupts.upcalls node.n_interrupts;
  m.Metrics.os_page_copies <- Osal.Interrupts.page_copies node.n_interrupts;
  m.Metrics.os_data_restores <- Osal.Interrupts.restores node.n_interrupts;
  m.Metrics.reverse_translations <- Osal.Vmm.reverse_translations node.n_vmm;
  m.Metrics.swap_ins <- Osal.Vmm.swap_ins node.n_vmm;
  m.Metrics.wear_cov <- Pcm.Device.wear_cov node.n_device;
  (match s.Pcm.Device.caram with
  | None -> ()
  | Some cs ->
      m.Metrics.hybrid_active <- true;
      m.Metrics.hyb_dedup_hits <- cs.Pcm.Caram.s_dedup_hits;
      m.Metrics.hyb_compressed <- cs.Pcm.Caram.s_compressed;
      m.Metrics.hyb_meta_writes <- cs.Pcm.Caram.s_meta_writes);
  (match node.n_tier with
  | None -> ()
  | Some tier ->
      let ts = Osal.Tier.stats tier in
      m.Metrics.hybrid_active <- true;
      m.Metrics.hyb_promotes <- ts.Osal.Tier.s_promotes;
      m.Metrics.hyb_demotes <- ts.Osal.Tier.s_demotes;
      m.Metrics.hyb_dram_writes <- ts.Osal.Tier.s_dram_writes;
      m.Metrics.hyb_resident <- ts.Osal.Tier.s_resident);
  match s.Pcm.Device.wl with
  | None -> ()
  | Some wl ->
      m.Metrics.wl_active <- true;
      m.Metrics.wl_gap_moves <- wl.Pcm.Device.gap_moves;
      m.Metrics.wl_remaps <- wl.Pcm.Device.remaps;
      m.Metrics.wl_remap_copies <- wl.Pcm.Device.copies;
      m.Metrics.wl_meta_writes <- wl.Pcm.Device.meta_writes

(** Switch the device's wear-leveling policy mid-run.  Pending failure
    interrupts are drained first (installing a leveler freezes the
    current unusable set into its permutation), and any line the
    leveler reserves for itself is evacuated through the normal failure
    chain and resolved before this returns. *)
let set_wear_level (st : device_state) (p : Pcm.Wear_level.policy option) : unit =
  ignore (service st);
  Pcm.Device.set_wear_level st.device p;
  ignore (service st)

(** Switch the node's tiering policy mid-run.  Pending interrupts are
    drained on both sides.  Turning migration off demotes every
    resident first (dirty lines write back through the normal path);
    turning caram off writes every bound line's content through the
    cells.  Both directions leave the data intact — only who absorbs
    future writes changes. *)
let set_hybrid (st : device_state) (p : Pcm.Hybrid.policy) : unit =
  ignore (service st);
  (match (st.node.n_tier, p.Pcm.Hybrid.migrate_epoch) with
  | Some tier, None ->
      Osal.Tier.drop_all tier ~charge_copy:st.charge_copy;
      st.node.n_tier <- None
  | None, Some epoch ->
      let tier =
        Osal.Tier.create ~vmm:st.vmm ~device:st.device ~dram_pages:st.dram_pages ~epoch ()
      in
      let interrupts = st.interrupts in
      Osal.Tier.set_on_stall tier (fun () -> ignore (Osal.Interrupts.service interrupts));
      st.node.n_tier <- Some tier
  | Some _, Some _ | None, None -> ());
  Pcm.Device.set_caram st.device p.Pcm.Hybrid.caram_ways;
  (match (st.content_rng, p.Pcm.Hybrid.caram_ways) with
  | None, Some _ ->
      st.content_rng <-
        Some
          (Xrng.of_seed
             (st.node.n_seed lxor 0xCA4A77 lxor (st.proc.Osal.Vmm.pid * 0x9E3779)))
  | _ -> ());
  st.node.n_hybrid <- p;
  ignore (service st)
