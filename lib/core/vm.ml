(** The failure-aware virtual machine: the public facade tying together
    the failure map, OS page stock, object model, LOS and the selected
    collector.  Workloads drive a [Vm.t] through {!alloc}, {!write_ref}
    and {!kill}; every paper experiment is a function of the metrics and
    cost accumulated here.

    Heap sizing follows the paper's methodology (Sec. 5): the heap is a
    multiple of the workload's minimum, and under failures the VM
    *compensates* — requests [h / (1 - f)] bytes of (imperfect) memory so
    the usable budget is held constant (Sec. 6.2). *)

open Holes_stdx
open Holes_heap
module Trace = Holes_obs.Trace

exception Out_of_memory = Immix.Out_of_memory

type space = Ix of Immix.t | Ms of Mark_sweep.t

(** The dynamic-failure injector behind the [Storm] and [Adversarial]
    failure models (static backend only; the device backend generates
    its own failures through wear).  Failures are scheduled on the
    allocation clock ([Metrics.bytes_allocated]) and staged through a
    private failure buffer, modeling device-side buffer pressure:
    bursts larger than the buffer stall until the OS drains, exactly
    the overflow regime the Storm model exists to stress. *)
type injector = {
  spec : Holes_pcm.Failure_model.spec;
  irng : Xrng.t;  (** split off the map rng: deterministic per seed *)
  fbuf : Holes_pcm.Failure_buffer.t;
  mutable next_at : int;  (** bytes_allocated threshold of the next event *)
}

type t = {
  cfg : Config.t;
  cost : Cost.t;
  metrics : Metrics.t;
  objects : Object_table.t;
  stock : Page_stock.t;
  los : Los.t;
  space : space;
  backend : Memory_backend.t;
  injector : injector option;  (** dynamic failure-model driver *)
  heap_pages : int;  (** pages granted (after compensation) *)
  arraylet_spines : (int, int list) Hashtbl.t;
      (** spine object id -> arraylet piece ids (Z-rays mode) *)
  tracer : Trace.view;
      (** trace destination for every layer below; its clock is this
          VM's cost model, so timestamps are virtual (deterministic) *)
}

let page_bytes = Holes_pcm.Geometry.page_bytes
let lines_per_page = Holes_pcm.Geometry.lines_per_page

(** Build the static failure map for a heap of [npages] pages under the
    configured failure distribution (the fault-injection module of
    Sec. 5, sitting between the OS allocator and the VM allocator). *)
let generate_failure_map (cfg : Config.t) ~(rng : Xrng.t) ~(npages : int) : Bitset.t * int =
  let round_pages_to mult = (npages + mult - 1) / mult * mult in
  match cfg.Config.failure_model with
  | Config.Model m ->
      let nlines = npages * lines_per_page in
      ( Holes_pcm.Failure_model.static_map m rng ~nlines ~rate:cfg.Config.failure_rate,
        npages )
  | Config.From_dist -> (
  match cfg.Config.failure_dist with
  | Config.Uniform ->
      let nlines = npages * lines_per_page in
      (Holes_pcm.Failure_map.uniform rng ~nlines ~rate:cfg.Config.failure_rate, npages)
  | Config.Granule g ->
      (* granules larger than a page require whole-multiple sizing *)
      let pages = round_pages_to (max 1 (g / lines_per_page)) in
      let nlines = pages * lines_per_page in
      ( Holes_pcm.Failure_map.clustered rng ~nlines ~rate:cfg.Config.failure_rate ~granule_lines:g,
        pages )
  | Config.Hw_cluster region_pages ->
      let pages = round_pages_to region_pages in
      let nlines = pages * lines_per_page in
      let base = Holes_pcm.Failure_map.uniform rng ~nlines ~rate:cfg.Config.failure_rate in
      (Holes_pcm.Failure_map.cluster_transform base ~region_pages, pages))

(** Trigger a collection explicitly. *)
let collect (t : t) ~(full : bool) : unit =
  match t.space with Ix s -> Immix.collect s ~full | Ms s -> Mark_sweep.collect s ~full

(* LOS allocation with the collection-retry ladder. *)
let alloc_los (t : t) ~(size : int) : int =
  let generational = Config.is_generational t.cfg.Config.collector in
  let try_once () =
    if Los.can_allocate t.los ~size then Los.alloc t.los ~size else None
  in
  let rec attempt n =
    match try_once () with
    | Some addr -> addr
    | None ->
        (* page shortage: a defragmenting collection can dissolve sparse
           blocks back into stock pages *)
        (match t.space with Ix s -> Immix.request_defrag s | Ms _ -> ());
        if n = 0 && generational then begin
          collect t ~full:false;
          attempt 1
        end
        else if n <= 1 then begin
          collect t ~full:true;
          attempt 2
        end
        else begin
          t.metrics.Metrics.out_of_memory <- true;
          t.metrics.Metrics.oom_request <- size;
          raise Out_of_memory
        end
  in
  attempt 0

(* Relocate the live LOS object whose pages contain heap address [addr]
   to fresh perfect pages — the LOS response to a line failure.  The
   victim is found through the page→object index (constant time), not a
   live-set scan. *)
let relocate_los_victim (t : t) ~(addr : int) : unit =
  t.metrics.Metrics.dynamic_failures <- t.metrics.Metrics.dynamic_failures + 1;
  match Object_table.los_object_at t.objects ~page:(addr / page_bytes) with
  | None -> ()
  | Some id when not (Object_table.is_alive t.objects id) -> ()
  | Some id ->
      let size = Object_table.size t.objects id in
      let old_addr = Object_table.addr t.objects id in
      Los.free t.los ~addr:old_addr;
      let new_addr = alloc_los t ~size in
      Object_table.relocate t.objects id ~new_addr;
      Cost.charge_copy t.cost ~bytes:size;
      t.metrics.Metrics.bytes_copied <- t.metrics.Metrics.bytes_copied + size

(* The runtime's end of the OS failure up-call (Sec. 3.2.2): stock page
   [stock_page] lost 64 B line [line].  A line inside an assembled Immix
   block is retired through the evacuation machinery; a LOS line
   relocates the whole large object; a line on a free page is only
   marked, so later grants see the hole.  [data] was preserved by the
   failure buffer — relocation re-reads live data through the heap
   model, so the payload is not consumed here. *)
let handle_line_retired (t : t) ~(stock_page : int) ~(line : int) ~(data : Bytes.t option) :
    unit =
  ignore data;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_gc "line_retired"
      ~args:[ ("stock_page", float_of_int stock_page); ("line", float_of_int line) ];
  match t.space with
  | Ms _ -> ()
  | Ix s -> (
      match Immix.find_page_owner s ~page:stock_page with
      | Some (b, page_idx) ->
          let addr =
            b.Block.base + (page_idx * page_bytes) + (line * Holes_pcm.Geometry.line_bytes)
          in
          Immix.dynamic_failure s ~addr
      | None -> (
          Page_stock.mark_line_failed t.stock ~id:stock_page ~line;
          match Los.addr_backed_by t.los ~page:stock_page with
          | Some base -> relocate_los_victim t ~addr:base
          | None -> ()))

(* One charged 64 B store to a line packed as [page_backing] packs it. *)
let store_line (st : Memory_backend.device_state) (backing : int) : unit =
  let lpp = Holes_pcm.Geometry.lines_per_page in
  Memory_backend.device_write st ~stock_page:(backing / lpp) ~line:(backing mod lpp)

(* Charge the device writes behind materializing object [id]: one 64 B
   line store per line it spans.  A store may wear its line out
   mid-loop; the failure chain then retires the line (possibly
   relocating the object), so the backing address is re-resolved every
   iteration. *)
let charge_device_writes (t : t) ~(id : int) : unit =
  match t.backend with
  | Memory_backend.Static -> ()
  | Memory_backend.Device st ->
      let line64 = Holes_pcm.Geometry.line_bytes in
      let nlines = (Object_table.size t.objects id + line64 - 1) / line64 in
      let i = ref 0 in
      while !i < nlines && Object_table.is_alive t.objects id do
        let addr = Object_table.addr t.objects id in
        let off = !i * line64 in
        let backing =
          if Los.is_los_addr addr then Los.page_backing t.los ~base:addr ~off
          else
            match t.space with
            | Ix s -> Immix.page_backing s ~addr:(addr + off)
            | Ms _ -> -1
        in
        if backing >= 0 then store_line st backing;
        incr i
      done

(** Run the paranoid heap verifier over the whole VM: blocks, cursors,
    LOS, page stock, accounting, device/OS agreement and failure
    buffers (see {!Verify}).  Valid at any point; free of side effects
    beyond the non-serialized [verify_*] counters. *)
let verify (t : t) : Verify.report =
  Verify.run ~metrics:t.metrics ~objects:t.objects ~stock:t.stock ~los:t.los
    ~immix:(match t.space with Ix s -> Some s | Ms _ -> None)
    ~backend:t.backend
    ?fbuf:(Option.map (fun inj -> inj.fbuf) t.injector)
    ()

(* ---- the dynamic failure-model injector (Storm / Adversarial) ---- *)

(* OS response: drain the staged failures oldest-first, retiring each
   line through the collector's dynamic-failure machinery (which may
   collect, evacuate, or raise Out_of_memory — a legitimate outcome). *)
let drain_injector (t : t) (inj : injector) : unit =
  let rec go () =
    match Holes_pcm.Failure_buffer.peek inj.fbuf with
    | None -> ()
    | Some e ->
        let addr = e.Holes_pcm.Failure_buffer.addr in
        ignore (Holes_pcm.Failure_buffer.clear inj.fbuf ~addr);
        (match t.space with Ix s -> Immix.dynamic_failure s ~addr | Ms _ -> ());
        go ()
  in
  go ()

(* One scheduled event: a burst of line failures (Storm: geometric
   size; Adversarial: exactly the line under the bump cursor).  Each
   failing line is staged in the private failure buffer first — when
   the buffer is full the device stalls and the OS must drain before
   the next failure can be recorded — then the whole burst is drained. *)
let inject_event (t : t) (s : Immix.t) (inj : injector) : unit =
  let n = Holes_pcm.Failure_model.burst_size inj.spec inj.irng in
  let payload = Bytes.create 8 in
  for _ = 1 to n do
    let victim =
      match inj.spec with
      | Holes_pcm.Failure_model.Adversarial _ -> (
          match Immix.bump_target s with
          | Some addr -> Some addr
          | None -> Immix.random_line_addr s inj.irng)
      | _ -> Immix.random_line_addr s inj.irng
    in
    match victim with
    | None -> ()
    | Some addr ->
        Bytes.set_int64_le payload 0 (Int64.of_int addr);
        if not (Holes_pcm.Failure_buffer.insert inj.fbuf ~addr ~data:payload) then begin
          drain_injector t inj;
          ignore (Holes_pcm.Failure_buffer.insert inj.fbuf ~addr ~data:payload)
        end
  done;
  drain_injector t inj

(* Fire every event whose allocation-clock deadline has passed (called
   after each mutator allocation; never re-enters itself because the
   collector allocates through its own internal paths). *)
let service_injector (t : t) : unit =
  match (t.injector, t.space) with
  | None, _ | _, Ms _ -> ()
  | Some inj, Ix s ->
      while t.metrics.Metrics.bytes_allocated >= inj.next_at do
        inject_event t s inj;
        inj.next_at <-
          inj.next_at + Holes_pcm.Failure_model.next_interval inj.spec inj.irng
      done

(** The heap pages {!create} grants for [min_heap_bytes]: [heap_factor ×
    min_heap_bytes] rounded up to whole pages, grown to h/(1-f) under
    compensation.  The fleet provisions a pooled device with it before
    any VM exists. *)
let heap_pages (cfg : Config.t) ~(min_heap_bytes : int) : int =
  let heap_bytes = int_of_float (cfg.Config.heap_factor *. float_of_int min_heap_bytes) in
  let base_pages = (heap_bytes + page_bytes - 1) / page_bytes in
  if cfg.Config.compensate && cfg.Config.failure_rate > 0.0 then
    int_of_float (ceil (float_of_int base_pages /. (1.0 -. cfg.Config.failure_rate)))
  else base_pages

(** Create a VM with a heap of [heap_factor × min_heap_bytes] usable
    bytes (compensated for the failure rate when configured).
    [device_map] overrides the generated failure map (used by the
    wear-leveling ablation and by tests that inject hand-built maps); it
    receives the page count and must return a bitmap of
    [npages * 64] lines.  [node] attaches the VM to an existing shared
    device node (the fleet's pooled-device path) instead of creating a
    private device; placement on a full or dying node raises
    {!Out_of_memory} without leaking pages. *)
let create ?(cfg = Config.default) ?(device_map : (npages:int -> Bitset.t) option)
    ?(node : Memory_backend.node option) ?(tracer = Trace.null) ~(min_heap_bytes : int) () : t
    =
  (match Config.validate cfg with Ok () -> () | Error m -> invalid_arg ("Vm.create: " ^ m));
  (match (node, cfg.Config.backend) with
  | Some _, Config.Static ->
      invalid_arg "Vm.create: a device node requires the device backend"
  | _ -> ());
  let pages = heap_pages cfg ~min_heap_bytes in
  let cost = Cost.create () in
  (* virtual clock: trace timestamps are modeled nanoseconds, so traces
     are deterministic and independent of host speed or -j parallelism *)
  Trace.set_clock tracer (fun () -> Cost.total_ns cost);
  let metrics = Metrics.create () in
  metrics.Metrics.inc_active <- cfg.Config.gc_slice > 0;
  let backend, stock, heap_pages, injector =
    match cfg.Config.backend with
    | Config.Static ->
        let rng = Xrng.of_seed cfg.Config.seed in
        let device_map, heap_pages =
          match device_map with
          | Some f -> (f ~npages:pages, pages)
          | None -> generate_failure_map cfg ~rng ~npages:pages
        in
        let stock =
          Page_stock.create ~line_size:cfg.Config.line_size ~device_map ~npages:heap_pages ()
        in
        let injector =
          match cfg.Config.failure_model with
          | Config.Model m when Holes_pcm.Failure_model.is_dynamic m ->
              let irng = Xrng.split rng in
              Some
                {
                  spec = m;
                  irng;
                  fbuf = Holes_pcm.Failure_buffer.create ();
                  next_at = Holes_pcm.Failure_model.next_interval m irng;
                }
          | Config.Model _ | Config.From_dist -> None
        in
        (Memory_backend.Static, stock, heap_pages, injector)
    | Config.Device params ->
        if device_map <> None then
          invalid_arg "Vm.create: device_map overrides apply to the static backend only";
        let st, bitmaps =
          match node with
          | None -> Memory_backend.create_device ~tracer ~cfg ~params ~metrics ~npages:pages ()
          | Some node -> (
              match Memory_backend.attach ~node ~metrics ~npages:pages () with
              | Ok r -> r
              | Error `Out_of_memory ->
                  metrics.Metrics.out_of_memory <- true;
                  raise Out_of_memory)
        in
        let stock = Page_stock.create_of_bitmaps ~line_size:cfg.Config.line_size ~bitmaps () in
        (Memory_backend.Device st, stock, Array.length bitmaps, None)
  in
  let objects = Object_table.create () in
  let los = Los.create ~stock ~cost ~metrics in
  let space =
    if Config.is_immix cfg.Config.collector then
      Ix (Immix.create ~tracer ~cfg ~cost ~metrics ~stock ~objects ~los ())
    else Ms (Mark_sweep.create ~cfg ~cost ~metrics ~stock ~objects ~los)
  in
  let t =
    { cfg; cost; metrics; objects; stock; los; space; backend; injector; heap_pages;
      arraylet_spines = Hashtbl.create 64; tracer }
  in
  (match backend with
  | Memory_backend.Static -> ()
  | Memory_backend.Device st ->
      st.Memory_backend.line_retired <-
        (fun ~stock_page ~line ~data -> handle_line_retired t ~stock_page ~line ~data);
      (* hybrid-tiering migration copies are charged to the VM whose
         write triggered them (requestor pays), at the same per-byte
         rate as collector copies *)
      st.Memory_backend.charge_copy <- (fun ~bytes -> Cost.charge_copy cost ~bytes));
  if cfg.Config.verify then
    (match space with
    | Ix s -> Immix.set_post_gc_check s (fun () -> Verify.raise_on_errors (verify t))
    | Ms _ -> ());
  t

let cfg (t : t) : Config.t = t.cfg
let cost (t : t) : Cost.t = t.cost
let metrics (t : t) : Metrics.t = t.metrics
let objects (t : t) : Object_table.t = t.objects
let stock (t : t) : Page_stock.t = t.stock

(** Ask the next full collection to defragment (evacuate sparse blocks).
    The collector also requests this itself on allocation pressure;
    Immix defragments on demand, not on every collection. *)
let request_defrag (t : t) : unit =
  match t.space with Ix s -> Immix.request_defrag s | Ms _ -> ()

(* a small/medium allocation through the configured collector *)
let alloc_in_space (t : t) ~(size : int) ~(pinned : bool) : int =
  match t.space with
  | Ix s ->
      let addr = Immix.alloc s ~size in
      let id = Object_table.alloc t.objects ~addr ~size ~pinned ~los:false in
      Immix.register s ~id ~addr;
      charge_device_writes t ~id;
      id
  | Ms s ->
      let block, cell, addr = Mark_sweep.alloc s ~size in
      let id = Object_table.alloc t.objects ~addr ~size ~pinned ~los:false in
      Mark_sweep.register_cell s ~block ~cell ~id;
      Mark_sweep.register s ~id;
      id

(* Discontiguous arrays (Z-rays, Sartor et al. — paper Sec. 3.3.3): a
   large array becomes fixed-size arraylets plus a spine of pointers,
   all allocated as ordinary (relaxed) objects — no perfect pages
   needed.  Arraylets are line-sized ("arraylets as small as 256
   bytes"), so they take the small-object hole-skipping path and fit
   any imperfect page.  The spine indirection is charged per byte. *)
let alloc_arraylets (t : t) ~(size : int) ~(pinned : bool) : int =
  let arraylet_bytes = t.cfg.Config.line_size in
  let npieces = (size + arraylet_bytes - 1) / arraylet_bytes in
  let pieces = ref [] in
  for i = 0 to npieces - 1 do
    let psize = min arraylet_bytes (size - (i * arraylet_bytes)) in
    pieces := alloc_in_space t ~size:(max 16 psize) ~pinned:false :: !pieces
  done;
  let spine = alloc_in_space t ~size:(max 16 (npieces * 8)) ~pinned in
  List.iter (fun p -> Object_table.add_ref t.objects ~src:spine ~dst:p) !pieces;
  Hashtbl.replace t.arraylet_spines spine !pieces;
  let w = t.cost.Cost.weights in
  Cost.charge t.cost (w.Cost.arraylet_byte *. float_of_int size);
  t.metrics.Metrics.arraylet_arrays <- t.metrics.Metrics.arraylet_arrays + 1;
  t.metrics.Metrics.arraylet_pieces <- t.metrics.Metrics.arraylet_pieces + npieces;
  spine

(** Allocate an object of [size] bytes; returns its object id.  May run
    collections; raises {!Out_of_memory} when the heap cannot hold the
    live set.  Large objects go to the page-grained LOS, or — in Z-rays
    mode — are split into discontiguous arraylets. *)
let alloc (t : t) ?(pinned = false) ~(size : int) () : int =
  let asize = Units.aligned_size size in
  t.metrics.Metrics.objects_allocated <- t.metrics.Metrics.objects_allocated + 1;
  t.metrics.Metrics.bytes_allocated <- t.metrics.Metrics.bytes_allocated + asize;
  let id =
    if asize > Units.los_threshold && t.cfg.Config.arraylets then
      alloc_arraylets t ~size:asize ~pinned
    else if asize > Units.los_threshold then begin
      let addr = alloc_los t ~size:asize in
      let id = Object_table.alloc t.objects ~addr ~size:asize ~pinned ~los:true in
      (match t.space with
      | Ix s -> Immix.register s ~id ~addr
      | Ms s -> Mark_sweep.register s ~id);
      charge_device_writes t ~id;
      id
    end
    else alloc_in_space t ~size:asize ~pinned
  in
  service_injector t;
  id

(** Store a reference from [src] to [dst] (fires the write barrier).
    On the device backend the pointer store itself is a 64 B line write
    and is charged through the device (it can wear the line out). *)
let write_ref (t : t) ~(src : int) ~(dst : int) : unit =
  Object_table.add_ref t.objects ~src ~dst;
  (match t.backend with
  | Memory_backend.Static -> ()
  | Memory_backend.Device st -> (
      let addr = Object_table.addr t.objects src in
      let backing =
        if Los.is_los_addr addr then Los.page_backing t.los ~base:addr ~off:0
        else match t.space with Ix s -> Immix.page_backing s ~addr | Ms _ -> -1
      in
      if backing >= 0 then store_line st backing));
  match t.space with Ix s -> Immix.write_barrier s ~src | Ms s -> Mark_sweep.write_barrier s ~src

(** The object becomes unreachable; its space is reclaimed by a later
    collection.  Killing an arraylet spine kills its pieces. *)
let kill (t : t) (id : int) : unit =
  Object_table.kill t.objects id;
  (* the table stays empty unless arraylets are on: skip the hash *)
  if Hashtbl.length t.arraylet_spines > 0 then
    match Hashtbl.find_opt t.arraylet_spines id with
    | None -> ()
    | Some pieces ->
        List.iter (Object_table.kill t.objects) pieces;
        Hashtbl.remove t.arraylet_spines id

(** Inject a dynamic PCM line failure at the heap address of object
    [id] (or an arbitrary address via [dynamic_failure_at]).  LOS
    failures relocate the whole large object to fresh perfect pages.
    Static backend only: on the device backend failures arise from wear
    and arrive through the interrupt chain, so direct injection is
    rejected. *)
let dynamic_failure_at (t : t) ~(addr : int) : unit =
  (match t.backend with
  | Memory_backend.Device _ ->
      invalid_arg
        "Vm.dynamic_failure_at: the device backend delivers failures through the interrupt \
         chain"
  | Memory_backend.Static -> ());
  if Los.is_los_addr addr then relocate_los_victim t ~addr
  else
    match t.space with
    | Ix s -> Immix.dynamic_failure s ~addr
    | Ms _ -> invalid_arg "Vm.dynamic_failure_at: mark-sweep runs without failures"

let dynamic_failure (t : t) ~(id : int) : unit =
  if Object_table.is_alive t.objects id then
    dynamic_failure_at t ~addr:(Object_table.addr t.objects id)

(** Switch the device's wear-leveling policy mid-run (device backend
    only): pauses, resumes or installs the device's wear leveler.  Any
    line the leveler reserves for itself is retired through the normal
    failure chain before this returns, so the heap stays consistent for
    the next verify pass. *)
let set_wear_level (t : t) (p : Holes_pcm.Wear_level.policy option) : unit =
  match t.backend with
  | Memory_backend.Device st -> Memory_backend.set_wear_level st p
  | Memory_backend.Static ->
      invalid_arg "Vm.set_wear_level: wear-leveling stages live in the device pipeline"

(** Switch the hybrid DRAM/PCM tiering policy mid-run (device backend
    only; DESIGN.md §17).  Turning migration off demotes every DRAM
    resident back to its PCM home (dirty lines written back through
    the charged device path); turning the content store off flushes
    its bound lines through the cells.  The torture driver flips this
    both ways under load. *)
let set_hybrid (t : t) (p : Holes_pcm.Hybrid.policy) : unit =
  match t.backend with
  | Memory_backend.Device st -> Memory_backend.set_hybrid st p
  | Memory_backend.Static ->
      invalid_arg "Vm.set_hybrid: hybrid tiering needs the device backend"

(** Switch the incremental-collection work budget mid-run (0 =
    stop-the-world).  On Immix, toggling increments off finishes any
    cycle in flight first, so the heap the stop-the-world machinery
    next sees is a completed-collection state — the torture driver
    flips this both ways under load. *)
let set_gc_slice (t : t) (budget : int) : unit =
  if budget > 0 then t.metrics.Metrics.inc_active <- true;
  match t.space with
  | Ix s -> Immix.set_gc_slice s budget
  | Ms s -> Mark_sweep.set_gc_slice s budget

(** Total modeled execution time so far, in milliseconds. *)
let elapsed_ms (t : t) : float = Cost.total_ms t.cost

(** The VM's memory backend (tests inspect the device pipeline here). *)
let backend (t : t) : Memory_backend.t = t.backend

(** The device pipeline state, when running on the device backend. *)
let device_state (t : t) : Memory_backend.device_state option =
  match t.backend with Memory_backend.Static -> None | Memory_backend.Device st -> Some st

(** Pull the device/OS pipeline counters into {!metrics} (no-op on the
    static backend).  Call at run end, before reading metrics. *)
let sync_backend_stats (t : t) : unit =
  match t.backend with
  | Memory_backend.Static -> (
      (* the injector's private failure buffer plays the device's role
         under the Storm/Adversarial models: publish its pressure *)
      match t.injector with
      | None -> ()
      | Some inj ->
          let st = Holes_pcm.Failure_buffer.stats inj.fbuf in
          t.metrics.Metrics.fbuf_peak_occupancy <- st.Holes_pcm.Failure_buffer.max_occupancy;
          t.metrics.Metrics.fbuf_stall_events <- st.Holes_pcm.Failure_buffer.stall_events)
  | Memory_backend.Device st -> Memory_backend.sync_node st.Memory_backend.node t.metrics

(** Post-collection heap invariants (valid immediately after a full
    collection): live objects never overlap failed lines or each other's
    line accounting. *)
let check_invariants (t : t) : (unit, string) result =
  match t.space with Ix s -> Immix.check_invariants s | Ms _ -> Ok ()

(** Snapshot of headline counters, for examples and debugging output.
    On the device backend this also reports the device/OS pipeline:
    device traffic, failure-buffer pressure, interrupt-chain activity. *)
let pp_summary (ppf : Format.formatter) (t : t) : unit =
  sync_backend_stats t;
  let m = t.metrics in
  Format.fprintf ppf
    "@[<v>time: %.2f ms (mutator %.2f, gc %.2f)@,\
     allocated: %d objects, %.2f MB@,\
     collections: %d full, %d nursery@,\
     copied: %.2f MB; hole skips: %d; perfect-block fallbacks: %d@,\
     LOS: %d objects, %d pages; borrowed pages: %d@]"
    (Cost.total_ms t.cost)
    (Cost.mutator_ns t.cost /. 1e6)
    (Cost.gc_ns t.cost /. 1e6)
    m.Metrics.objects_allocated
    (float_of_int m.Metrics.bytes_allocated /. 1048576.0)
    m.Metrics.full_gcs m.Metrics.nursery_gcs
    (float_of_int m.Metrics.bytes_copied /. 1048576.0)
    m.Metrics.hole_skips m.Metrics.perfect_block_fallbacks m.Metrics.los_objects
    m.Metrics.los_pages
    (Holes_osal.Accounting.total_borrowed (Page_stock.accounting t.stock));
  match t.backend with
  | Memory_backend.Static -> ()
  | Memory_backend.Device _ ->
      Format.fprintf ppf
        "@,@[<v>device: %d reads, %d writes, %d wear failures@,\
         fbuf: peak occupancy %d, %d stalls@,\
         OS: %d up-calls, %d page copies, %d data restores@,\
         VMM: %d reverse translations, %d swap-ins; dynamic failures: %d@]"
        m.Metrics.device_reads m.Metrics.device_writes m.Metrics.device_line_failures
        m.Metrics.fbuf_peak_occupancy m.Metrics.fbuf_stall_events m.Metrics.os_upcalls
        m.Metrics.os_page_copies m.Metrics.os_data_restores m.Metrics.reverse_translations
        m.Metrics.swap_ins m.Metrics.dynamic_failures
