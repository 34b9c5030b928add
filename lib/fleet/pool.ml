(** One pooled device and the tenant VMs placed on it.

    The pool owns a shared {!Holes.Memory_backend.node} — the PCM
    module, its VMM and interrupt handler — sized for [slots] tenants
    plus placement slack, and a slot per tenant.  Each slot's VM is a
    full failure-aware process attached to the node
    ({!Holes.Vm.create}[ ~node]); tenants therefore share the device's
    pools, wear state and interrupt chain, and a tenant on a dying
    device really does inherit its neighbours' damage.

    End-of-life handling: a request that OOMs marks the tenant for
    eviction — the VM is {!Holes.Memory_backend.detach}ed (its pages
    return to the node's pools; their wear persists) and a fresh VM is
    placed on the same node.  After [max_replacements] placements, or
    when the node can no longer back a heap, the slot is permanently
    dead and its arrivals are dropped.  Cross-device migration is
    deliberately out of scope: devices are the determinism shards
    ({!Sim}), so tenants never leave their device. *)

open Holes_stdx
module Pcm = Holes_pcm
module Osal = Holes_osal
module Trace = Holes_obs.Trace
module Profile = Holes_workload.Profile

type slot = {
  tenant : Tenant.t;
  mutable vm : Holes.Vm.t option;  (** [None] = permanently dead *)
  mutable replacements : int;
}

type t = {
  cfg : Holes.Config.t;
  node : Holes.Memory_backend.node;
  slots : slot array;
  min_heap_bytes : int;
  max_replacements : int;
  srng : Xrng.t;  (** storm injection stream *)
  mutable storm_stamp : int;
      (** monotone content stamp for storm payloads under a caram store
          (identical junk would be absorbed as a single-byte pattern and
          wear nothing); untouched — and unread — when caram is off *)
  mutable evictions : int;
  gc_pause : Holes_obs.Stats.hist;
      (** GC pauses (full + nursery, ns) of tenants already evicted —
          their VMs are detached, so the histograms are harvested here
          before the metrics go away *)
}

let place (t : t) : Holes.Vm.t option =
  match Holes.Vm.create ~cfg:t.cfg ~node:t.node ~min_heap_bytes:t.min_heap_bytes () with
  | vm -> Some vm
  | exception Holes.Vm.Out_of_memory -> None

(** Bring up the device node (sized for [slots] tenants + 25% placement
    slack) and place one VM per tenant.  [rng] seeds the per-tenant
    sampling streams and the storm stream, in slot order. *)
let create ?(tracer = Trace.null) ~(cfg : Holes.Config.t) ~(tenant : Tenant.params)
    ~(slots : int) ?(max_replacements = 3) ~(rng : Xrng.t) () : t =
  let params =
    match cfg.Holes.Config.backend with
    | Holes.Config.Device d -> d
    | Holes.Config.Static -> invalid_arg "Fleet.Pool.create: requires the device backend"
  in
  (* per-tenant DRAM provisioning: a pooled node hosting [slots] tenants
     scales its migration-target DRAM by the tenant count, so each
     tenant sees the same frame budget a dedicated device would give it
     (plus the shared swap-in reserve).  Without migration the node
     keeps the configured frame count — provisioning DRAM nobody can
     use would only change page numbering. *)
  let params =
    if cfg.Holes.Config.hybrid.Pcm.Hybrid.migrate_epoch = None then params
    else { params with Holes.Config.dram_pages = params.Holes.Config.dram_pages * slots }
  in
  let min_heap_bytes = Profile.min_heap tenant.Tenant.profile in
  let ppt = Holes.Vm.heap_pages cfg ~min_heap_bytes in
  let device_pages = (slots * ppt * 5) / 4 in
  let node = Holes.Memory_backend.create_node ~tracer ~cfg ~params ~device_pages () in
  let t =
    {
      cfg;
      node;
      slots = [||];
      min_heap_bytes;
      max_replacements;
      srng = Xrng.split rng;
      storm_stamp = 0;
      evictions = 0;
      gc_pause = Holes_obs.Stats.hist ();
    }
  in
  let slots =
    Array.init slots (fun _ ->
        let tenant = Tenant.make tenant (Xrng.split rng) in
        { tenant; vm = place t; replacements = 0 })
  in
  { t with slots }

let alive (t : t) (i : int) : bool = t.slots.(i).vm <> None
let dead_tenants (t : t) : int = Array.fold_left (fun n s -> if s.vm = None then n + 1 else n) 0 t.slots
let evictions (t : t) : int = t.evictions
let node (t : t) : Holes.Memory_backend.node = t.node
let tenant (t : t) (i : int) : Tenant.t = t.slots.(i).tenant
let vm (t : t) (i : int) : Holes.Vm.t option = t.slots.(i).vm

(* Fold one VM's pause histograms into [h].  Called at eviction and
   again for the survivors at harvest time. *)
let absorb_pauses (h : Holes_obs.Stats.hist) (vm : Holes.Vm.t) : unit =
  let m = Holes.Vm.metrics vm in
  Holes_obs.Stats.merge h m.Holes.Metrics.pause_hist;
  Holes_obs.Stats.merge h m.Holes.Metrics.nursery_pause_hist

(** Evict slot [i]: detach its VM from the node and try to place a
    replacement.  The slot goes permanently dead when its replacement
    budget is spent or the node cannot back another heap. *)
let evict (t : t) (i : int) : unit =
  let s = t.slots.(i) in
  match s.vm with
  | None -> ()
  | Some vm ->
      absorb_pauses t.gc_pause vm;
      (match Holes.Vm.device_state vm with
      | Some st -> Holes.Memory_backend.detach st
      | None -> ());
      s.vm <- None;
      Tenant.reset s.tenant;
      t.evictions <- t.evictions + 1;
      s.replacements <- s.replacements + 1;
      if s.replacements <= t.max_replacements then s.vm <- place t

(** Serve one request on slot [i].  An OOM evicts the tenant and fails
    the request: [`Evicted] if a replacement VM was placed (the next
    request will be served fresh), [`Dead] if the slot is out of
    lives. *)
let serve (t : t) (i : int) : (Tenant.outcome, [ `Evicted | `Dead ]) result =
  let s = t.slots.(i) in
  match s.vm with
  | None -> Error `Dead
  | Some vm -> (
      match Tenant.serve s.tenant vm with
      | Ok o -> Ok o
      | Error `Oom ->
          evict t i;
          if s.vm = None then Error `Dead else Error `Evicted)

(* A retirement upcall during a storm can drive a tenant VM out of
   memory (evacuating the failed line's objects needs space).  The
   raiser sets its metrics flag before raising, so after swallowing the
   exception the damaged slot is found by flag sweep and evicted. *)
let sweep_oom (t : t) : unit =
  Array.iteri
    (fun i s ->
      match s.vm with
      | Some vm when (Holes.Vm.metrics vm).Holes.Metrics.out_of_memory -> evict t i
      | _ -> ())
    t.slots

(** A failure storm: [writes] junk line-stores sprayed uniformly over
    the device's usable lines, wearing them toward failure; the
    interrupt chain is drained so retirements reach the owning tenants
    before the next event.  Models background damage — scrubbing
    traffic, a failing controller, a noisy neighbour outside the
    fleet. *)
let storm (t : t) ~(writes : int) : unit =
  let dev = t.node.Holes.Memory_backend.n_device in
  let irq = t.node.Holes.Memory_backend.n_interrupts in
  let nlines = Pcm.Device.nlines dev in
  let payload = Bytes.make Pcm.Geometry.line_bytes '\xEE' in
  let caram_on = Pcm.Device.caram dev <> None in
  (try
     for _ = 1 to writes do
       let l = Xrng.int t.srng nlines in
       (* under a content store, constant junk compresses to a pattern
          binding and wears nothing; stamp each store unique so the
          storm keeps its wear pressure (no extra RNG draws, and the
          payload is untouched when caram is off) *)
       if caram_on then begin
         t.storm_stamp <- t.storm_stamp + 1;
         Bytes.set_int64_le payload 0 (Int64.of_int t.storm_stamp);
         Bytes.set_int64_le payload 8 (Int64.of_int l)
       end;
       match Pcm.Device.write dev l payload with
       | Pcm.Device.Stored | Pcm.Device.Write_failed | Pcm.Device.Unusable -> ()
       | Pcm.Device.Stalled ->
           (* failure-buffer pressure: drain and drop this store *)
           Osal.Interrupts.service irq
     done;
     Osal.Interrupts.service irq
   with Holes.Vm.Out_of_memory -> ());
  sweep_oom t

(** GC-pause histogram (full + nursery, ns) across every tenant the
    device has hosted: VMs harvested at eviction plus the current
    residents.  Returns a fresh histogram; the pool is unchanged, so
    calling this mid-run is safe. *)
let gc_pause_hist (t : t) : Holes_obs.Stats.hist =
  let h = Holes_obs.Stats.copy t.gc_pause in
  Array.iter (fun s -> Option.iter (absorb_pauses h) s.vm) t.slots;
  h

