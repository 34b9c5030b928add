(** The fleet simulator: a deterministic discrete-event loop multiplexing
    tenant VMs over a shared pool of aging PCM devices.

    {b Sharding = determinism.}  The unit of work is one device with its
    resident tenants; tenants on different devices never interact, so a
    device shard is a pure function of its {!Holes_engine.Job.spec} and
    the shards run under the existing engine at any [-j] with
    bit-identical results.  The fleet report is folded from the
    per-device partials in device-index order.

    {b Clock unification.}  Each shard runs one virtual clock — the
    event-queue time in integer nanoseconds.  Tenant VMs keep their own
    cost accumulators (starting at zero); a request's {e service time}
    is the tenant's cost delta, which the event loop turns into
    completion events, so GC pauses and device retirement work surface
    as queueing delay for every request behind them.  Trace events
    (device, OS and fleet lanes) are stamped with the shard clock — one
    synthetic process per device, one thread lane per tenant.

    {b Open loop.}  Arrivals are generated by {!Arrivals} independently
    of service progress and stop at [duration_ms]; the loop then drains
    (every queued request is served unless its tenant is dead), so
    overload shows up as latency, not lost work. *)

open Holes_stdx
module Trace = Holes_obs.Trace
module Profile = Holes_workload.Profile
module Job = Holes_engine.Job
module Engine = Holes_engine.Engine
module EPool = Holes_engine.Pool

type params = {
  tenants : int;  (** total tenant count across the fleet *)
  devices : int;  (** pooled devices; tenants are spread round-robin *)
  arrival : Arrivals.process;  (** per-tenant arrival process *)
  duration_ms : float;  (** arrival window, virtual milliseconds *)
  epochs : int;  (** age-epoch count for the per-epoch latency split *)
  slo_ms : float;  (** goodput threshold *)
  storm_every_ms : float;  (** failure-storm period per device; 0 = off *)
  storm_writes : int;  (** junk line-stores per storm *)
  tenant : Tenant.params;
  cfg : Holes.Config.t;  (** device-backend configuration *)
  max_replacements : int;  (** tenant lives before a slot goes dead *)
}

let default : params =
  {
    tenants = 8;
    devices = 2;
    arrival = Arrivals.Poisson { rate = 200.0 };
    duration_ms = 1000.0;
    epochs = 4;
    slo_ms = 10.0;
    storm_every_ms = 0.0;
    storm_writes = 4096;
    tenant = Tenant.default;
    cfg =
      {
        Holes.Config.default with
        Holes.Config.backend = Holes.Config.Device Holes.Config.default_device;
      };
    max_replacements = 3;
  }

let validate (p : params) : (unit, string) result =
  if p.tenants < 1 then Error "tenants must be >= 1"
  else if p.devices < 1 then Error "devices must be >= 1"
  else if p.duration_ms <= 0.0 then Error "duration must be positive"
  else if p.epochs < 1 then Error "epochs must be >= 1"
  else if p.storm_every_ms < 0.0 then Error "storm period must be >= 0"
  else
    match p.cfg.Holes.Config.backend with
    | Holes.Config.Static -> Error "the fleet runs on the device backend"
    | Holes.Config.Device _ -> ( match Arrivals.validate p.arrival with Ok () -> Ok () | Error e -> Error e)

(** Tenants resident on device [device_index] (round-robin spread). *)
let tenants_on (p : params) ~(device_index : int) : int =
  let base = p.tenants / p.devices in
  base + (if device_index < p.tenants mod p.devices then 1 else 0)

(* The fleet cell's profile name spells out every simulation parameter,
   so the derived Job.seed — a hash of (config name, profile name, base
   seed, device index) — can never collide with a non-fleet cell or a
   differently parameterized fleet cell, and sink records are
   self-describing. *)
let profile_name (p : params) : string =
  Printf.sprintf "fleet[%s,t%d,d%d,%gms,e%d,slo%g,st%g/%d,%s,r%d]"
    (Arrivals.name p.arrival) p.tenants p.devices p.duration_ms p.epochs p.slo_ms
    p.storm_every_ms p.storm_writes (Tenant.name p.tenant) p.max_replacements

let profile (p : params) : Profile.t =
  { p.tenant.Tenant.profile with Profile.name = profile_name p }

(** One engine job per device shard; [seed_index] is the device index. *)
let specs (p : params) : Job.spec array =
  Array.init p.devices (fun device_index ->
      { Job.cfg = p.cfg; profile = profile p; scale = 1.0; seed_index = device_index })

(* ---- the per-device event loop ---- *)

type ev = Arrival of int | Completion of int | Storm

type slot_state = {
  tid : int;  (** trace thread lane *)
  arr : Arrivals.t;
  queue : int Queue.t;  (** arrival timestamps (ns) awaiting service *)
  mutable in_service : int;  (** arrival ns of the request being served; -1 idle *)
}

(** Run one device shard to completion.  Everything below is a function
    of [(p, device_index, seed)]; [view] only observes. *)
let run_device (p : params) ~(device_index : int) ~(seed : int) ~(view : Trace.view) :
    Report.partial =
  let part = Report.partial ~epochs:p.epochs in
  let nslots = tenants_on p ~device_index in
  if nslots = 0 then part
  else begin
    let now = ref 0 in
    Trace.set_clock view (fun () -> float_of_int !now);
    Trace.name_process view (Printf.sprintf "fleet-dev%d" device_index);
    (* the node's seed (wear streams, boot failures) is the shard seed *)
    let cfg = { p.cfg with Holes.Config.seed = seed land 0x3FFFFFFF } in
    let rng = Xrng.of_seed (seed lxor 0xF1EE7) in
    let pool =
      Pool.create ~tracer:view ~cfg ~tenant:p.tenant ~slots:nslots
        ~max_replacements:p.max_replacements ~rng ()
    in
    let duration_ns = int_of_float (p.duration_ms *. 1e6) in
    let slo_ns = p.slo_ms *. 1e6 in
    let slots =
      Array.init nslots (fun i ->
          {
            tid = 16 + i;
            arr = Arrivals.make p.arrival (Xrng.split rng);
            queue = Queue.create ();
            in_service = -1;
          })
    in
    Array.iteri
      (fun i s -> Trace.name_thread view ~tid:s.tid (Printf.sprintf "tenant-%d" i))
      slots;
    let q : ev Heapq.t = Heapq.create ~dummy:Storm in
    let record_completion (s : slot_state) : unit =
      let lat = !now - s.in_service in
      part.Report.completed <- part.Report.completed + 1;
      if float_of_int lat <= slo_ns then part.Report.good <- part.Report.good + 1;
      Holes_obs.Stats.observe_int part.Report.latency lat;
      let e = min (p.epochs - 1) (s.in_service * p.epochs / duration_ns) in
      Holes_obs.Stats.observe_int part.Report.epoch.(e) lat;
      s.in_service <- -1
    in
    let drop_queue (s : slot_state) : unit =
      part.Report.dropped <- part.Report.dropped + Queue.length s.queue;
      Queue.clear s.queue
    in
    (* Serve queued requests on slot [i] until one is in flight (its
       completion event is scheduled) or the queue empties.  The request
       work runs *now*; the completion lands one service time later, so
       a GC pause or retirement stall delays everything queued behind
       it. *)
    let rec pump (i : int) : unit =
      let s = slots.(i) in
      if s.in_service < 0 then
        match Queue.take_opt s.queue with
        | None -> ()
        | Some arrived ->
            s.in_service <- arrived;
            let before = Pool.evictions pool in
            (match Pool.serve pool i with
            | Ok o ->
                part.Report.gc_ns <- part.Report.gc_ns +. o.Tenant.gc_ns;
                Trace.begin_span view ~tid:s.tid "request"
                  ~args:[ ("queue_ns", float_of_int (!now - arrived)) ];
                Heapq.push q ~key:(!now + int_of_float o.Tenant.service_ns) (Completion i)
            | Error (`Evicted | `Dead) ->
                part.Report.failed <- part.Report.failed + 1;
                s.in_service <- -1;
                if Pool.evictions pool > before then
                  Trace.instant view ~tid:s.tid "evict"
                    ~args:[ ("replacement", if Pool.alive pool i then 1.0 else 0.0) ];
                if Pool.alive pool i then pump i else drop_queue s)
    in
    (* prime the event queue: first arrival per tenant, first storm *)
    Array.iteri
      (fun i s ->
        let t0 = int_of_float (Arrivals.next_gap_ns s.arr) in
        if t0 <= duration_ns then Heapq.push q ~key:t0 (Arrival i))
      slots;
    if p.storm_every_ms > 0.0 then begin
      let t0 = int_of_float (p.storm_every_ms *. 1e6) in
      if t0 <= duration_ns then Heapq.push q ~key:t0 Storm
    end;
    let rec loop () =
      match Heapq.pop q with
      | None -> ()
      | Some (t, ev) ->
          now := t;
          (match ev with
          | Arrival i ->
              let s = slots.(i) in
              if Pool.alive pool i then begin
                part.Report.arrived <- part.Report.arrived + 1;
                Queue.add t s.queue;
                pump i
              end
              else part.Report.dropped <- part.Report.dropped + 1;
              let next = t + int_of_float (Arrivals.next_gap_ns s.arr) in
              if next <= duration_ns then Heapq.push q ~key:next (Arrival i)
          | Completion i ->
              let s = slots.(i) in
              Trace.end_span view ~tid:s.tid "request";
              record_completion s;
              pump i
          | Storm ->
              let before = Pool.evictions pool in
              Pool.storm pool ~writes:p.storm_writes;
              Trace.instant view ~tid:Trace.tid_pcm "storm"
                ~args:
                  [
                    ("writes", float_of_int p.storm_writes);
                    ("evictions", float_of_int (Pool.evictions pool - before));
                  ];
              (* a storm can kill the VM that owns an in-flight request;
                 the scheduled completion still lands (the work already
                 ran), and the next request gets the replacement VM *)
              let next = t + int_of_float (p.storm_every_ms *. 1e6) in
              if next <= duration_ns then Heapq.push q ~key:next Storm);
          loop ()
    in
    loop ();
    Holes_obs.Stats.merge part.Report.gc_pause (Pool.gc_pause_hist pool);
    Holes.Memory_backend.sync_node (Pool.node pool) part.Report.node;
    part.Report.evictions <- Pool.evictions pool;
    part.Report.dead_tenants <- Pool.dead_tenants pool;
    part.Report.end_ns <- !now;
    part
  end

(** Run the whole fleet: one engine job per device, optional JSONL sink
    (one record per device shard) and optional trace collector (one
    synthetic process per device).  The merged report is bit-identical
    at any [jobs].  A shard that raises is reported on stderr with its
    device index and left out of the merge, so the report's [devices]
    falls short of [p.devices]. *)
let run ?(jobs = 1) ?(sink : Holes_engine.Sink.t option)
    ?(collector : Trace.t option) (p : params) : Report.t =
  (match validate p with Ok () -> () | Error e -> invalid_arg ("Fleet.Sim.run: " ^ e));
  let specs = specs p in
  let f (spec : Job.spec) ~(seed : int) : Report.partial =
    let view =
      match collector with
      | None -> Trace.null
      | Some c -> Trace.view c ~pid:(1 + (seed land 0x3FFFFFFF))
    in
    run_device p ~device_index:spec.Job.seed_index ~seed ~view
  in
  let trials =
    Engine.run ~jobs ?sink ~metrics:Report.partial_fields
      ~outcome_label:(fun (part : Report.partial) ->
        if part.Report.dead_tenants > 0 then "degraded" else "ok")
      ~f specs
  in
  let parts =
    Array.to_list trials
    |> List.filter_map (fun (t : Report.partial Engine.trial) ->
           match t.Engine.outcome with
           | EPool.Done part -> Some part
           | EPool.Failed { exn; _ } ->
               Printf.eprintf "fleet: device shard %d raised %s\n%!" t.Engine.spec.Job.seed_index
                 exn;
               None)
  in
  Report.merge ~duration_ms:p.duration_ms ~tenants:p.tenants parts
