(* The fleet-aging workload: an open-loop serving fleet on the virtual
   clock.  Tenants sit two to a device (the aging ratio of the repository's
   fleet figure), requests arrive by a bursty MMPP process, failure storms
   age the devices, and the tenants collect incrementally.  Its inputs are
   the simulation parameters and the seed; arrivals are generated inside
   Holes_fleet.Sim.

   Timed passes run the device shards one after the other on this
   domain, each timed on the CPU clock and brought to the reference
   speed by the Speed samples on either side of it.
   With two domains on a 2-CPU host, every minor collection is a barrier
   across both, so any stall of one CPU stalls the other: same-seed
   throughput spread 12% and peak RSS 9% between runs, against a few
   percent and 0.3% on one domain.  The traced passes run the engine on
   [traced_jobs] domains, which is where its sharding, imbalance and
   merge are measured.  Every pass must reproduce the report of
   Sim.run bit for bit. *)

module Sim = Holes_fleet.Sim
module Report = Holes_fleet.Report
module Pool = Holes_fleet.Pool
module Job = Holes_engine.Job
module Engine = Holes_engine.Engine
module Stats = Holes_obs.Stats

let traced_jobs = 2

let params (size : Batch.size) ~(seed : int) : Sim.params =
  let d = Holes.Config.default_device in
  let wear = { d.Holes.Config.wear with Holes_pcm.Wear.mean_endurance = 40.0 } in
  let cfg =
    {
      Sim.default.Sim.cfg with
      Holes.Config.backend = Holes.Config.Device { d with Holes.Config.wear };
      gc_slice = 256;
      seed = seed land 0x3FFFFFFF;
    }
  in
  let tenants, devices, duration_ms =
    match size with Batch.Full -> (32, 16, 600.0) | Batch.Smoke -> (4, 2, 100.0)
  in
  {
    Sim.default with
    Sim.tenants;
    devices;
    arrival = Holes_fleet.Arrivals.Mmpp { rate = 150.0; burst = 6.0; dwell_ms = 40.0 };
    duration_ms;
    storm_every_ms = 50.0;
    storm_writes = 16384;
    cfg;
  }

(* Set-up: bring up every device's node and place its tenants, as the
   shards do before serving (timed, then discarded). *)
let setup (p : Sim.params) : unit =
  Array.iter
    (fun (spec : Job.spec) ->
      ignore
        (Pool.create ~cfg:p.Sim.cfg ~tenant:p.Sim.tenant
           ~slots:(Sim.tenants_on p ~device_index:spec.Job.seed_index)
           ~max_replacements:p.Sim.max_replacements
           ~rng:(Holes_stdx.Xrng.of_seed (Job.seed spec))
           ()))
    (Sim.specs p)

(* Digest of the report's virtual outputs. *)
let digest (r : Report.t) : string =
  let b = Buffer.create 1024 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%h " k v) (Report.fields r);
  let hist (h : Stats.hist) = Array.iter (Printf.bprintf b "%d,") h.Stats.buckets in
  hist r.Report.latency;
  hist r.Report.gc_pause;
  Array.iter hist r.Report.epoch;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The fleet as Sim.run runs it, shard by shard: Engine.run over
   Sim.specs and Sim.run_device on [jobs] domains, each shard timed on
   its worker (wall and CPU clocks), then the merge timed on the main
   domain.  With [speed] (one job only), each shard's and the merge's
   CPU time are added to it, with a Speed sample after each.  Returns the
   report and the host-clock breakdown. *)
type shard = { device : int; worker : int; start_ns : int; host_s : float; cpu_s : float }

type sharded = {
  report : Report.t;
  shards : shard array;
  engine_start_ns : int;
  engine_s : float;
  merge_s : float;
  merge_cpu_s : float;
  drain_ms : float;  (** virtual time the slowest device needed past the arrival window *)
}

let run_sharded ?(speed : Speed.t option) ~(jobs : int) (p : Sim.params) : sharded =
  if speed <> None && jobs <> 1 then invalid_arg "Fleet_wl.run_sharded: speed samples need one job";
  let specs = Sim.specs p in
  let t0 = Clock.now_ns () in
  let trials =
    Engine.run ~jobs
      ~f:(fun (spec : Job.spec) ~seed ->
        let s0 = Clock.now_ns () and c0 = Clock.cpu_ns () in
        let part =
          Sim.run_device p ~device_index:spec.Job.seed_index ~seed ~view:Holes_obs.Trace.null
        in
        let ns = Clock.now_ns () - s0 and cpu_ns = Clock.cpu_ns () - c0 in
        Option.iter (fun sp -> Speed.add sp (float_of_int cpu_ns *. 1e-9)) speed;
        (part, s0, ns, cpu_ns))
      specs
  in
  let engine_s = Clock.seconds_since t0 in
  (* failed shards are left out of the merge, as Sim.run does;
     [missing_shards] counts them *)
  let done_ =
    List.filter_map
      (fun (tr : _ Engine.trial) ->
        match tr.Engine.outcome with
        | Holes_engine.Pool.Done (part, start_ns, ns, cpu_ns) ->
            Some
              ( part,
                { device = tr.Engine.spec.Job.seed_index; worker = tr.Engine.worker; start_ns;
                  host_s = float_of_int ns *. 1e-9; cpu_s = float_of_int cpu_ns *. 1e-9 } )
        | Holes_engine.Pool.Failed _ -> None)
      (Array.to_list trials)
  in
  let parts = List.map fst done_ in
  let c0 = Clock.cpu_ns () in
  let report, merge_s =
    Clock.timed (fun () -> Report.merge ~duration_ms:p.Sim.duration_ms ~tenants:p.Sim.tenants parts)
  in
  let merge_cpu_s = float_of_int (Clock.cpu_ns () - c0) *. 1e-9 in
  Option.iter (fun sp -> Speed.add sp merge_cpu_s) speed;
  {
    report;
    shards = Array.of_list (List.map snd done_);
    engine_start_ns = t0;
    engine_s;
    merge_s;
    merge_cpu_s;
    drain_ms =
      (List.fold_left (fun acc (part : Report.partial) -> max acc part.Report.end_ns) 0 parts |> float_of_int)
      /. 1e6
      -. p.Sim.duration_ms;
  }

(* CPU time of the shards and the merge. *)
let cpu_s (r : sharded) : float = Array.fold_left (fun acc s -> acc +. s.cpu_s) r.merge_cpu_s r.shards

(* Device shards whose job raised: the engine reports them as failed
   trials and the merge leaves them out, so the report is short of
   devices rather than wrong. *)
let missing_shards (p : Sim.params) (r : Report.t) : int = p.Sim.devices - r.Report.devices

(* Requests the fleet generated, and the ones that failed or were dropped. *)
let attempted (r : Report.t) : int = r.Report.completed + r.Report.failed + r.Report.dropped
let failed (r : Report.t) : int = r.Report.failed + r.Report.dropped
let epoch_p99_ms (r : Report.t) (i : int) : float = Stats.quantile ~interp:true r.Report.epoch.(i) 0.99 /. 1e6
