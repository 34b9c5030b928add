(* fleet-run: the fleet-scale serving simulator — N tenant VMs
   multiplexed over a shared pool of aging PCM devices, with
   request-level tail-latency reporting.

     dune exec bin/fleet_run.exe -- --tenants 8 --devices 2 --arrival poisson:200
     dune exec bin/fleet_run.exe -- --tenants 1000 --devices 64 \
       --arrival poisson:150 --duration 1000 -j 8
     dune exec bin/fleet_run.exe -- --arrival mmpp:150:8:50 --endurance 300 \
       --storm-every 100 --wear-level startgap:64 --trace fleet.json

   One engine job per device shard; any -j yields a bit-identical
   report.  --out streams one JSONL record per device; --trace writes a
   Chrome trace with one synthetic process per device and a thread lane
   per tenant (virtual timestamps).

   Exit status: 0 on a clean run; 2 when a tenant slot ran out of
   replacements (tenants aged off the fleet); 3 when a device shard
   raised — its index and exception go to stderr and the report covers
   the remaining devices only. *)

open Cmdliner
module Fleet_sim = Holes_fleet.Sim
module Arrivals = Holes_fleet.Arrivals
module Report = Holes_fleet.Report

let run tenants devices arrival duration jobs endurance wear_level wear_aware hybrid
    dram_pages gc_increment req_bytes session_bytes live_kb rate heap storm_every storm_writes
    slo epochs max_replacements seed out trace epoch_table =
  let arrival =
    match Arrivals.of_cli arrival with
    | Ok a -> a
    | Error m -> failwith (Printf.sprintf "bad --arrival: %s" m)
  in
  let wear_level =
    match Holes_pcm.Translate.of_cli wear_level with
    | Ok p -> p
    | Error m -> failwith (Printf.sprintf "bad --wear-level %S: %s" wear_level m)
  in
  let hybrid =
    match Holes_pcm.Hybrid.of_cli hybrid with
    | Ok p -> p
    | Error m -> failwith (Printf.sprintf "bad --hybrid %S: %s" hybrid m)
  in
  let d = Holes.Config.default_device in
  let wear =
    match endurance with
    | None -> d.Holes.Config.wear
    | Some e -> { d.Holes.Config.wear with Holes_pcm.Wear.mean_endurance = e }
  in
  (* per-tenant baseline: Pool.create scales this by the slot count when
     migration is on, so the flag provisions frames per tenant, not per
     device *)
  let dram_pages =
    match dram_pages with None -> d.Holes.Config.dram_pages | Some n -> n
  in
  let cfg =
    {
      Fleet_sim.default.Fleet_sim.cfg with
      Holes.Config.backend =
        Holes.Config.Device
          { d with Holes.Config.wear; wear_aware_pools = wear_aware; dram_pages };
      wear_level;
      gc_slice = gc_increment;
      hybrid;
      failure_rate = rate;
      heap_factor = heap;
      seed;
    }
  in
  let tenant =
    let t = Fleet_sim.default.Fleet_sim.tenant in
    let profile =
      match live_kb with
      | None -> t.Holes_fleet.Tenant.profile
      | Some kb ->
          Holes_workload.Profile.make ~name:(Printf.sprintf "serving%dk" kb)
            ~description:"serving tenant with a scaled live set" ~live_kb:kb ~immortal_kb:8
            ~volume_mb:1 ()
    in
    {
      t with
      Holes_fleet.Tenant.profile;
      req_bytes = Option.value req_bytes ~default:t.Holes_fleet.Tenant.req_bytes;
      session_bytes =
        Option.value session_bytes ~default:t.Holes_fleet.Tenant.session_bytes;
    }
  in
  let params =
    {
      Fleet_sim.tenants;
      devices;
      arrival;
      duration_ms = duration;
      slo_ms = slo;
      epochs;
      storm_every_ms = storm_every;
      storm_writes;
      max_replacements;
      tenant;
      cfg;
    }
  in
  (match Fleet_sim.validate params with
  | Ok () -> ()
  | Error m -> failwith (Printf.sprintf "invalid fleet parameters: %s" m));
  let sink = Option.map (fun path -> Holes_engine.Sink.create ~path ()) out in
  let collector = Option.map (fun _ -> Holes_obs.Trace.create ()) trace in
  let report =
    Fun.protect
      ~finally:(fun () ->
        (match (collector, trace) with
        | Some c, Some path -> Holes_obs.Trace.write c path
        | _ -> ());
        match sink with Some s -> Holes_engine.Sink.close s | None -> ())
      (fun () -> Fleet_sim.run ~jobs ?sink ?collector params)
  in
  Format.printf "%a@." Report.pp report;
  if epoch_table then begin
    Format.printf "@.age-epoch latency (completion-time split):@.";
    Array.iteri
      (fun i h ->
        Format.printf "  epoch %d: n=%-8d p50 %8.3f ms  p99 %8.3f ms  p999 %8.3f ms@." i
          (Holes_obs.Stats.count h)
          (Holes_obs.Stats.quantile h 0.50 /. 1e6)
          (Holes_obs.Stats.quantile h 0.99 /. 1e6)
          (Holes_obs.Stats.quantile h 0.999 /. 1e6))
      report.Report.epoch
  end;
  (match trace with
  | Some path -> Printf.printf "trace: %s\n" path
  | None -> ());
  if report.Report.devices < devices then 3
  else if report.Report.dead_tenants > 0 then 2
  else 0

let cmd =
  let tenants =
    Arg.(value & opt int 8 & info [ "tenants"; "t" ] ~docv:"N" ~doc:"Tenant VMs in the fleet.")
  in
  let devices =
    Arg.(value & opt int 2
         & info [ "devices"; "d" ] ~docv:"N"
             ~doc:"Pooled PCM devices; tenants are spread round-robin and each device is one \
                   deterministic shard.")
  in
  let arrival =
    Arg.(value & opt string "poisson:200"
         & info [ "arrival"; "a" ] ~docv:"SPEC"
             ~doc:"Per-tenant open-loop arrival process: poisson:RATE or \
                   mmpp:RATE:BURST:DWELL_MS (rates in req/s).")
  in
  let duration =
    Arg.(value & opt float 1000.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Arrival window in virtual milliseconds.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains (device shards in parallel); the report is bit-identical \
                   at any value.")
  in
  let endurance =
    Arg.(value & opt (some float) None
         & info [ "endurance" ] ~docv:"N"
             ~doc:"Mean per-line write endurance (lognormal); lower ages the fleet faster.")
  in
  let wear_level =
    Arg.(value & opt string "none"
         & info [ "wear-level" ] ~docv:"W"
             ~doc:"Device wear-leveling stage: none, startgap[:PSI], random[:PSI] or \
                   decoder[:PSI].")
  in
  let wear_aware =
    Arg.(value & flag
         & info [ "wear-aware-pools" ]
             ~doc:"OS page-allocator leveling: grant the least-worn free perfect page \
                   instead of the free-list head.")
  in
  let hybrid =
    Arg.(value & opt string "none"
         & info [ "hybrid" ] ~docv:"H"
             ~doc:"DRAM/PCM tiering policy per device: none, migrate[:EPOCH], caram[:WAYS], \
                   or migrate[:EPOCH]+caram[:WAYS].  With migration on, the node's DRAM is \
                   provisioned per tenant (--dram-pages × slots).")
  in
  let dram_pages =
    Arg.(value & opt (some int) None
         & info [ "dram-pages" ] ~docv:"N"
             ~doc:"DRAM frames per tenant in front of each device's PCM namespace (default \
                   16).")
  in
  let gc_increment =
    Arg.(value & opt int 0
         & info [ "gc-increment" ] ~docv:"BUDGET"
             ~doc:"Incremental-collection work budget per tenant GC slice (objects per mark \
                   slice; 0 = stop-the-world).  The fleet report then carries per-device GC \
                   pause p99/max fields.")
  in
  let req_bytes =
    Arg.(value & opt (some int) None
         & info [ "req-bytes" ] ~docv:"N" ~doc:"Mean bytes allocated per request.")
  in
  let session_bytes =
    Arg.(value & opt (some int) None
         & info [ "session-bytes" ] ~docv:"N"
             ~doc:"Session state allocated at session start (the tenant's retained live \
                   set; stop-the-world mark pauses scale with it).")
  in
  let live_kb =
    Arg.(value & opt (some int) None
         & info [ "live-kb" ] ~docv:"KB"
             ~doc:"Tenant live-set budget in KB (sizes the tenant heap; stop-the-world \
                   pauses scale with it).")
  in
  let rate =
    Arg.(value & opt float 0.0
         & info [ "rate"; "r" ] ~docv:"F" ~doc:"Boot-time PCM line failure rate in [0,0.95].")
  in
  let heap =
    Arg.(value & opt float 2.0
         & info [ "heap" ] ~docv:"X" ~doc:"Tenant heap as a multiple of the profile minimum.")
  in
  let storm_every =
    Arg.(value & opt float 0.0
         & info [ "storm-every" ] ~docv:"MS"
             ~doc:"Inject a failure storm on every device each MS virtual milliseconds (0 \
                   disables).")
  in
  let storm_writes =
    Arg.(value & opt int 4096
         & info [ "storm-writes" ] ~docv:"N" ~doc:"Junk line-stores per failure storm.")
  in
  let slo =
    Arg.(value & opt float 10.0
         & info [ "slo" ] ~docv:"MS" ~doc:"Goodput latency threshold in milliseconds.")
  in
  let epochs =
    Arg.(value & opt int 4
         & info [ "epochs" ] ~docv:"N" ~doc:"Age epochs for the per-epoch latency split.")
  in
  let max_replacements =
    Arg.(value & opt int 3
         & info [ "max-replacements" ] ~docv:"N"
             ~doc:"Evictions a tenant survives before its slot goes permanently dead.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Stream one JSONL record per device shard to FILE.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON (one synthetic process per device, one \
                   thread lane per tenant; virtual timestamps).")
  in
  let epoch_table =
    Arg.(value & flag & info [ "epoch-table" ] ~doc:"Print the per-epoch latency table.")
  in
  let doc = "simulate a serving fleet of tenant VMs over shared aging PCM devices" in
  let exits =
    Cmd.Exit.info 2 ~doc:"when a tenant slot ran out of replacements (dead tenants)."
    :: Cmd.Exit.info 3 ~doc:"when a device shard raised (reported on stderr)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "fleet-run" ~doc ~exits)
    Term.(
      const run $ tenants $ devices $ arrival $ duration $ jobs $ endurance $ wear_level
      $ wear_aware $ hybrid $ dram_pages $ gc_increment $ req_bytes $ session_bytes
      $ live_kb $ rate $ heap $ storm_every $ storm_writes $ slo $ epochs
      $ max_replacements $ seed $ out $ trace $ epoch_table)

let () = exit (Cmd.eval' cmd)
