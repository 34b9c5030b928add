(** Wear-lifetime experiment (device backend).

    The paper's central premise is that memories wear out gradually and
    the runtime should keep executing as holes appear (Secs. 1–3).  This
    experiment exercises that end to end on the device backend: one VM
    runs the same workload round after round on the *same* worn device,
    every heap line store charged through [Device.write].  Lines fail as
    their lognormal endurance budgets exhaust; each failure travels the
    device → failure buffer → interrupt → VMM up-call chain and is
    retired by the runtime.  The measure is how many rounds the heap
    survives before the live set no longer fits the remaining good
    lines, as a function of mean line endurance.

    Between rounds the whole live set is killed and a full collection
    runs, so survival reflects wear capacity loss rather than live-set
    leakage across rounds. *)

open Holes_stdx
module Cfg = Holes.Config

let device_cfg ~(endurance : float) : Cfg.t =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = endurance } in
  { Figures.base_six with Cfg.backend = Cfg.Device { d with Cfg.wear } }

(** Rounds survived and pipeline activity across a mean-endurance sweep:
    the lifetime the cooperative pipeline buys as endurance shrinks.
    Each endurance point is one engine job — the whole sweep shards
    across [params.jobs] domains, each point owning its device and VM
    outright.  A point's result depends only on its config, so the table
    is identical at any [-j]. *)
let table ?(params = Runner.quick) () : Table.t =
  let t =
    Table.create
      ~title:
        "Wear lifetime - workload rounds survived on one worn device (S-IX L256, device \
         backend)"
      ~headers:[ "mean endurance"; "rounds"; "device writes"; "wear failures"; "up-calls" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] ()
  in
  let profile = Holes_workload.Dacapo.pmd in
  let max_rounds = if Runner.is_full params then 12 else 6 in
  let endurances = [ 200.0; 50.0; 20.0; 10.0; 5.0 ] in
  let specs =
    Array.of_list
      (List.map
         (fun endurance ->
           {
             Holes_engine.Job.cfg = device_cfg ~endurance;
             profile;
             scale = params.Runner.scale /. 2.0;
             seed_index = 0;
           })
         endurances)
  in
  let results =
    Holes_engine.Engine.run ~jobs:params.Runner.jobs
      ?sink:(Runner.current_sink ())
      ~metrics:(fun (o : Wear_policies.outcome) ->
        [
          ("rounds", float_of_int o.rounds);
          ("device_writes", float_of_int o.m.Holes.Metrics.device_writes);
          ("device_line_failures", float_of_int o.m.Holes.Metrics.device_line_failures);
          ("os_upcalls", float_of_int o.m.Holes.Metrics.os_upcalls);
        ])
      ~f:(fun spec ~seed:_ ->
        (* wear-out is a property of the aging device, not of trial
           noise: the round RNG derives from cfg.seed so the point is a
           pure function of its spec *)
        Wear_policies.lifetime_run ~cfg:spec.Holes_engine.Job.cfg
          ~profile:spec.Holes_engine.Job.profile ~scale:spec.Holes_engine.Job.scale ~max_rounds)
      specs
  in
  List.iteri
    (fun i endurance ->
      match results.(i).Holes_engine.Engine.outcome with
      | Holes_engine.Pool.Done { Wear_policies.rounds; m; _ } ->
          Table.add_row t
            [
              Printf.sprintf "%.0f" endurance;
              (if rounds >= max_rounds then Printf.sprintf ">=%d" rounds
               else string_of_int rounds);
              string_of_int m.Holes.Metrics.device_writes;
              string_of_int m.Holes.Metrics.device_line_failures;
              string_of_int m.Holes.Metrics.os_upcalls;
            ]
      | Holes_engine.Pool.Failed { exn; _ } ->
          Table.add_row t [ Printf.sprintf "%.0f" endurance; "error: " ^ exn; "-"; "-"; "-" ])
    endurances;
  t
