(** Hybrid DRAM/PCM tiering (DESIGN.md §17): what a small DRAM tier in
    front of the aging module buys, measured end to end on the device
    backend.

    The grid is {none, migrate, caram, migrate+caram} × DRAM
    provisioning {8, 32 frames}, at the same operating point as the
    wear-leveling ablation (S-IX L256, endurance 12, 10% boot failures,
    hardware clustering on) so the rows compose with that table.  Three
    signals per policy:

    - {b absorption} — the fraction of charged line writes that never
      wore a PCM cell: landed in a promoted DRAM frame
      ([hyb_dram_writes]), deduplicated against an identical resident
      line ([hyb_dedup_hits]), or compressed to a pattern binding
      ([hyb_compressed]);
    - {b write extension} — the modeled endurance stretch
      [1 / (1 - absorption)]: how much longer the module's write budget
      lasts when that traffic is absorbed (MigrantStore and CARAM both
      report in this currency);
    - {b lifetime rounds} — workload rounds survived before the device
      can no longer back the heap, the same end-of-life measure as the
      wear tables ([>=] marks the quick-mode round cap).

    The expected direction (and the CI gate on the streamed rows):
    migration alone absorbs the write-hot pages, caram alone absorbs
    the redundant content, and migrate+caram compounds — its absorption
    must clear 30% in this scenario. *)

module Cfg = Holes.Config
module Hybrid = Holes_pcm.Hybrid

(* small epoch: at figure scale a workload round charges ~10^5 writes,
   so promotion/demotion must turn over well within one round *)
let migrate_epoch = 512
let caram_ways = 8

let policies : (string * Hybrid.policy) list =
  [
    ("none", Hybrid.none);
    ("migrate", { Hybrid.migrate_epoch = Some migrate_epoch; caram_ways = None });
    ("caram", { Hybrid.migrate_epoch = None; caram_ways = Some caram_ways });
    ( "migrate+caram",
      { Hybrid.migrate_epoch = Some migrate_epoch; caram_ways = Some caram_ways } );
  ]

let dram_levels : int list = [ 8; 32 ]

let cell_cfg ~(hybrid : Hybrid.policy) ~(dram_pages : int) : Cfg.t =
  {
    Wear_policies.aging_cfg with
    Cfg.backend = Cfg.Device { Wear_policies.aging_device with Cfg.dram_pages };
    hybrid;
  }

(* {!Hybrid.absorption} of a cell's synced metrics *)
let absorption (m : Holes.Metrics.t) : float =
  Hybrid.absorption ~device_writes:m.Holes.Metrics.device_writes
    ~dram_writes:m.Holes.Metrics.hyb_dram_writes ~dedup_hits:m.Holes.Metrics.hyb_dedup_hits
    ~compressed:m.Holes.Metrics.hyb_compressed

(** One row per policy: lifetime rounds at each provisioning level,
    then absorption and the write-extension factor at the provisioned
    (32-frame) level. *)
let table ?(params = Runner.quick) () : Holes_stdx.Table.t =
  let t =
    Holes_stdx.Table.create
      ~title:
        "Hybrid DRAM/PCM tiering — write traffic absorbed and lifetime vs DRAM provisioning \
         (S-IX L256, device backend, clustering on, low endurance)"
      ~headers:[ "policy"; "8 frames"; "32 frames"; "absorbed"; "write ext"; "promotes" ]
      ~aligns:
        [
          Holes_stdx.Table.Left; Holes_stdx.Table.Right; Holes_stdx.Table.Right;
          Holes_stdx.Table.Right; Holes_stdx.Table.Right; Holes_stdx.Table.Right;
        ]
      ()
  in
  let max_rounds = if Runner.is_full params then 40 else 8 in
  let cells =
    Wear_policies.run_cells ~params
      (* fixed scale, like the wearlevel table: the wear operating point
         must match between quick and full runs *)
      ~scale:0.125 ~max_rounds
      ~fields:(fun (o : Wear_policies.outcome) ->
        [
          ("dram_pages", float_of_int o.Wear_policies.dram_pages);
          ("rounds", float_of_int o.Wear_policies.rounds);
          ("round_ms", o.Wear_policies.elapsed_ms);
          ("dead_lines", float_of_int o.Wear_policies.dead_lines);
          ("hyb_absorption", absorption o.Wear_policies.m);
        ])
      (List.concat_map
         (fun (_, hybrid) -> List.map (fun dram_pages -> cell_cfg ~hybrid ~dram_pages) dram_levels)
         policies)
  in
  let nlevels = List.length dram_levels in
  List.iteri
    (fun pi (pname, _) ->
      let fmt_rounds li =
        match cells.((pi * nlevels) + li) with
        | Ok o when o.Wear_policies.rounds >= max_rounds ->
            Printf.sprintf ">=%d rd" o.Wear_policies.rounds
        | Ok o -> Printf.sprintf "%d rd" o.Wear_policies.rounds
        | Error _ -> "DNF"
      in
      (* absorption / extension / promotion activity at the provisioned
         (last) DRAM level *)
      let abs_s, ext_s, promotes_s =
        match cells.((pi * nlevels) + nlevels - 1) with
        | Ok o ->
            let a = absorption o.Wear_policies.m in
            ( Printf.sprintf "%.1f%%" (100.0 *. a),
              (if a < 1.0 then Printf.sprintf "%.2fx" (1.0 /. (1.0 -. a)) else "inf"),
              string_of_int o.Wear_policies.m.Holes.Metrics.hyb_promotes )
        | Error _ -> ("-", "-", "-")
      in
      Holes_stdx.Table.add_row t
        [ pname; fmt_rounds 0; fmt_rounds 1; abs_s; ext_s; promotes_s ])
    policies;
  t
