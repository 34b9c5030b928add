(* Address-translation tests: the device's wear leveler
   (lib/pcm/wear_level.ml) composed above its clustering maps
   (lib/pcm/redirect.ml) by lib/pcm/device.ml.

   - wear-level policy CLI round-trips and rejections;
   - the composed logical->physical map stays a bijection under seeded
     write churn with live failures, for every leveling policy;
   - the leveling experiment cells are bit-identical at -j 1 and -j 4
     (engine determinism through the leveler) and match the committed
     golden test/golden/wearlevel.jsonl, whose rows must keep wearing
     lines out and, when leveled, keep moving data;
   - the paranoid verifier catches a corrupted leveling map
     ([Wear_level.unsafe_poke]);
   - the live start-gap leveler reproduces the uniform-scatter failure
     pattern of the retired synthetic model
     ([Wear_ablation.wear_map ~leveled:true]) under hot-spot traffic,
     while the unleveled device concentrates failures in the hot set.

   To regenerate the wear-level golden after an intentional results
   change (see [Test_hotpath.check_golden]):

     HOLES_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- test translate *)

open Alcotest
module Pcm = Holes_pcm
module Wl = Pcm.Wear_level
module Cfg = Holes.Config
module Vm = Holes.Vm
module W = Holes_exp.Wear_policies

(* ---- CLI ------------------------------------------------------------- *)

let test_cli_roundtrip () =
  List.iter
    (fun p ->
      match Wl.of_cli (Wl.to_cli p) with
      | Ok p' -> check bool (Wl.to_cli p) true (p = p')
      | Error e -> fail e)
    [
      None;
      Some (Wl.Start_gap { psi = 100 });
      Some (Wl.Random_remap { psi = 7 });
      Some (Wl.Decoder_swap { psi = 250 });
    ];
  (match Wl.of_cli "STARTGAP" with
  | Ok (Some (Wl.Start_gap { psi })) -> check int "default psi" Wl.default_psi psi
  | _ -> fail "case-insensitive startgap with default psi");
  check string "short names" "none,sg100,rr7,ds250"
    (String.concat ","
       (List.map Wl.short_name
          [
            None;
            Some (Wl.Start_gap { psi = 100 });
            Some (Wl.Random_remap { psi = 7 });
            Some (Wl.Decoder_swap { psi = 250 });
          ]))

let test_cli_rejects () =
  List.iter
    (fun s ->
      match Wl.of_cli s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S should not parse" s))
    [ "bogus"; "startgap:0"; "startgap:-3"; "random:x"; "decoder:1:2"; "none:5" ]

(* ---- permutation under churn ------------------------------------------ *)

(* Hammer a clustered, low-endurance device with random writes (draining
   each failure like the OS would) and assert the composed translation is
   still a bijection every 512 writes.  Exercises gap moves, remaps,
   redirect swaps and frozen pairs together. *)
let churn_policy (policy : Wl.policy) () =
  let config =
    {
      Pcm.Device.default_config with
      Pcm.Device.pages = 16;
      wear = { Pcm.Wear.fast_params with Pcm.Wear.mean_endurance = 12.0 };
      wear_level = Some policy;
    }
  in
  let dev = Pcm.Device.create ~config ~seed:42 () in
  Pcm.Device.on_line_failed dev (fun ~addr ~unusable:_ ->
      ignore (Pcm.Device.drain_failure dev addr));
  let nlines = Pcm.Device.nlines dev in
  let payload = Bytes.make Pcm.Geometry.line_bytes 'c' in
  let rng = Holes_stdx.Xrng.of_seed 7 in
  for i = 1 to 16384 do
    let l = Holes_stdx.Xrng.int rng nlines in
    if Pcm.Device.line_usable dev l then ignore (Pcm.Device.write dev l payload);
    if i mod 512 = 0 then
      match Pcm.Device.check_translation dev with
      | Ok () -> ()
      | Error e -> fail (Printf.sprintf "after %d writes: %s" i e)
  done;
  let s = Pcm.Device.stats dev in
  check bool "wear failures occurred" true (s.Pcm.Device.failures > 0);
  match Pcm.Device.leveler dev with
  | None -> fail "no wear leveler installed"
  | Some w -> (
      check bool "leveler active" true (Wl.gap_moves w + Wl.remaps w > 0);
      (* wear-outs swallow the gap during this churn; the device must
         reserve a new one each time *)
      match policy with
      | Wl.Start_gap _ -> check bool "start-gap still owns a gap" true (Wl.gap_owner w >= 0)
      | Wl.Random_remap _ | Wl.Decoder_swap _ -> ())

(* ---- engine determinism and the wear-level golden -------------------- *)

(* Run one pmd cell (scale 0.04) per config through
   [Wear_policies.run_cells] at [jobs] workers.  Returns the exact
   ([%h]) outcome strings in cell order, and the sorted sink records,
   whose metrics are [fields] of each outcome. *)
let lifetime_runs ~(jobs : int) ~(max_rounds : int) ~(fields : W.outcome -> (string * float) list)
    (cfgs : Cfg.t list) : string list * string list =
  let cells, records =
    Test_hotpath.with_temp_sink (fun sink ->
        W.run_cells
          ~params:{ Holes_exp.Runner.quick with jobs; sink = Some sink }
          ~scale:0.04 ~max_rounds ~fields cfgs)
  in
  ( Array.to_list cells
    |> List.map (function
         | Ok (o : W.outcome) ->
             Printf.sprintf "%d|%d|%d|%.6f|%s" o.W.rounds o.W.dead_lines o.W.dead_runs
               o.W.elapsed_ms
               (String.concat ";"
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s=%h" k v)
                     (Holes.Metrics.to_fields o.W.m)))
         | Error exn -> "failed: " ^ exn),
    records )

(* One experiment cell per policy (uniform boot failures, device
   backend, 2-page clustering), run at -j 1 and -j 4 for six rounds:
   enough for every cell to wear lines out, so failures walk the
   clustering maps and, in the leveled cells, the leveler above them.
   The serialized outcome and the sink records must be bit-identical
   across -j, and the records must match the committed golden
   test/golden/wearlevel.jsonl. *)
let test_engine_determinism () =
  let runs ~jobs =
    lifetime_runs ~jobs ~max_rounds:6
      ~fields:(fun (o : W.outcome) ->
        ("rounds", float_of_int o.W.rounds)
        :: ("dead_lines", float_of_int o.W.dead_lines)
        :: ("dead_runs", float_of_int o.W.dead_runs)
        :: ("elapsed_ms", o.W.elapsed_ms)
        :: Holes.Metrics.to_fields o.W.m)
      (List.map (fun (_, policy) -> W.cell_cfg ~model:Cfg.From_dist ~policy) W.policies)
  in
  let exact1, j1 = runs ~jobs:1 in
  let exact4, j4 = runs ~jobs:4 in
  check (list string) "-j 4 bit-identical to -j 1" exact1 exact4;
  check (list string) "-j 4 sink records identical to -j 1" j1 j4;
  (* every row wears lines out, and every leveled row keeps moving
     data, so the golden cannot silently turn into a no-op *)
  check int "one record per policy" (List.length W.policies) (List.length j1);
  List.iter
    (fun l ->
      let c = Test_collect.config l in
      check bool (c ^ ": device_line_failures > 0") true
        (Test_collect.field l "device_line_failures" > 0.0);
      if Test_collect.contains c "-wl" then
        check bool (c ^ ": wl_gap_moves + wl_remaps > 0") true
          (Test_collect.field l "wl_gap_moves" +. Test_collect.field l "wl_remaps" > 0.0))
    j1;
  Test_hotpath.check_golden "wearlevel.jsonl" j1

(* ---- verifier mutation ------------------------------------------------ *)

(* Corrupt the live leveling permutation underneath a running VM: the
   per-phase translation-consistency check must report it. *)
let test_verifier_catches_poke () =
  let d = Cfg.default_device in
  let cfg =
    {
      Cfg.default with
      Cfg.collector = Cfg.Sticky_immix;
      backend = Cfg.Device d;
      failure_rate = 0.0;
      wear_level = Some (Wl.Start_gap { psi = 1000 });
    }
  in
  let vm = Vm.create ~cfg ~min_heap_bytes:(256 * 1024) () in
  for _ = 1 to 64 do
    ignore (Vm.alloc vm ~size:64 ())
  done;
  let r = Vm.verify vm in
  check (list string) "clean before the poke" [] r.Holes.Verify.errors;
  let st = Option.get (Vm.device_state vm) in
  let w = Option.get (Pcm.Device.leveler st.Holes.Memory_backend.device) in
  (* map two logical lines onto one slot: no longer a permutation *)
  Wl.unsafe_poke w ~logical:3 ~slot:(Wl.translate w 4);
  let r = Vm.verify vm in
  check bool "verifier reports the corrupted translation" true
    (r.Holes.Verify.errors <> [])

(* ---- live start-gap vs the synthetic leveled wear map ----------------- *)

(* Drive an unclustered, low-endurance device with hot-spot traffic (90%
   of writes to the first quarter of the lines) until 20% of the device
   has failed, and record where the failed *cells* are — the slot domain
   below the leveler, which is what the synthetic wear model predicts.
   The device is small and psi is 1 so the start-gap rotation cycles the
   whole mapping several times within the device lifetime (as the real
   technique does over its much longer timescale): each cell spends time
   under hot and cold logical lines alike, wear equalizes, and the dying
   cells scatter uniformly.  Without leveling the mapping is pinned and
   only the hot cells die. *)
let live_failure_map ~(policy : Wl.policy option) : Holes_stdx.Bitset.t * int =
  let config =
    {
      Pcm.Device.default_config with
      Pcm.Device.pages = 2;
      clustering = None;
      wear = { Pcm.Wear.fast_params with Pcm.Wear.mean_endurance = 400.0 };
      wear_level = policy;
    }
  in
  let dev = Pcm.Device.create ~config ~seed:11 () in
  let nlines = Pcm.Device.nlines dev in
  let failures = Holes_stdx.Bitset.create nlines in
  let nfail = ref 0 in
  Pcm.Device.on_line_failed dev (fun ~addr ~unusable:_ ->
      (* [addr] is the logical line whose write died; the frozen pair
         pins it to its slot, so translating it now names the dead cell.
         Leveling re-reservations only ride along in [unusable]. *)
      let cell = Pcm.Device.physical_of_logical dev addr in
      if not (Holes_stdx.Bitset.get failures cell) then begin
        Holes_stdx.Bitset.set failures cell;
        incr nfail
      end;
      ignore (Pcm.Device.drain_failure dev addr));
  let payload = Bytes.make Pcm.Geometry.line_bytes 'h' in
  let rng = Holes_stdx.Xrng.of_seed 23 in
  let hot = nlines / 4 in
  let target = nlines / 5 in
  let writes = ref 0 in
  while !nfail < target && !writes < 2_000_000 do
    incr writes;
    let l =
      if Holes_stdx.Xrng.int rng 10 < 9 then Holes_stdx.Xrng.int rng hot
      else Holes_stdx.Xrng.int rng nlines
    in
    if Pcm.Device.line_usable dev l then ignore (Pcm.Device.write dev l payload)
  done;
  check int "reached the target failure count" target !nfail;
  (failures, hot)

let test_startgap_scatters_like_synthetic () =
  let frac_outside_hot (map, hot) =
    let inside = ref 0 and total = ref 0 in
    Holes_stdx.Bitset.iter_set map (fun l ->
        incr total;
        if l < hot then incr inside);
    float_of_int (!total - !inside) /. float_of_int !total
  in
  let unleveled = live_failure_map ~policy:None in
  let leveled = live_failure_map ~policy:(Some (Wl.Start_gap { psi = 1 })) in
  (* without leveling, hot-spot traffic concentrates the deaths *)
  check bool "unleveled failures stay in the hot set" true
    (frac_outside_hot unleveled < 0.25);
  (* start-gap spreads the same wear budget across the whole device *)
  check bool "start-gap scatters failures device-wide" true
    (frac_outside_hot leveled > 0.45);
  (* dispersion statistically matches the synthetic leveled map at the
     same rate: mean contiguous failed-run length within 2.5x *)
  let synthetic =
    Holes_exp.Wear_ablation.wear_map
      (Holes_stdx.Xrng.of_seed 2718)
      ~nlines:(Holes_stdx.Bitset.length (fst leveled))
      ~rate:0.20 ~leveled:true
  in
  let live_run = Holes_exp.Wear_ablation.mean_failed_run (fst leveled) in
  let synth_run = Holes_exp.Wear_ablation.mean_failed_run synthetic in
  let ratio = live_run /. synth_run in
  check bool
    (Printf.sprintf "failed-run dispersion matches (live %.2f vs synthetic %.2f)" live_run
       synth_run)
    true
    (ratio > 0.4 && ratio < 2.5);
  (* and the unleveled live map is the more clustered of the two *)
  check bool "leveling reduces clustering" true
    (Holes_exp.Wear_ablation.mean_failed_run (fst unleveled) >= live_run)

let suite =
  [
    ("wear-level CLI round-trips", `Quick, test_cli_roundtrip);
    ("wear-level CLI rejects malformed specs", `Quick, test_cli_rejects);
    ("pipeline stays a bijection under churn (start-gap)", `Quick,
      churn_policy (Wl.Start_gap { psi = 32 }));
    ("pipeline stays a bijection under churn (random remap)", `Quick,
      churn_policy (Wl.Random_remap { psi = 32 }));
    ("pipeline stays a bijection under churn (decoder swap)", `Quick,
      churn_policy (Wl.Decoder_swap { psi = 32 }));
    ("leveling experiment cells bit-identical at -j 1 / -j 4", `Slow,
      test_engine_determinism);
    ("verifier catches a corrupted leveling map", `Quick, test_verifier_catches_poke);
    ("live start-gap matches the synthetic leveled wear map", `Slow,
      test_startgap_scatters_like_synthetic);
  ]
