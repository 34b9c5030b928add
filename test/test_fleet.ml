(* lib/fleet: arrival-process statistics, event-loop determinism across
   -j, eviction versus the heap verifier, and a golden snapshot of the
   fleet grid's sink records.

   To regenerate the golden after an intentional results change:

     HOLES_UPDATE_GOLDEN_FLEET=test/golden/fleet.jsonl \
       dune runtest --force *)

open Holes_stdx
module Arrivals = Holes_fleet.Arrivals
module Tenant = Holes_fleet.Tenant
module Pool = Holes_fleet.Pool
module Sim = Holes_fleet.Sim
module Report = Holes_fleet.Report
module Sink = Holes_engine.Sink

let check = Alcotest.check

(* ---- arrival processes ---------------------------------------------- *)

(* empirical arrival rate over [n] sampled gaps, req/s *)
let sampled_rate (proc : Arrivals.process) ~(seed : int) ~(n : int) : float =
  let a = Arrivals.make proc (Xrng.of_seed seed) in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Arrivals.next_gap_ns a
  done;
  float_of_int n /. (!total /. 1e9)

let test_arrival_stats () =
  (* Poisson: empirical rate matches the parameter *)
  let poisson = Arrivals.Poisson { rate = 500.0 } in
  let r = sampled_rate poisson ~seed:11 ~n:40_000 in
  if Float.abs (r -. 500.0) > 15.0 then
    Alcotest.failf "poisson rate %.1f not within 3%% of 500" r;
  (* MMPP: empirical rate matches the analytic time-averaged rate, and
     is strictly above calm and below burst *)
  let mmpp = Arrivals.Mmpp { rate = 200.0; burst = 5.0; dwell_ms = 20.0 } in
  let want = Arrivals.mean_rate mmpp in
  let r = sampled_rate mmpp ~seed:12 ~n:120_000 in
  if Float.abs (r -. want) /. want > 0.05 then
    Alcotest.failf "mmpp rate %.1f not within 5%% of analytic %.1f" r want;
  if not (r > 200.0 && r < 1000.0) then
    Alcotest.failf "mmpp rate %.1f outside (calm, burst) band" r;
  (* the same seed replays the same schedule *)
  let gaps seed =
    let a = Arrivals.make mmpp (Xrng.of_seed seed) in
    List.init 100 (fun _ -> Arrivals.next_gap_ns a)
  in
  check Alcotest.(list (float 0.0)) "same seed, same schedule" (gaps 7) (gaps 7)

let test_arrival_cli () =
  List.iter
    (fun p ->
      match Arrivals.of_cli (Arrivals.to_cli p) with
      | Ok p' -> check Alcotest.bool "cli round-trip" true (p = p')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [
      Arrivals.Poisson { rate = 123.5 };
      Arrivals.Mmpp { rate = 150.0; burst = 6.0; dwell_ms = 40.0 };
    ];
  (match Arrivals.of_cli "250" with
  | Ok (Arrivals.Poisson { rate }) -> check (Alcotest.float 0.0) "bare number" 250.0 rate
  | _ -> Alcotest.fail "bare number should parse as Poisson");
  List.iter
    (fun bad ->
      match Arrivals.of_cli bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "poisson:-5"; "mmpp:100:0.5:20"; "mmpp:100:2:0"; "nonsense"; "mmpp:100" ]

(* ---- the simulator -------------------------------------------------- *)

(* A fleet small enough for the test suite but aging fast enough that
   storms retire lines and force evictions. *)
let aging_params ?(wear_level = None) ?(gc_slice = 0) ?(hybrid = Holes_pcm.Hybrid.none) () :
    Sim.params =
  let d = Holes.Config.default_device in
  let wear = { d.Holes.Config.wear with Holes_pcm.Wear.mean_endurance = 25.0 } in
  let cfg =
    {
      Sim.default.Sim.cfg with
      Holes.Config.backend = Holes.Config.Device { d with Holes.Config.wear };
      wear_level;
      gc_slice;
      hybrid;
    }
  in
  {
    Sim.default with
    Sim.tenants = 4;
    devices = 2;
    arrival = Arrivals.Mmpp { rate = 150.0; burst = 6.0; dwell_ms = 40.0 };
    duration_ms = 400.0;
    storm_every_ms = 50.0;
    storm_writes = 16384;
    cfg;
  }

let test_jobs_bit_identical () =
  let fields jobs = Report.fields (Sim.run ~jobs (aging_params ())) in
  let f1 = fields 1 and f4 = fields 4 in
  check
    Alcotest.(list (pair string (float 0.0)))
    "-j 4 report bit-identical to -j 1" f1 f4

let test_report_accounting () =
  let p = aging_params () in
  let r = Sim.run ~jobs:2 p in
  if r.Report.arrived <= 0 then Alcotest.fail "no arrivals";
  (* every arrival ends as a completion, a failed request, or a queue
     drop at tenant death ([dropped] additionally counts arrivals to
     already-dead tenants, which never enter [arrived]) *)
  let unaccounted = r.Report.arrived - r.Report.completed - r.Report.failed in
  if unaccounted < 0 then Alcotest.fail "more completions than arrivals";
  if unaccounted > r.Report.dropped then
    Alcotest.failf "%d arrivals vanished without completing, failing or dropping"
      (unaccounted - r.Report.dropped);
  (* completions = sum of the epoch split *)
  let epoch_total =
    Array.fold_left (fun n h -> n + Holes_obs.Stats.count h) 0 r.Report.epoch
  in
  check Alcotest.int "epoch split covers every completion" r.Report.completed epoch_total;
  if not (r.Report.good <= r.Report.completed) then
    Alcotest.fail "goodput exceeds throughput";
  if not (r.Report.device_failures > 0) then
    Alcotest.fail "aging operating point produced no wear failures"

let test_eviction_preserves_invariants () =
  let cfg =
    {
      Sim.default.Sim.cfg with
      Holes.Config.backend =
        Holes.Config.Device
          {
            Holes.Config.default_device with
            Holes.Config.wear =
              {
                Holes.Config.default_device.Holes.Config.wear with
                Holes_pcm.Wear.mean_endurance = 25.0;
              };
          };
      (* tight heaps: retirement evacuations and request bursts reach
         OOM — the eviction trigger — within a few storm rounds *)
      heap_factor = 1.3;
    }
  in
  let rng = Xrng.of_seed 99 in
  let pool =
    Pool.create ~cfg ~tenant:Tenant.default ~slots:3 ~max_replacements:2 ~rng ()
  in
  (* storm until the device damage evicts someone (or prove stability) *)
  let rounds = ref 0 in
  while Pool.evictions pool = 0 && !rounds < 60 do
    incr rounds;
    Pool.storm pool ~writes:32768;
    for i = 0 to 2 do
      for _ = 1 to 4 do
        match Pool.serve pool i with Ok _ | Error (`Evicted | `Dead) -> ()
      done
    done
  done;
  if Pool.evictions pool = 0 then Alcotest.fail "storms never forced an eviction";
  (* every surviving VM still satisfies the heap verifier *)
  let checked = ref 0 in
  for i = 0 to 2 do
    match Pool.vm pool i with
    | None -> ()
    | Some vm ->
        incr checked;
        Holes.Verify.raise_on_errors (Holes.Vm.verify vm)
  done;
  if !checked = 0 then Alcotest.fail "no survivors left to verify"

(* ---- incremental collection: gated pause reporting -------------------- *)

let test_incremental_pause_report () =
  (* stop-the-world: the pause fields stay out of the report, so the
     committed sink golden keeps its record shape *)
  let stw = Sim.run ~jobs:2 (aging_params ()) in
  if stw.Report.inc_active then Alcotest.fail "STW fleet flagged as incremental";
  if List.mem_assoc "gc_pause_max_ms" (Report.fields stw) then
    Alcotest.fail "STW report leaked the gated pause fields";
  (* incremental: the fields appear, pauses were recorded, and the worst
     stall respects the figure's pause-time SLO *)
  let r = Sim.run ~jobs:2 (aging_params ~gc_slice:256 ()) in
  if not r.Report.inc_active then Alcotest.fail "incremental fleet not flagged";
  if not (List.mem_assoc "gc_pause_max_ms" (Report.fields r)) then
    Alcotest.fail "incremental report missing the pause fields";
  if Holes_obs.Stats.count r.Report.gc_pause = 0 then
    Alcotest.fail "incremental fleet recorded no GC pauses";
  if r.Report.gc_pause_max_ms > Holes_exp.Fleet_figure.pause_slo_ms then
    Alcotest.failf "max GC pause %.3f ms exceeds the %.1f ms pause SLO"
      r.Report.gc_pause_max_ms Holes_exp.Fleet_figure.pause_slo_ms

(* ---- golden snapshot of the sink records ----------------------------- *)

let find_sub (haystack : string) (needle : string) : int option =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* drop ["worker":N,"duration_s":F,] — scheduling noise, everything else
   is the deterministic trial outcome *)
let strip_schedule (l : string) : string =
  match find_sub l "\"worker\":" with
  | None -> l
  | Some i ->
      let rec nth_comma j k =
        if l.[j] = ',' then if k = 1 then j else nth_comma (j + 1) (k - 1)
        else nth_comma (j + 1) k
      in
      let j = nth_comma i 2 in
      String.sub l 0 i ^ String.sub l (j + 1) (String.length l - j - 1)

let read_lines (path : string) : string list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let grid_lines ~(jobs : int) : string list =
  let path = Filename.temp_file "holes_fleet_golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.create ~path ~progress:false () in
      Fun.protect
        ~finally:(fun () -> Sink.close sink)
        (fun () ->
          ignore (Sim.run ~jobs ~sink (aging_params ()));
          ignore
            (Sim.run ~jobs ~sink
               (aging_params
                  ~wear_level:(Some (Holes_pcm.Wear_level.Random_remap { psi = 64 }))
                  ()));
          (* incremental and tiered: the only records carrying the gated
             gc_pause_* and hyb_* fields *)
          ignore
            (Sim.run ~jobs ~sink
               (aging_params ~gc_slice:256
                  ~hybrid:{ Holes_pcm.Hybrid.migrate_epoch = Some 512; caram_ways = Some 8 }
                  ())));
      read_lines path |> List.map strip_schedule |> List.sort compare)

let golden_path = "golden/fleet.jsonl"

let test_golden () =
  let j1 = grid_lines ~jobs:1 in
  let j4 = grid_lines ~jobs:4 in
  check Alcotest.(list string) "-j 4 sink bit-identical to -j 1" j1 j4;
  match Sys.getenv_opt "HOLES_UPDATE_GOLDEN_FLEET" with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) j1;
      close_out oc;
      Printf.printf "(wrote %s)\n" out
  | None ->
      check
        Alcotest.(list string)
        "matches committed golden" (read_lines golden_path) j1

let suite =
  [
    ("arrival processes match their parameters", `Quick, test_arrival_stats);
    ("arrival CLI round-trips and rejects junk", `Quick, test_arrival_cli);
    ("fleet report bit-identical at -j 1 / -j 4", `Quick, test_jobs_bit_identical);
    ("report accounting is conserved", `Quick, test_report_accounting);
    ("eviction preserves verifier invariants", `Quick, test_eviction_preserves_invariants);
    ("incremental pause report is gated and SLO-bounded", `Quick, test_incremental_pause_report);
    ("fleet sink records match golden, -j independent", `Quick, test_golden);
  ]
