(* The full-collection paths, pinned.  The determinism golden runs no
   full collection at all, so this golden exercises every route into
   one: stop-the-world and budgeted Immix, with and without static
   failures, failure storms that retire lines mid-run, and both
   Mark_sweep variants.  Each row asserts it still takes its path, so a
   workload change cannot quietly turn the golden into a no-op.

   To regenerate after an intentional results change:

     HOLES_UPDATE_GOLDEN_COLLECT=test/golden/collect.jsonl \
       dune exec test/test_main.exe -- test collect *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Cost = Holes.Cost
module Xrng = Holes_stdx.Xrng
module OT = Holes_heap.Object_table
module R = Holes_exp.Runner
module Sink = Holes_engine.Sink
module Dacapo = Holes_workload.Dacapo
module Stats = Holes_obs.Stats

let check = Alcotest.check

let storm =
  Cfg.Model (Holes_pcm.Failure_model.Storm { mean_burst = 4.0; period_bytes = 65536 })

(* (scale, configurations, profiles) *)
let grid : (float * Cfg.t list * Holes_workload.Profile.t list) list =
  let pmd_heap = { Cfg.default with Cfg.heap_factor = 1.25 } in
  let storm_heap = { Cfg.default with Cfg.heap_factor = 1.5; failure_model = storm } in
  [
    ( 0.1,
      [
        pmd_heap;
        { pmd_heap with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2 };
        { pmd_heap with Cfg.gc_slice = 256 };
        { pmd_heap with Cfg.collector = Cfg.Sticky_ms };
        { pmd_heap with Cfg.collector = Cfg.Mark_sweep; gc_slice = 256 };
      ],
      [ Dacapo.pmd ] );
    (0.05, [ storm_heap; { storm_heap with Cfg.gc_slice = 256 } ], [ Dacapo.luindex; Dacapo.avrora ]);
  ]

let grid_lines ~(jobs : int) : string list =
  let path = Filename.temp_file "holes_collect" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.clear_cache ();
      let sink = Sink.create ~path ~progress:false () in
      R.set_sink (Some sink);
      Fun.protect
        ~finally:(fun () ->
          R.set_sink None;
          Sink.close sink;
          R.clear_cache ())
        (fun () ->
          List.iter
            (fun (scale, cfgs, profiles) ->
              let params = { R.scale; seeds = 2; jobs } in
              R.prefetch ~params ~cfgs ~profiles ())
            grid);
      Test_hotpath.read_lines path |> List.map Test_hotpath.strip_schedule |> List.sort compare)

(* the numeric value of ["key":N] in a JSONL record *)
let field (line : string) (key : string) : float =
  let needle = "\"" ^ key ^ "\":" in
  match Test_hotpath.find_sub line needle with
  | None -> Alcotest.failf "record lacks %s: %s" key line
  | Some i ->
      let start = i + String.length needle in
      let stop = ref start in
      while !stop < String.length line && not (String.contains ",}" line.[!stop]) do
        incr stop
      done;
      float_of_string (String.sub line start (!stop - start))

let config (line : string) : string =
  let needle = "\"config\":\"" in
  match Test_hotpath.find_sub line needle with
  | None -> Alcotest.failf "record lacks a config: %s" line
  | Some i ->
      let start = i + String.length needle in
      String.sub line start (String.index_from line start '"' - start)

let contains (s : string) (sub : string) : bool = Test_hotpath.find_sub s sub <> None

(* each row still exercises the path it pins *)
let check_paths (lines : string list) : unit =
  check Alcotest.int "one record per trial" 18 (List.length lines);
  List.iter
    (fun l ->
      let c = config l in
      let positive key = Alcotest.(check bool) (c ^ ": " ^ key ^ " > 0") true (field l key > 0.0) in
      positive "full_gcs";
      if contains c "storm" then begin
        positive "objects_evacuated";
        positive "dynamic_failures"
      end;
      if contains c "-inc" then positive "gc_increments")
    lines

let golden_path = "golden/collect.jsonl"

let test_golden () =
  let j1 = grid_lines ~jobs:1 in
  let j4 = grid_lines ~jobs:4 in
  check Alcotest.(list string) "-j 4 bit-identical to -j 1" j1 j4;
  check_paths j1;
  match Sys.getenv_opt "HOLES_UPDATE_GOLDEN_COLLECT" with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) j1;
      close_out oc;
      Printf.printf "(wrote %s)\n" out
  | None ->
      check
        Alcotest.(list string)
        "matches committed golden" (Test_hotpath.read_lines golden_path) j1

(* ---- a budget only changes bracketing ------------------------------- *)

(* A seeded heap, collected once stop-the-world (which closes the bump
   cursors), then half its objects killed and defragmentation requested:
   the next full collection has marking, sweeping and evacuation to do. *)
let seeded_vm (collector : Cfg.collector) : Vm.t =
  let vm = Vm.create ~cfg:{ Cfg.default with Cfg.collector } ~min_heap_bytes:(1 lsl 20) () in
  let rng = Xrng.of_seed 11 in
  let ids = Array.init 3000 (fun _ -> Vm.alloc vm ~size:(16 + Xrng.int rng 600) ()) in
  Array.iter
    (fun src -> Vm.write_ref vm ~src ~dst:ids.(Xrng.int rng (Array.length ids)))
    ids;
  Vm.collect vm ~full:true;
  Array.iter (fun id -> if Xrng.bool rng then Vm.kill vm id) ids;
  Vm.request_defrag vm;
  vm

(* every serialized counter except the pause records, which are the one
   thing a budget may change *)
let counters (m : Metrics.t) : (string * float) list =
  List.filter
    (fun (k, _) -> not (String.starts_with ~prefix:"pause_ns" k || k = "gc_increments"))
    (Metrics.to_fields m)

let bits (x : float) : int64 = Int64.bits_of_float x

(* DESIGN.md §15's claim as a check: collecting the same heap
   stop-the-world and under a budget of k ends in the same heap at the
   bit-identical charged cost; the budget only cuts the one pause into
   slices that sum to it. *)
let test_budget_only_brackets () =
  List.iter
    (fun collector ->
      List.iter
        (fun k ->
          let where = Printf.sprintf "%s, budget %d" (Cfg.collector_name collector) k in
          let stw = seeded_vm collector and sliced = seeded_vm collector in
          let m_stw = Vm.metrics stw and m_sliced = Vm.metrics sliced in
          let evacuated0 = m_stw.Metrics.objects_evacuated in
          (* the pauses this collection records: count and sum deltas of
             the full-pause histogram *)
          let pauses_since (m : Metrics.t) =
            let h = m.Metrics.pause_hist in
            let n0 = Stats.count h and s0 = Stats.total h in
            fun () -> (Stats.count h - n0, Stats.total h -. s0)
          in
          let stw_pauses = pauses_since m_stw and sliced_pauses = pauses_since m_sliced in
          Vm.collect stw ~full:true;
          Vm.set_gc_slice sliced k;
          Vm.collect sliced ~full:true;
          Holes.Verify.raise_on_errors (Vm.verify stw);
          Holes.Verify.raise_on_errors (Vm.verify sliced);
          if Cfg.is_immix collector then
            Alcotest.(check bool) (where ^ ": the collection evacuated") true
              (m_stw.Metrics.objects_evacuated > evacuated0);
          let objs vm =
            let ot = Vm.objects vm and acc = ref [] in
            OT.iter_slots ot (fun id ->
                acc := (id, OT.addr ot id) :: !acc);
            !acc
          in
          check Alcotest.(list (pair int int)) (where ^ ": object addresses") (objs stw) (objs sliced);
          let c_stw = Vm.cost stw and c_sliced = Vm.cost sliced in
          check Alcotest.int64 (where ^ ": gc_ns bit-equal") (bits (Cost.gc_ns c_stw))
            (bits (Cost.gc_ns c_sliced));
          check Alcotest.int64 (where ^ ": total_ns bit-equal") (bits (Cost.total_ns c_stw))
            (bits (Cost.total_ns c_sliced));
          check
            Alcotest.(list (pair string (float 0.0)))
            (where ^ ": counters") (counters m_stw) (counters m_sliced);
          let npauses, pause = stw_pauses () in
          check Alcotest.int (where ^ ": stop-the-world records one pause") 1 npauses;
          let nslices, sum = sliced_pauses () in
          Alcotest.(check bool) (where ^ ": cut into slices") true (nslices > 1);
          Alcotest.(check bool)
            (Printf.sprintf "%s: slices sum to the pause (%.17g vs %.17g)" where sum pause)
            true
            (Float.abs (sum -. pause) <= 1e-9 *. pause))
        [ 1; 64; 4096 ])
    [ Cfg.Sticky_immix; Cfg.Mark_sweep ]

let suite =
  [
    ("full-collection grid matches golden, -j independent", `Quick, test_golden);
    ("a budget only changes bracketing", `Quick, test_budget_only_brackets);
  ]
