(* The full-collection paths, pinned.  The determinism golden runs no
   full collection at all, so this golden exercises every route into
   one: stop-the-world and budgeted Immix, with and without static
   failures, failure storms that retire lines mid-run, and both
   Mark_sweep variants.  Each row asserts it still takes its path, so a
   workload change cannot quietly turn the golden into a no-op.

   To regenerate after an intentional results change (see
   [Test_hotpath.check_golden]):

     HOLES_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- test collect *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Cost = Holes.Cost
module Xrng = Holes_stdx.Xrng
module OT = Holes_heap.Object_table
module R = Holes_exp.Runner
module Dacapo = Holes_workload.Dacapo
module Stats = Holes_obs.Stats
module Bitset = Holes_stdx.Bitset

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
  R.clear_cache ();
  Fun.protect ~finally:R.clear_cache (fun () ->
      snd
        (Test_hotpath.with_temp_sink (fun sink ->
             List.iter
               (fun (scale, cfgs, profiles) ->
                 let params = { R.quick with R.scale; jobs; sink = Some sink } in
                 R.prefetch ~params ~cfgs ~profiles ())
               grid)))

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

let test_golden () =
  let j1 = grid_lines ~jobs:1 in
  let j4 = grid_lines ~jobs:4 in
  check Alcotest.(list string) "-j 4 bit-identical to -j 1" j1 j4;
  check_paths j1;
  Test_hotpath.check_golden "collect.jsonl" j1

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

(* A sparse object table: 20k small objects, all but one in 40 of them
   killed and collected stop-the-world, then 300 more allocated into
   recycled slots.  The slot high-water mark is 25 times the occupied
   count.  As in [seeded_vm], a stop-the-world collection closes the
   bump cursors (an incremental snapshot leaves them open, so open runs
   would send evacuation elsewhere), then edges, deaths and a defrag
   request give the next collection its work. *)
let sparse_vm (collector : Cfg.collector) : Vm.t =
  let vm = Vm.create ~cfg:{ Cfg.default with Cfg.collector } ~min_heap_bytes:(2 lsl 20) () in
  let rng = Xrng.of_seed 23 in
  let first = Array.init 20_000 (fun _ -> Vm.alloc vm ~size:(16 + Xrng.int rng 48) ()) in
  Array.iteri (fun i id -> if i mod 40 <> 0 then Vm.kill vm id) first;
  Vm.collect vm ~full:true;
  let late = Array.init 300 (fun _ -> Vm.alloc vm ~size:(16 + Xrng.int rng 600) ()) in
  let ids =
    Array.append (Array.of_list (List.filteri (fun i _ -> i mod 40 = 0) (Array.to_list first))) late
  in
  Array.iter
    (fun src -> Vm.write_ref vm ~src ~dst:ids.(Xrng.int rng (Array.length ids)))
    ids;
  Vm.collect vm ~full:true;
  Array.iter (fun id -> if Xrng.bool rng then Vm.kill vm id) ids;
  Vm.request_defrag vm;
  vm

(* the next full collection's snapshot entries: the occupied slots *)
let occupied_slots (vm : Vm.t) : int =
  let n = ref 0 in
  OT.iter_slots (Vm.objects vm) (fun _ -> incr n);
  !n

(* every serialized counter except the pause records, which are the one
   thing a budget may change *)
let counters (m : Metrics.t) : (string * float) list =
  List.filter
    (fun (k, _) -> not (String.starts_with ~prefix:"pause_ns" k || k = "gc_increments"))
    (Metrics.to_fields m)

let bits (x : float) : int64 = Int64.bits_of_float x

(* The two heaps with their snapshot entry counts n, and the slices each
   budget cuts the collection into: its [gc_increments], which equal its
   recorded pauses.  Budgets n - 1, n and n + 1 pin where the mark phase
   ends: at budget n it ends in the one slice that processes the last
   entry, so a mark phase ending a slice late (or early) moves these
   counts. *)
let heaps : (string * (Cfg.collector -> Vm.t) * int) list =
  [ ("seeded", seeded_vm, 3000); ("sparse", sparse_vm, 800) ]

let budgets (n : int) : (string * int) list =
  [ ("1", 1); ("64", 64); ("4096", 4096); ("n-1", n - 1); ("n", n); ("n+1", n + 1) ]

let slices : ((string * string * string) * int) list =
  [
    (("seeded", "S-IX", "1"), 3049);
    (("seeded", "S-IX", "64"), 96);
    (("seeded", "S-IX", "4096"), 20);
    (("seeded", "S-IX", "n-1"), 22);
    (("seeded", "S-IX", "n"), 21);
    (("seeded", "S-IX", "n+1"), 21);
    (("seeded", "MS", "1"), 3045);
    (("seeded", "MS", "64"), 91);
    (("seeded", "MS", "4096"), 3);
    (("seeded", "MS", "n-1"), 3);
    (("seeded", "MS", "n"), 3);
    (("seeded", "MS", "n+1"), 3);
    (("sparse", "S-IX", "1"), 846);
    (("sparse", "S-IX", "64"), 59);
    (("sparse", "S-IX", "4096"), 19);
    (("sparse", "S-IX", "n-1"), 24);
    (("sparse", "S-IX", "n"), 23);
    (("sparse", "S-IX", "n+1"), 23);
    (("sparse", "MS", "1"), 841);
    (("sparse", "MS", "64"), 53);
    (("sparse", "MS", "4096"), 2);
    (("sparse", "MS", "n-1"), 7);
    (("sparse", "MS", "n"), 7);
    (("sparse", "MS", "n+1"), 7);
  ]

(* DESIGN.md §15's claim as a check: collecting the same heap
   stop-the-world and under a budget of k ends in the same heap at the
   bit-identical charged cost; the budget only cuts the one pause into
   slices that sum to it. *)
let test_budget_only_brackets () =
  List.iter
    (fun (heap, make, n) ->
      List.iter
        (fun collector ->
          List.iter
            (fun (label, k) ->
              let where =
                Printf.sprintf "%s heap, %s, budget %s" heap (Cfg.collector_name collector) label
              in
              let stw = make collector and sliced = make collector in
              check Alcotest.int (where ^ ": snapshot entries") n (occupied_slots sliced);
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
              let increments0 = m_sliced.Metrics.gc_increments in
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
                OT.iter_slots ot (fun id -> acc := (id, OT.addr ot id) :: !acc);
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
              let increments = m_sliced.Metrics.gc_increments - increments0 in
              let pinned = List.assoc (heap, Cfg.collector_name collector, label) slices in
              check Alcotest.int (where ^ ": gc_increments") pinned increments;
              check Alcotest.int (where ^ ": recorded pauses") pinned nslices;
              Alcotest.(check bool) (where ^ ": cut into slices") true (nslices > 1);
              Alcotest.(check bool)
                (Printf.sprintf "%s: slices sum to the pause (%.17g vs %.17g)" where sum pause)
                true
                (Float.abs (sum -. pause) <= 1e-9 *. pause))
            (budgets n))
        [ Cfg.Sticky_immix; Cfg.Mark_sweep ])
    heaps

(* ---- a planted snapshot corruption ----------------------------------- *)

(* Mid-mark on the sparse heap, clear the snapshot liveness bit of one
   pending live entry: the object is now neither black nor pending, the
   white object an unlogged black-to-white store would strand, and the
   verifier's SATB checks must say so. *)
let test_lost_snapshot_entry_caught () =
  let vm = sparse_vm Cfg.Sticky_immix in
  let s = match vm.Vm.space with Vm.Ix s -> s | Vm.Ms _ -> Alcotest.fail "expected Immix" in
  let ot = Vm.objects vm in
  let victim = ref (-1) in
  OT.iter_slots ot (fun id -> if !victim < 0 && OT.is_alive ot id then victim := id);
  Vm.set_gc_slice vm 16;
  (* a failure under live data opens a budgeted cycle and returns *)
  Vm.dynamic_failure vm ~id:!victim;
  Holes.Immix.gc_increment s;
  Alcotest.(check bool) "mid-mark" true
    (s.Holes.Immix.inc_phase = Holes.Immix.inc_mark && s.Holes.Immix.inc_pos > 0);
  Holes.Verify.raise_on_errors (Vm.verify vm);
  let pending = ref (-1) in
  OT.iter_slots ot (fun id ->
      if !pending < 0 && id >= s.Holes.Immix.inc_pos && OT.is_alive ot id
         && Bitset.get s.Holes.Immix.snap_alive id
      then pending := id);
  if !pending < 0 then Alcotest.fail "no pending live entry";
  Bitset.clear s.Holes.Immix.snap_alive !pending;
  let expected =
    Printf.sprintf "alive object %d neither marked in epoch %d nor pending in the snapshot"
      !pending s.Holes.Immix.inc_epoch
  in
  let errors = (Vm.verify vm).Holes.Verify.errors in
  if not (List.mem expected errors) then
    Alcotest.failf "verifier missed the lost entry; reported: [%s]" (String.concat "; " errors)

let suite =
  [
    ("full-collection grid matches golden, -j independent", `Quick, test_golden);
    ("a budget only changes bracketing", `Quick, test_budget_only_brackets);
    ("verifier catches a lost snapshot entry", `Quick, test_lost_snapshot_entry_caught);
  ]
