(* Tests for the Immix collector family through the Vm facade: bump
   allocation, hole skipping, collection, recycling, sticky nursery
   behaviour, evacuation, and the post-GC heap invariants. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module OT = Holes_heap.Object_table

let check = Alcotest.check

let mk ?(cfg = { Cfg.default with Cfg.collector = Cfg.Immix }) ?(heap = 1 lsl 20) () =
  Vm.create ~cfg ~min_heap_bytes:heap ()

let assert_invariants vm =
  Vm.collect vm ~full:true;
  match Vm.check_invariants vm with Ok () -> () | Error m -> Alcotest.fail m

let test_alloc_returns_distinct_objects () =
  let vm = mk () in
  let a = Vm.alloc vm ~size:64 () in
  let b = Vm.alloc vm ~size:64 () in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  let oa = OT.addr (Vm.objects vm) a and ob = OT.addr (Vm.objects vm) b in
  Alcotest.(check bool) "non-overlapping" true (ob >= oa + 64 || oa >= ob + 64)

let test_bump_is_contiguous () =
  let vm = mk () in
  let a = Vm.alloc vm ~size:64 () in
  let b = Vm.alloc vm ~size:64 () in
  let oa = OT.addr (Vm.objects vm) a and ob = OT.addr (Vm.objects vm) b in
  check Alcotest.int "bump pointer advances by size" (oa + 64) ob

let test_gc_reclaims_dead () =
  let vm = mk () in
  let ids = List.init 1000 (fun _ -> Vm.alloc vm ~size:128 ()) in
  List.iter (Vm.kill vm) ids;
  Vm.collect vm ~full:true;
  check Alcotest.int "nothing live" 0 (OT.live_count (Vm.objects vm));
  assert_invariants vm

let test_gc_preserves_live () =
  let vm = mk () in
  let keep = List.init 50 (fun _ -> Vm.alloc vm ~size:64 ()) in
  let dead = List.init 50 (fun _ -> Vm.alloc vm ~size:64 ()) in
  List.iter (Vm.kill vm) dead;
  Vm.collect vm ~full:true;
  List.iter
    (fun id -> Alcotest.(check bool) "survivor alive" true (OT.is_alive (Vm.objects vm) id))
    keep;
  check Alcotest.int "live count" 50 (OT.live_count (Vm.objects vm));
  assert_invariants vm

let test_heap_fills_and_collects () =
  let vm = mk ~heap:(1 lsl 19) () in
  (* allocate 4x the heap with everything dying promptly: must trigger
     collection rather than OOM *)
  let prev = ref None in
  for _ = 1 to (4 * (1 lsl 19)) / 128 do
    (match !prev with Some p -> Vm.kill vm p | None -> ());
    prev := Some (Vm.alloc vm ~size:128 ())
  done;
  Alcotest.(check bool) "collected at least once" true ((Vm.metrics vm).Metrics.full_gcs >= 1)

let test_oom_when_live_exceeds_heap () =
  let vm = mk ~heap:(1 lsl 18) () in
  Alcotest.check_raises "OOM raised" Vm.Out_of_memory (fun () ->
      (* keep everything alive: 4x heap of live data cannot fit *)
      for _ = 1 to (4 * (1 lsl 18)) / 128 do
        ignore (Vm.alloc vm ~size:128 ())
      done);
  Alcotest.(check bool) "flagged" true (Vm.metrics vm).Metrics.out_of_memory

let test_medium_overflow_allocation () =
  let vm = mk () in
  (* fill the current bump run almost to the block boundary, then ask for
     a medium: it cannot fit the remaining run and must take the overflow
     path *)
  for _ = 1 to 510 do
    ignore (Vm.alloc vm ~size:64 ())
  done;
  ignore (Vm.alloc vm ~size:2048 ());
  Alcotest.(check bool) "overflow path used" true ((Vm.metrics vm).Metrics.overflow_allocs >= 1);
  assert_invariants vm

let test_los_allocation_simple () =
  let vm = mk () in
  let big = Vm.alloc vm ~size:100_000 () in
  Alcotest.(check bool) "LOS object" true (OT.is_los (Vm.objects vm) big);
  check Alcotest.int "LOS pages = ceil(size/4096)" 25 (Vm.metrics vm).Metrics.los_pages;
  Vm.kill vm big;
  Vm.collect vm ~full:true;
  (* pages must be reusable: allocate again without growing the heap *)
  let big2 = Vm.alloc vm ~size:100_000 () in
  Alcotest.(check bool) "re-allocated" true (OT.is_alive (Vm.objects vm) big2)

let test_block_recycling () =
  let vm = mk ~heap:(1 lsl 19) () in
  (* fill some blocks, kill half the objects, collect, then allocate
     again — recycled blocks must be reused (blocks_assembled should not
     double) *)
  (* one 256B object per line so killing alternate objects frees lines *)
  let ids = Array.init 1000 (fun _ -> Vm.alloc vm ~size:256 ()) in
  Array.iteri (fun i id -> if i mod 2 = 0 then Vm.kill vm id) ids;
  Vm.collect vm ~full:true;
  let assembled_before = (Vm.metrics vm).Metrics.blocks_assembled in
  for _ = 1 to 400 do
    ignore (Vm.alloc vm ~size:256 ())
  done;
  let assembled_after = (Vm.metrics vm).Metrics.blocks_assembled in
  Alcotest.(check bool) "mostly recycled, few new blocks" true
    (assembled_after - assembled_before <= 2);
  Alcotest.(check bool) "holes skipped in recycled blocks" true
    ((Vm.metrics vm).Metrics.hole_skips > 0)

(* ------------------------- Sticky Immix ------------------------- *)

let mk_sticky ?(heap = 1 lsl 20) () =
  Vm.create ~cfg:{ Cfg.default with Cfg.collector = Cfg.Sticky_immix } ~min_heap_bytes:heap ()

let test_sticky_nursery_collection () =
  let vm = mk_sticky ~heap:(1 lsl 19) () in
  let prev = ref None in
  for _ = 1 to (4 * (1 lsl 19)) / 128 do
    (match !prev with Some p -> Vm.kill vm p | None -> ());
    prev := Some (Vm.alloc vm ~size:128 ())
  done;
  let m = Vm.metrics vm in
  Alcotest.(check bool) "nursery collections happened" true (m.Metrics.nursery_gcs >= 1);
  let nursery = m.Metrics.nursery_pause_hist and full = m.Metrics.pause_hist in
  Alcotest.(check bool) "a nursery pause recorded" true (Holes_obs.Stats.count nursery > 0);
  if Holes_obs.Stats.count full > 0 then
    Alcotest.(check bool) "no nursery pause longer than any full pause" true
      (Holes_obs.Stats.max_value nursery <= Holes_obs.Stats.min_value full)

let test_sticky_survivors_become_old () =
  let vm = mk_sticky () in
  let id = Vm.alloc vm ~size:64 () in
  Alcotest.(check bool) "nursery at birth" true (OT.is_nursery (Vm.objects vm) id);
  Vm.collect vm ~full:false;
  Alcotest.(check bool) "old after nursery GC" false (OT.is_nursery (Vm.objects vm) id);
  Alcotest.(check bool) "still alive" true (OT.is_alive (Vm.objects vm) id)

let test_sticky_write_barrier_remset () =
  let vm = mk_sticky () in
  let old_obj = Vm.alloc vm ~size:64 () in
  Vm.collect vm ~full:false (* old_obj leaves the nursery *);
  let young = Vm.alloc vm ~size:64 () in
  Vm.write_ref vm ~src:old_obj ~dst:young;
  (* the barrier must have recorded the old->young edge; a nursery GC
     processes and clears it without touching old objects *)
  Vm.collect vm ~full:false;
  Alcotest.(check bool) "old survives nursery GC" true (OT.is_alive (Vm.objects vm) old_obj);
  Alcotest.(check bool) "young survives via liveness" true (OT.is_alive (Vm.objects vm) young)

let test_sticky_nursery_copy_compacts () =
  let vm = mk_sticky ~heap:(1 lsl 19) () in
  (* allocate interleaved live/dead, then nursery-collect: survivors are
     opportunistically copied, producing bytes_copied *)
  let ids = Array.init 512 (fun _ -> Vm.alloc vm ~size:128 ()) in
  Array.iteri (fun i id -> if i mod 2 = 0 then Vm.kill vm id) ids;
  Vm.collect vm ~full:false;
  Alcotest.(check bool) "survivors copied" true ((Vm.metrics vm).Metrics.bytes_copied > 0)

let test_pinned_objects_never_move () =
  let vm = mk_sticky ~heap:(1 lsl 19) () in
  let pinned = Vm.alloc vm ~pinned:true ~size:128 () in
  let addr0 = OT.addr (Vm.objects vm) pinned in
  let ids = Array.init 512 (fun _ -> Vm.alloc vm ~size:128 ()) in
  Array.iteri (fun i id -> if i mod 2 = 0 then Vm.kill vm id) ids;
  Vm.collect vm ~full:false;
  Vm.collect vm ~full:true;
  check Alcotest.int "pinned address unchanged" addr0 (OT.addr (Vm.objects vm) pinned)

let test_defrag_evacuates_sparse_blocks () =
  let cfg = { Cfg.default with Cfg.collector = Cfg.Immix; defrag = true; defrag_occupancy = 0.5 } in
  let vm = Vm.create ~cfg ~min_heap_bytes:(1 lsl 19) () in
  (* sparse population: 1 live object per ~10 dead *)
  let ids = Array.init 2000 (fun _ -> Vm.alloc vm ~size:128 ()) in
  Array.iteri (fun i id -> if i mod 10 <> 0 then Vm.kill vm id) ids;
  (* defragmentation is on-demand (as in Immix); request it explicitly *)
  Vm.request_defrag vm;
  Vm.collect vm ~full:true;
  Alcotest.(check bool) "objects evacuated" true ((Vm.metrics vm).Metrics.objects_evacuated > 0);
  (match Vm.check_invariants vm with Ok () -> () | Error m -> Alcotest.fail m)

let test_invariants_random_workload () =
  let vm = mk_sticky ~heap:(1 lsl 19) () in
  let rng = Holes_stdx.Xrng.of_seed 1234 in
  let live = ref [] and nlive = ref 0 in
  for i = 1 to 5000 do
    let size = 16 + Holes_stdx.Xrng.int rng 1500 in
    let id = Vm.alloc vm ~size () in
    live := id :: !live;
    incr nlive;
    (* cap the live set well below the heap *)
    while !nlive > 120 do
      match List.rev !live with
      | oldest :: _ ->
          Vm.kill vm oldest;
          live := List.filter (fun x -> x <> oldest) !live;
          decr nlive
      | [] -> nlive := 0
    done;
    if i mod 1000 = 0 then assert_invariants vm
  done;
  assert_invariants vm

let suite =
  [
    ("alloc distinct objects", `Quick, test_alloc_returns_distinct_objects);
    ("bump contiguity", `Quick, test_bump_is_contiguous);
    ("gc reclaims dead", `Quick, test_gc_reclaims_dead);
    ("gc preserves live", `Quick, test_gc_preserves_live);
    ("heap fills and collects", `Quick, test_heap_fills_and_collects);
    ("OOM when live exceeds heap", `Quick, test_oom_when_live_exceeds_heap);
    ("medium overflow allocation", `Quick, test_medium_overflow_allocation);
    ("LOS allocation + reuse", `Quick, test_los_allocation_simple);
    ("block recycling", `Quick, test_block_recycling);
    ("sticky nursery collection", `Quick, test_sticky_nursery_collection);
    ("sticky survivors become old", `Quick, test_sticky_survivors_become_old);
    ("sticky write barrier remset", `Quick, test_sticky_write_barrier_remset);
    ("sticky nursery copy compacts", `Quick, test_sticky_nursery_copy_compacts);
    ("pinned objects never move", `Quick, test_pinned_objects_never_move);
    ("defrag evacuates sparse blocks", `Quick, test_defrag_evacuates_sparse_blocks);
    ("invariants under random workload", `Quick, test_invariants_random_workload);
  ]
