(* Memory-backend seam tests: the device backend's cooperative pipeline
   (wear -> failure buffer -> interrupt -> VMM up-call -> runtime
   retirement), failure-buffer overflow behavior, clustering boundary
   redirection as seen through [Vmm.map_failures], static/device
   backend agreement on the heap invariants, and a charged line store
   that allocates nothing beyond its occupancy sample. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Pcm = Holes_pcm
module Osal = Holes_osal
module Bitset = Holes_stdx.Bitset
module Xrng = Holes_stdx.Xrng

let check = Alcotest.check

let device_cfg ?(endurance = 2000.0) ?(base = Cfg.default) () : Cfg.t =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Pcm.Wear.mean_endurance = endurance } in
  { base with Cfg.backend = Cfg.Device { d with Cfg.wear } }

(* ------------------------------------------------------------------ *)
(* Wear-driven dynamic failures reach the runtime through the chain    *)
(* ------------------------------------------------------------------ *)

(* A low-endurance device run: line stores wear PCM out mid-allocation,
   and every failure must arrive at [Immix.dynamic_failure] through the
   genuine interrupt up-call — no injection anywhere. *)
let test_upcall_reaches_runtime () =
  let cfg = device_cfg ~endurance:5.0 () in
  let profile = Holes_workload.Profile.scaled Holes_workload.Dacapo.pmd 0.2 in
  let vm = Vm.create ~cfg ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
  let res = Holes_workload.Generator.run ~rng:(Xrng.of_seed (42 lxor 0x5eed)) vm profile in
  check Alcotest.bool "workload completed despite wear" true
    res.Holes_workload.Generator.completed;
  let m = Vm.metrics vm in
  check Alcotest.bool "device accrued wear failures" true (m.Metrics.device_line_failures > 0);
  check Alcotest.bool "failures arrived as OS up-calls" true (m.Metrics.os_upcalls > 0);
  check Alcotest.bool "runtime retired lines dynamically" true (m.Metrics.dynamic_failures > 0);
  check Alcotest.bool "device writes were charged" true (m.Metrics.device_writes > 0);
  Vm.collect vm ~full:true;
  (match Vm.check_invariants vm with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants after wear failures: %s" e);
  (* the side channel must be closed on this backend *)
  check Alcotest.bool "dynamic_failure_at rejected" true
    (try
       Vm.dynamic_failure_at vm ~addr:0;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Failure-buffer overflow: stall, drain, no data loss                 *)
(* ------------------------------------------------------------------ *)

let payload_for (line : int) : Bytes.t =
  Bytes.make Pcm.Geometry.line_bytes (Char.chr (Char.code 'a' + (line mod 26)))

(* Every write fails instantly (endurance 1, no ECP): the buffer fills
   to its watermark, the device stalls, and draining both releases the
   stall and returns each failed write's payload intact. *)
let test_fbuf_overflow_drains () =
  let device =
    Pcm.Device.create
      ~config:
        {
          Pcm.Device.pages = 1;
          wear = { Pcm.Wear.mean_endurance = 1.0; sigma = 0.01; ecp_entries = 0; ecp_extension = 0.0 };
          clustering = None;
          buffer_capacity = 8 (* watermark = capacity - 4 = 4 *);
          caram = None;
          wear_level = None;
        }
      ~seed:7 ()
  in
  for l = 0 to 3 do
    match Pcm.Device.write device l (payload_for l) with
    | Pcm.Device.Write_failed -> ()
    | _ -> Alcotest.failf "write %d should have failed the line" l
  done;
  check Alcotest.int "buffer at watermark" 4 (Pcm.Device.buffer_occupancy device);
  (match Pcm.Device.write device 4 (payload_for 4) with
  | Pcm.Device.Stalled -> ()
  | _ -> Alcotest.fail "device should stall at watermark");
  (* OS drain: each failed line's payload is preserved verbatim *)
  for l = 0 to 3 do
    match Pcm.Device.drain_failure device l with
    | None -> Alcotest.failf "line %d lost its buffered payload" l
    | Some data ->
        check Alcotest.bytes (Printf.sprintf "payload of line %d" l) (payload_for l) data
  done;
  check Alcotest.int "buffer drained" 0 (Pcm.Device.buffer_occupancy device);
  (* the stall lifts: the rejected write can now be retried and is
     accepted (and promptly fails the fresh line, buffering its data) *)
  (match Pcm.Device.write device 4 (payload_for 4) with
  | Pcm.Device.Write_failed -> ()
  | _ -> Alcotest.fail "retried write should be accepted after the drain");
  check Alcotest.bytes "retried payload preserved" (payload_for 4)
    (Option.get (Pcm.Device.drain_failure device 4));
  let s = Pcm.Device.stats device in
  check Alcotest.bool "stall recorded" true (s.Pcm.Device.buffer.Pcm.Failure_buffer.stall_events >= 1);
  check Alcotest.int "no insertion lost" 5 s.Pcm.Device.buffer.Pcm.Failure_buffer.insertions

(* ------------------------------------------------------------------ *)
(* Clustering: map_failures reports the redirected boundary line       *)
(* ------------------------------------------------------------------ *)

(* With one-page clustering, a failure in the middle of a region is
   remapped by the device's redirection hardware: the OS (and thus the
   runtime, via [Vmm.map_failures]) must see the hole at the region
   boundary, never at the original physical position. *)
let test_clustering_boundary_in_map_failures () =
  let lpp = Pcm.Geometry.lines_per_page in
  let device =
    Pcm.Device.create
      ~config:
        { Pcm.Device.pages = 4; wear = Pcm.Wear.default_params; clustering = Some 1; buffer_capacity = 16; caram = None; wear_level = None }
      ~seed:5 ()
  in
  let mid = 10 in
  let map = Bitset.create (4 * lpp) in
  Bitset.set map mid;
  Pcm.Device.preinstall_failures device map;
  let unusable = List.sort compare (Pcm.Device.unusable_lines device) in
  (* first failure also installs the redirection-map metadata lines *)
  let meta = Pcm.Geometry.redirection_meta_lines ~region_pages:1 in
  check Alcotest.int "metadata lines + the clustered failure" (meta + 1)
    (List.length unusable);
  (* page 0 is an even region: the cluster forms a contiguous prefix *)
  check Alcotest.(list int) "contiguous cluster at the region top"
    (List.init (meta + 1) Fun.id) unusable;
  check Alcotest.bool "not at the physical position" true (not (List.mem mid unusable));
  (* OS boot scan + mapping: the process-visible bitmap agrees *)
  let dram = 2 in
  let vmm = Osal.Vmm.create ~dram_pages:dram ~pcm_pages:4 () in
  List.iter
    (fun l ->
      Osal.Failure_table.mark_failed (Osal.Vmm.failure_table vmm) ~page:(l / lpp)
        ~line:(l mod lpp))
    unusable;
  Osal.Pools.renormalize (Osal.Vmm.pools vmm);
  let proc = Osal.Vmm.spawn vmm in
  match Osal.Vmm.mmap_imperfect vmm proc ~pages:4 with
  | Error `Out_of_memory -> Alcotest.fail "mmap_imperfect should succeed"
  | Ok virts ->
      let seen = ref [] in
      List.iter
        (fun virt ->
          let bm = Osal.Vmm.map_failures vmm proc ~virt in
          Bitset.iter_set bm (fun line -> seen := line :: !seen))
        virts;
      (* grants may be reordered, so compare in-page offsets: the holes
         the process sees are exactly the clustered boundary lines *)
      check Alcotest.(list int) "mapped holes are the boundary cluster"
        (List.map (fun l -> l mod lpp) unusable)
        (List.sort compare !seen)

(* ------------------------------------------------------------------ *)
(* Backend agreement: identical invariants on the same workloads       *)
(* ------------------------------------------------------------------ *)

(* Same workload stream on both backends (device endurance high enough
   that no wear failure occurs): both complete and both satisfy the
   post-collection line-accounting invariants. *)
let test_backends_agree_on_invariants () =
  List.iter
    (fun (profile, rate) ->
      let base =
        { Cfg.default with Cfg.failure_rate = rate; failure_dist = Cfg.Uniform; seed = 9 }
      in
      let run cfg =
        let profile = Holes_workload.Profile.scaled profile 0.15 in
        let vm = Vm.create ~cfg ~min_heap_bytes:(Holes_workload.Profile.min_heap profile) () in
        let res = Holes_workload.Generator.run ~rng:(Xrng.of_seed 123) vm profile in
        Vm.collect vm ~full:true;
        (vm, res)
      in
      let vm_s, res_s = run base in
      let vm_d, res_d = run (device_cfg ~endurance:1.0e8 ~base ()) in
      check Alcotest.bool "static completed" true res_s.Holes_workload.Generator.completed;
      check Alcotest.bool "device completed" true res_d.Holes_workload.Generator.completed;
      (match (Vm.check_invariants vm_s, Vm.check_invariants vm_d) with
      | Ok (), Ok () -> ()
      | Error e, _ -> Alcotest.failf "static invariants: %s" e
      | _, Error e -> Alcotest.failf "device invariants: %s" e);
      (* the workload stream is backend-independent *)
      check Alcotest.int "same allocation stream"
        (Vm.metrics vm_s).Metrics.objects_allocated
        (Vm.metrics vm_d).Metrics.objects_allocated)
    [ (Holes_workload.Dacapo.pmd, 0.25); (Holes_workload.Dacapo.xalan, 0.10) ]

(* ------------------------------------------------------------------ *)
(* A charged line store allocates nothing                              *)
(* ------------------------------------------------------------------ *)

let stores = 200_000

(* minor words per store of [f], which makes [stores] stores *)
let words_per_store (f : unit -> unit) : float =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int stores

(* a device-backend VM with 32 DRAM frames at the production endurance
   (nothing wears out or stalls) and a heap of at least [pages] pages *)
let store_vm ~(hybrid : Pcm.Hybrid.policy) ~(pages : int) : Holes.Memory_backend.device_state =
  let d = Cfg.default_device in
  let cfg =
    {
      Cfg.default with
      Cfg.backend = Cfg.Device { d with Cfg.wear = Pcm.Wear.default_params; dram_pages = 32 };
      failure_rate = 0.0;
      hybrid;
    }
  in
  let vm = Vm.create ~cfg ~min_heap_bytes:(pages * Pcm.Geometry.page_bytes) () in
  let st = Option.get (Vm.device_state vm) in
  if Array.length st.Holes.Memory_backend.virt_of_stock < pages then
    Alcotest.failf "%s: heap smaller than %d pages" (Pcm.Hybrid.to_cli hybrid) pages;
  st

let tier_moves (st : Holes.Memory_backend.device_state) : int * int =
  let c = st.Holes.Memory_backend.node.Holes.Memory_backend.n_tier_counts in
  (c.Osal.Tier.promotes, c.Osal.Tier.demotes)

(* 200k stores through [Memory_backend.device_write] under each tiering
   policy, after a warm-up pass of the same stores.  The stores visit 64
   heap pages round robin, so each epoch of 512 writes gives every page
   8: the 31 promotable DRAM frames keep their residents and the
   measured pass neither promotes nor demotes.  No store allocates a
   minor word, its occupancy sample included, in the dev profile (where
   nothing is inlined across modules) as in the release profile. *)
let test_store_allocates_nothing () =
  let pages = 64 in
  let rng = Xrng.of_seed 5 in
  let lines = Array.init stores (fun _ -> Xrng.int rng Pcm.Geometry.lines_per_page) in
  List.iter
    (fun hybrid ->
      let tag = Pcm.Hybrid.to_cli hybrid in
      let st = store_vm ~hybrid ~pages in
      let store_all () =
        for i = 0 to stores - 1 do
          Holes.Memory_backend.device_write st ~stock_page:(i mod pages) ~line:lines.(i)
        done
      in
      store_all ();
      let moves = tier_moves st in
      let per_store = words_per_store store_all in
      check
        Alcotest.(pair int int)
        (tag ^ ": the measured pass moves no page")
        moves (tier_moves st);
      if per_store > 0.0 then Alcotest.failf "%s: %.4f minor words per store" tag per_store)
    [
      Pcm.Hybrid.none;
      { Pcm.Hybrid.migrate_epoch = None; caram_ways = Some 8 };
      { Pcm.Hybrid.migrate_epoch = Some 512; caram_ways = None };
      { Pcm.Hybrid.migrate_epoch = Some 512; caram_ways = Some 8 };
    ]

(* Uniform random stores over 128 heap pages, four times the 31
   promotable DRAM frames: each page takes about 4 of an epoch's 512
   writes, so pages cross the promotion threshold and go cold again in
   every epoch.  After a warm-up pass in which every promotable frame
   has held a page, a measured pass of the same stores promotes and
   demotes thousands of pages, writing their dirty lines back, and
   allocates no minor word. *)
let test_migration_allocates_nothing () =
  let pages = 128 in
  let rng = Xrng.of_seed 11 in
  let targets = Array.init stores (fun _ -> Xrng.int rng pages) in
  let lines = Array.init stores (fun _ -> Xrng.int rng Pcm.Geometry.lines_per_page) in
  List.iter
    (fun hybrid ->
      let tag = Pcm.Hybrid.to_cli hybrid in
      let st = store_vm ~hybrid ~pages in
      let store_all () =
        for i = 0 to stores - 1 do
          Holes.Memory_backend.device_write st ~stock_page:targets.(i) ~line:lines.(i)
        done
      in
      store_all ();
      (match st.Holes.Memory_backend.node.Holes.Memory_backend.n_tier with
      | None -> Alcotest.failf "%s: migration should bring up the tier" tag
      | Some t ->
          (* a frame's buffer is allocated at its first promotion *)
          let used =
            Array.fold_left
              (fun n b -> if Bytes.length b > 0 then n + 1 else n)
              0 t.Osal.Tier.buffers
          in
          if used < 31 then Alcotest.failf "%s: the warm-up used only %d frames" tag used);
      let p0, d0 = tier_moves st in
      let per_store = words_per_store store_all in
      let p1, d1 = tier_moves st in
      let moves = p1 - p0 + (d1 - d0) in
      if p1 - p0 < 1000 || d1 - d0 < 1000 then
        Alcotest.failf "%s: the measured pass made only %d promotions and %d demotions" tag
          (p1 - p0) (d1 - d0);
      let per_move = per_store *. float_of_int stores /. float_of_int moves in
      if per_move > 0.0 then
        Alcotest.failf "%s: %.2f minor words per promotion or demotion" tag per_move)
    [
      { Pcm.Hybrid.migrate_epoch = Some 512; caram_ways = None };
      { Pcm.Hybrid.migrate_epoch = Some 512; caram_ways = Some 8 };
    ]

let suite =
  [
    Alcotest.test_case "wear up-call reaches runtime" `Quick test_upcall_reaches_runtime;
    Alcotest.test_case "failure-buffer overflow drains" `Quick test_fbuf_overflow_drains;
    Alcotest.test_case "clustering boundary in map_failures" `Quick
      test_clustering_boundary_in_map_failures;
    Alcotest.test_case "backends agree on invariants" `Quick test_backends_agree_on_invariants;
    Alcotest.test_case "a store allocates nothing" `Quick test_store_allocates_nothing;
    Alcotest.test_case "a migration allocates nothing" `Quick test_migration_allocates_nothing;
  ]
