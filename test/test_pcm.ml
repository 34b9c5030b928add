(* Tests for the PCM device substrate: wear/ECP model, failure buffer,
   redirection-map clustering, start-gap wear leveling, and failure-map
   generation. *)

open Holes_pcm
module Bitset = Holes_stdx.Bitset
module Xrng = Holes_stdx.Xrng

let check = Alcotest.check

(* ------------------------- Geometry ------------------------- *)

let test_geometry () =
  check Alcotest.int "64 lines per page" 64 Geometry.lines_per_page;
  check Alcotest.int "2-page region meta = 2 lines" 2
    (Geometry.redirection_meta_lines ~region_pages:2);
  check Alcotest.int "1-page region meta = 1 line" 1
    (Geometry.redirection_meta_lines ~region_pages:1)

let test_redirection_map_889_bits () =
  (* the paper, Sec. 3.1.2: "Assuming a 4 KB page, 64 B lines, and a
     2-page region size, the redirection map requires 889 bits ...
     126 7-bit fields for redirection entries, and one 7-bit field for
     the boundary pointer" *)
  check Alcotest.int "exactly the paper's 889 bits" 889
    (Geometry.redirection_map_bits ~region_pages:2)

let test_failure_map_page_stats () =
  let map = Bitset.create (64 * 4) in
  Bitset.set map 0;
  Bitset.set map 3;
  Bitset.set map 130 (* page 2 *);
  check (Alcotest.array Alcotest.int) "per-page counts" [| 2; 0; 1; 0 |]
    (Failure_map.per_page_counts map);
  check Alcotest.int "perfect pages" 2 (Failure_map.perfect_pages map);
  Alcotest.(check bool) "rate" true (abs_float (Failure_map.rate map -. (3.0 /. 256.0)) < 1e-9)

let test_wear_level_translate_identity () =
  let t =
    Wear_level.create ~policy:(Wear_level.Start_gap { psi = 1000 }) ~nlines:8 ~seed:7 ()
  in
  for l = 0 to 7 do
    check Alcotest.int "identity before any gap move" l (Wear_level.translate t l)
  done;
  Alcotest.check_raises "bounds" (Invalid_argument "Wear_level.translate: out of range")
    (fun () -> ignore (Wear_level.translate t 8))

(* ------------------------- Wear ------------------------- *)

let test_wear_exhaustion () =
  let rng = Xrng.of_seed 1 in
  let p = { Wear.mean_endurance = 50.0; sigma = 0.1; ecp_entries = 2; ecp_extension = 0.1 } in
  let l = Wear.fresh_line rng p in
  let rec drive n =
    if n > 100_000 then Alcotest.fail "line never failed"
    else
      match Wear.write rng p l with
      | Wear.Failed -> n
      | Wear.Ok | Wear.Corrected -> drive (n + 1)
  in
  let writes = drive 1 in
  Alcotest.(check bool) "took multiple writes" true (writes > 10);
  (* once failed, stays failed *)
  check
    (Alcotest.testable
       (fun ppf -> function
         | Wear.Ok -> Fmt.string ppf "Ok"
         | Wear.Corrected -> Fmt.string ppf "Corrected"
         | Wear.Failed -> Fmt.string ppf "Failed")
       ( = ))
    "failed stays failed" Wear.Failed (Wear.write rng p l)

let test_wear_ecp_extends_life () =
  (* with ECP entries a line must survive at least its base endurance *)
  let rng = Xrng.of_seed 2 in
  let base = { Wear.mean_endurance = 100.0; sigma = 0.01; ecp_entries = 0; ecp_extension = 0.5 } in
  let with_ecp = { base with Wear.ecp_entries = 6 } in
  let count params seed =
    let rng2 = Xrng.of_seed seed in
    let l = Wear.fresh_line rng2 params in
    let rec go n =
      match Wear.write rng params l with Wear.Failed -> n | _ -> go (n + 1)
    in
    go 0
  in
  let no_ecp = count base 7 and ecp = count with_ecp 7 in
  Alcotest.(check bool) "ECP extends lifetime" true (ecp > no_ecp)

let test_wear_utilization () =
  let rng = Xrng.of_seed 3 in
  let p = Wear.fast_params in
  let l = Wear.fresh_line rng p in
  check (Alcotest.float 1e-9) "fresh line unused ECP" 0.0 (Wear.ecp_utilization p l)

(* The device's flat wear table against the record model, in lockstep:
   two identically seeded RNGs, the same random writes, and an
   endurance small enough that lines run through their ECP entries to
   failure.  After every write the outcome and the line's writes,
   budget, ECP count and failed flag must agree. *)
let test_wear_table_vs_records () =
  let p = { Wear.mean_endurance = 8.0; sigma = 0.5; ecp_entries = 3; ecp_extension = 0.5 } in
  let nlines = 256 in
  let rng_r = Xrng.of_seed 21 and rng_t = Xrng.of_seed 21 in
  let lines = Array.init nlines (fun _ -> Wear.fresh_line rng_r p) in
  let table = Wear.Table.create rng_t p ~nlines in
  let agree step l =
    let r = lines.(l) in
    if
      r.Wear.writes <> Wear.Table.writes table l
      || r.Wear.budget <> Wear.Table.budget table l
      || r.Wear.failed <> Wear.Table.failed table l
      || Wear.Table.ecp_used table l <> if r.Wear.failed then -1 else r.Wear.ecp_used
    then Alcotest.failf "step %d: line %d's wear state diverged from the record model" step l
  in
  for l = 0 to nlines - 1 do
    agree 0 l
  done;
  let pick = Xrng.of_seed 22 in
  let corrected = ref 0 and failed = ref 0 in
  for step = 1 to 12_000 do
    let l = Xrng.int pick nlines in
    let a = Wear.write rng_r p lines.(l) in
    let b = Wear.Table.write rng_t p table l in
    if a <> b then Alcotest.failf "step %d: line %d's write outcome diverged" step l;
    (match a with
    | Wear.Corrected -> incr corrected
    | Wear.Failed -> incr failed
    | Wear.Ok -> ());
    agree step l
  done;
  Alcotest.(check bool) "ECP corrections happened" true (!corrected > nlines);
  Alcotest.(check int) "every line ran to failure" nlines
    (Array.fold_left (fun n r -> if r.Wear.failed then n + 1 else n) 0 lines);
  Alcotest.(check bool) "failed lines were written again" true (!failed > nlines)

(* ------------------------- Failure buffer ------------------------- *)

let payload c = Bytes.make Geometry.line_bytes c

let test_buffer_forward_and_clear () =
  let fb = Failure_buffer.create ~capacity:8 () in
  ignore (Failure_buffer.insert fb ~addr:5 ~data:(payload 'a'));
  (match Failure_buffer.forward fb ~addr:5 with
  | Some d -> check Alcotest.char "forwards latest data" 'a' (Bytes.get d 0)
  | None -> Alcotest.fail "expected forwarding");
  Alcotest.(check bool) "clear removes" true (Failure_buffer.clear fb ~addr:5);
  check (Alcotest.option Alcotest.reject) "gone after clear" None
    (Option.map ignore (Failure_buffer.forward fb ~addr:5))

let test_buffer_dedup () =
  let fb = Failure_buffer.create ~capacity:8 () in
  ignore (Failure_buffer.insert fb ~addr:5 ~data:(payload 'a'));
  ignore (Failure_buffer.insert fb ~addr:5 ~data:(payload 'b'));
  check Alcotest.int "one entry per address" 1 (Failure_buffer.occupancy fb);
  match Failure_buffer.forward fb ~addr:5 with
  | Some d -> check Alcotest.char "latest wins" 'b' (Bytes.get d 0)
  | None -> Alcotest.fail "expected forwarding"

let test_buffer_fifo_order () =
  let fb = Failure_buffer.create ~capacity:8 () in
  ignore (Failure_buffer.insert fb ~addr:1 ~data:(payload 'x'));
  ignore (Failure_buffer.insert fb ~addr:2 ~data:(payload 'y'));
  match Failure_buffer.peek fb with
  | Some e -> check Alcotest.int "oldest first" 1 e.Failure_buffer.addr
  | None -> Alcotest.fail "expected entry"

let test_buffer_watermark_stall () =
  let fb = Failure_buffer.create ~capacity:4 ~watermark:2 () in
  ignore (Failure_buffer.insert fb ~addr:1 ~data:(payload 'a'));
  Alcotest.(check bool) "not yet stalled" false (Failure_buffer.is_stalled fb);
  ignore (Failure_buffer.insert fb ~addr:2 ~data:(payload 'b'));
  Alcotest.(check bool) "stalled at watermark" true (Failure_buffer.is_stalled fb);
  check Alcotest.int "one stall event" 1 (Failure_buffer.stats fb).Failure_buffer.stall_events;
  ignore (Failure_buffer.clear fb ~addr:1);
  Alcotest.(check bool) "unstalled after drain" false (Failure_buffer.is_stalled fb)

let test_buffer_capacity () =
  let fb = Failure_buffer.create ~capacity:2 ~watermark:2 () in
  ignore (Failure_buffer.insert fb ~addr:1 ~data:(payload 'a'));
  ignore (Failure_buffer.insert fb ~addr:2 ~data:(payload 'b'));
  Alcotest.(check bool) "full buffer rejects" false
    (Failure_buffer.insert fb ~addr:3 ~data:(payload 'c'))

(* ------------------------- Redirect ------------------------- *)

let test_redirect_identity_before_failures () =
  let r = Redirect.create ~region_pages:2 ~region_index:0 () in
  for l = 0 to Redirect.nlines r - 1 do
    if Redirect.translate r l <> l then Alcotest.fail "not identity"
  done;
  Alcotest.(check bool) "no map installed" false (Redirect.is_installed r)

let test_redirect_clusters_failures () =
  let r = Redirect.create ~region_pages:2 ~region_index:0 () in
  (* fail scattered physical lines *)
  List.iter (fun p -> ignore (Redirect.record_failure r ~physical:p)) [ 37; 99; 64; 11 ];
  let unusable = Redirect.unusable_logical r in
  (* Top clustering: unusable must be a contiguous prefix *)
  check (Alcotest.list Alcotest.int) "contiguous prefix"
    (List.init (List.length unusable) Fun.id)
    unusable;
  check Alcotest.int "4 failures" 4 (Redirect.failed_count r);
  check Alcotest.int "meta + failures" (4 + 2) (Redirect.unusable_count r)

let test_redirect_bottom_direction () =
  let r = Redirect.create ~region_pages:2 ~region_index:1 () in
  ignore (Redirect.record_failure r ~physical:5);
  let n = Redirect.nlines r in
  let unusable = Redirect.unusable_logical r in
  check (Alcotest.list Alcotest.int) "contiguous suffix"
    (List.init 3 (fun i -> n - 3 + i))
    unusable

let test_redirect_permutation_invariant () =
  let r = Redirect.create ~region_pages:2 ~region_index:0 () in
  let rng = Xrng.of_seed 8 in
  for _ = 1 to 60 do
    ignore (Redirect.record_failure r ~physical:(Xrng.int rng (Redirect.nlines r)))
  done;
  Alcotest.(check bool) "map stays a permutation" true (Redirect.is_permutation r)

let test_redirect_duplicate_failure () =
  let r = Redirect.create ~region_pages:1 ~region_index:0 () in
  let first = Redirect.record_failure r ~physical:9 in
  Alcotest.(check bool) "first failure reports lines" true (first <> []);
  check (Alcotest.list Alcotest.int) "duplicate is no-op" []
    (Redirect.record_failure r ~physical:9)

let test_redirect_translated_data_lines_live () =
  (* after clustering, every usable logical line maps to a non-dead
     physical line *)
  let r = Redirect.create ~region_pages:2 ~region_index:0 () in
  List.iter (fun p -> ignore (Redirect.record_failure r ~physical:p)) [ 3; 60; 120; 77 ];
  let unusable = Redirect.unusable_logical r in
  for l = 0 to Redirect.nlines r - 1 do
    if not (List.mem l unusable) then begin
      let p = Redirect.translate r l in
      if List.mem p [ 3; 60; 120; 77 ] then
        Alcotest.fail (Printf.sprintf "usable logical %d maps to failed physical %d" l p)
    end
  done

let prop_redirect_cluster_contiguous =
  QCheck.Test.make ~name:"redirect: unusable lines always contiguous at one end" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 100) (int_bound 127))
    (fun physicals ->
      let r = Redirect.create ~region_pages:2 ~region_index:0 () in
      List.iter (fun p -> ignore (Redirect.record_failure r ~physical:p)) physicals;
      let u = Redirect.unusable_logical r in
      Redirect.is_permutation r && u = List.init (List.length u) Fun.id)

(* ------------------------- Wear leveling ------------------------- *)

(* a leveling core wired like the device does it: reserve the gap, then
   account data writes on usable lines only *)
let start_gap_core ~psi ~nlines =
  let t = Wear_level.create ~policy:(Wear_level.Start_gap { psi }) ~nlines ~seed:11 () in
  let reserved = match Wear_level.ensure_gap t with Some r -> r | None -> Alcotest.fail "no gap" in
  (t, reserved)

let test_start_gap_consistent () =
  let t, reserved = start_gap_core ~psi:3 ~nlines:16 in
  for i = 0 to 499 do
    let l = i mod 16 in
    if l <> reserved then Wear_level.on_data_write t l
  done;
  Alcotest.(check bool) "permutation invariant holds" true (Wear_level.is_consistent t);
  Alcotest.(check bool) "gap moved" true (Wear_level.gap_moves t > 0);
  Alcotest.(check bool) "copies charged" true (Wear_level.copies t = Wear_level.gap_moves t)

let test_start_gap_spreads_writes () =
  (* hammering one logical line must hit many physical slots over time *)
  let t, reserved = start_gap_core ~psi:1 ~nlines:8 in
  let hot = if reserved = 0 then 1 else 0 in
  let slots = Hashtbl.create 16 in
  for _ = 1 to 100 do
    Wear_level.on_data_write t hot;
    Hashtbl.replace slots (Wear_level.translate t hot) ()
  done;
  Alcotest.(check bool) "single hot line spread over >=4 slots" true (Hashtbl.length slots >= 4)

let test_random_decoder_consistent () =
  List.iter
    (fun policy ->
      let t = Wear_level.create ~policy ~nlines:32 ~seed:23 () in
      for i = 0 to 999 do
        Wear_level.on_data_write t (i mod 32)
      done;
      Alcotest.(check bool) "permutation invariant holds" true (Wear_level.is_consistent t);
      Alcotest.(check bool) "remaps happened" true (Wear_level.remaps t > 0);
      Alcotest.(check int) "two copies per remap" (2 * Wear_level.remaps t) (Wear_level.copies t);
      Alcotest.(check int) "one meta write per remap" (Wear_level.remaps t)
        (Wear_level.meta_writes t))
    [ Wear_level.Random_remap { psi = 4 }; Wear_level.Decoder_swap { psi = 4 } ]

let test_frozen_pairs_pinned () =
  (* a slot reported unusable never moves again, under any mover *)
  let t = Wear_level.create ~policy:(Wear_level.Random_remap { psi = 1 }) ~nlines:16 ~seed:3 () in
  (match Wear_level.on_slot_unusable t ~slot:5 with
  | Some l -> Alcotest.(check int) "identity map: slot 5 holds logical 5" 5 l
  | None -> Alcotest.fail "fresh slot must report a newly unusable logical line");
  Alcotest.(check (option int)) "re-reporting is absorbed" None (Wear_level.on_slot_unusable t ~slot:5);
  for i = 0 to 499 do
    Wear_level.on_data_write t (i mod 16)
  done;
  Alcotest.(check int) "frozen logical line never remapped" 5 (Wear_level.translate t 5);
  Alcotest.(check bool) "permutation invariant holds" true (Wear_level.is_consistent t)

(* ------------------------- Failure maps ------------------------- *)

let test_uniform_exact_count () =
  let rng = Xrng.of_seed 4 in
  let map = Failure_map.uniform rng ~nlines:1000 ~rate:0.25 in
  check Alcotest.int "exact failure count" 250 (Bitset.count map)

let test_clustered_granule () =
  let rng = Xrng.of_seed 5 in
  let map = Failure_map.clustered rng ~nlines:1024 ~rate:0.25 ~granule_lines:8 in
  check Alcotest.int "rate preserved" 256 (Bitset.count map);
  (* every failed run is a whole aligned granule *)
  for g = 0 to 127 do
    let first = Bitset.get map (g * 8) in
    for i = 1 to 7 do
      if Bitset.get map ((g * 8) + i) <> first then Alcotest.fail "granule not uniform"
    done
  done

let test_cluster_transform_preserves_count () =
  let rng = Xrng.of_seed 6 in
  let map = Failure_map.uniform rng ~nlines:(64 * 16) ~rate:0.3 in
  let t = Failure_map.cluster_transform map ~region_pages:2 in
  check Alcotest.int "same failures" (Bitset.count map) (Bitset.count t)

let test_cluster_transform_clusters () =
  let rng = Xrng.of_seed 7 in
  let map = Failure_map.uniform rng ~nlines:(64 * 4) ~rate:0.2 in
  let t = Failure_map.cluster_transform map ~region_pages:2 in
  (* region 0 (even): failures at start; region 1 (odd): at end *)
  let rl = 128 in
  let count_region r =
    let c = ref 0 in
    for i = 0 to rl - 1 do
      if Bitset.get t ((r * rl) + i) then incr c
    done;
    !c
  in
  let k0 = count_region 0 in
  for i = 0 to k0 - 1 do
    if not (Bitset.get t i) then Alcotest.fail "even region not prefix-clustered"
  done;
  let k1 = count_region 1 in
  for i = 0 to k1 - 1 do
    if not (Bitset.get t (rl + rl - 1 - i)) then Alcotest.fail "odd region not suffix-clustered"
  done

let test_cluster_transform_perfect_pages () =
  (* 2-page clustering at <50% failures yields >= one perfect page per
     two-page region (the paper's key property, Sec. 6.4) *)
  let rng = Xrng.of_seed 8 in
  let npages = 64 in
  let map = Failure_map.uniform rng ~nlines:(64 * npages) ~rate:0.4 in
  let t = Failure_map.cluster_transform map ~region_pages:2 in
  Alcotest.(check bool) "at least half the pages perfect" true
    (Failure_map.perfect_pages t >= npages / 2)

let prop_cluster_transform_preserves =
  QCheck.Test.make ~name:"cluster transform preserves failure count" ~count:100
    QCheck.(pair (int_bound 1000) (map (fun x -> 0.6 *. x) (float_range 0.0 1.0)))
    (fun (seed, rate) ->
      let rng = Xrng.of_seed seed in
      let map = Failure_map.uniform rng ~nlines:(64 * 8) ~rate in
      let t1 = Failure_map.cluster_transform map ~region_pages:1 in
      let t2 = Failure_map.cluster_transform map ~region_pages:2 in
      Bitset.count t1 = Bitset.count map && Bitset.count t2 = Bitset.count map)

(* ------------------------- Device ------------------------- *)

let test_device_write_read () =
  let d = Device.create ~seed:1 () in
  let data = payload 'z' in
  (match Device.write d 10 data with
  | Device.Stored -> ()
  | _ -> Alcotest.fail "expected Stored");
  check Alcotest.char "read back" 'z' (Bytes.get (Device.read d 10) 0)

let test_device_wear_out_and_notify () =
  let cfg =
    {
      Device.default_config with
      Device.pages = 2;
      wear = { Wear.mean_endurance = 30.0; sigma = 0.05; ecp_entries = 1; ecp_extension = 0.1 };
    }
  in
  let d = Device.create ~config:cfg ~seed:2 () in
  let notified = ref [] in
  let failed_addr = ref (-1) in
  Device.on_line_failed d (fun ~addr ~unusable ->
      failed_addr := addr;
      notified := unusable @ !notified);
  (* hammer line 40 until it fails *)
  let rec hammer n =
    if n > 100_000 then Alcotest.fail "no failure"
    else
      match Device.write d 40 (payload 'q') with
      | Device.Write_failed -> ()
      | Device.Stored -> hammer (n + 1)
      | Device.Stalled ->
          (* drain via OS path *)
          List.iter (fun l -> ignore (Device.drain_failure d l)) !notified;
          hammer (n + 1)
      | Device.Unusable -> Alcotest.fail "line 40 refused before it failed"
  in
  hammer 0;
  Alcotest.(check bool) "OS notified of unusable lines" true (!notified <> []);
  check Alcotest.int "failing address reported" 40 !failed_addr;
  (* data preserved in the failure buffer and forwarded on reads of the
     issuing address until the OS drains it *)
  check Alcotest.char "failed write forwarded" 'q' (Bytes.get (Device.read d 40) 0)

(* A write to a line that is already unusable is refused before the
   stall check and changes nothing: no write or failure counted, no
   buffer entry, no wear, no interrupt. *)
let test_device_write_unusable () =
  let cfg =
    {
      Device.default_config with
      Device.pages = 2;
      wear = { Wear.mean_endurance = 30.0; sigma = 0.05; ecp_entries = 1; ecp_extension = 0.1 };
      (* watermark 1: the first failure stalls the device *)
      buffer_capacity = 2;
    }
  in
  let d = Device.create ~config:cfg ~seed:2 () in
  let interrupts = ref 0 in
  Device.on_line_failed d (fun ~addr:_ ~unusable:_ -> incr interrupts);
  let rec hammer n =
    if n > 100_000 then Alcotest.fail "no failure"
    else
      match Device.write d 40 (payload 'q') with
      | Device.Write_failed -> ()
      | Device.Stored -> hammer (n + 1)
      | Device.Stalled | Device.Unusable -> Alcotest.fail "line 40 refused before it failed"
  in
  hammer 0;
  let dead =
    match Device.unusable_lines d with
    | l :: _ -> l
    | [] -> Alcotest.fail "the failure left no unusable line"
  in
  let refused ~when_ =
    let stats = Device.stats d and occupancy = Device.buffer_occupancy d in
    let wear = Device.page_wear d (dead / Geometry.lines_per_page) and irqs = !interrupts in
    (match Device.write d dead (payload 'r') with
    | Device.Unusable -> ()
    | _ -> Alcotest.failf "%s: write to unusable line %d not refused" when_ dead);
    Alcotest.(check bool) (when_ ^ ": counters unchanged") true (Device.stats d = stats);
    check Alcotest.int (when_ ^ ": no buffer entry") occupancy (Device.buffer_occupancy d);
    check Alcotest.int (when_ ^ ": no wear")
      wear (Device.page_wear d (dead / Geometry.lines_per_page));
    check Alcotest.int (when_ ^ ": no interrupt") irqs !interrupts
  in
  Alcotest.(check bool) "first failure stalls" true (Failure_buffer.is_stalled (Device.buffer d));
  refused ~when_:"stalled";
  ignore (Device.drain_failure d 40);
  Alcotest.(check bool) "drain unstalls" false (Failure_buffer.is_stalled (Device.buffer d));
  refused ~when_:"unstalled"

let test_device_unusable_accounting () =
  let d = Device.create ~seed:3 () in
  check (Alcotest.list Alcotest.int) "fresh device fully usable" [] (Device.unusable_lines d)

let suite =
  [
    ("geometry constants", `Quick, test_geometry);
    ("redirection map is the paper's 889 bits", `Quick, test_redirection_map_889_bits);
    ("failure map page stats", `Quick, test_failure_map_page_stats);
    ("wear-level identity translate", `Quick, test_wear_level_translate_identity);
    ("wear exhaustion", `Quick, test_wear_exhaustion);
    ("wear ECP extends life", `Quick, test_wear_ecp_extends_life);
    ("wear utilization", `Quick, test_wear_utilization);
    ("wear table matches the record model", `Quick, test_wear_table_vs_records);
    ("buffer forward+clear", `Quick, test_buffer_forward_and_clear);
    ("buffer dedup", `Quick, test_buffer_dedup);
    ("buffer FIFO order", `Quick, test_buffer_fifo_order);
    ("buffer watermark stall", `Quick, test_buffer_watermark_stall);
    ("buffer capacity", `Quick, test_buffer_capacity);
    ("redirect identity", `Quick, test_redirect_identity_before_failures);
    ("redirect clusters failures", `Quick, test_redirect_clusters_failures);
    ("redirect bottom direction", `Quick, test_redirect_bottom_direction);
    ("redirect permutation invariant", `Quick, test_redirect_permutation_invariant);
    ("redirect duplicate failure", `Quick, test_redirect_duplicate_failure);
    ("redirect usable lines map to live physical", `Quick, test_redirect_translated_data_lines_live);
    ("start-gap consistent", `Quick, test_start_gap_consistent);
    ("start-gap spreads writes", `Quick, test_start_gap_spreads_writes);
    ("random/decoder movers consistent", `Quick, test_random_decoder_consistent);
    ("frozen pairs pinned", `Quick, test_frozen_pairs_pinned);
    ("uniform map exact count", `Quick, test_uniform_exact_count);
    ("clustered map granules", `Quick, test_clustered_granule);
    ("cluster transform count", `Quick, test_cluster_transform_preserves_count);
    ("cluster transform geometry", `Quick, test_cluster_transform_clusters);
    ("cluster transform perfect pages", `Quick, test_cluster_transform_perfect_pages);
    ("device write/read", `Quick, test_device_write_read);
    ("device wear-out notify + forward", `Quick, test_device_wear_out_and_notify);
    ("device unusable accounting", `Quick, test_device_unusable_accounting);
    ("device write to an unusable line is a no-op", `Quick, test_device_write_unusable);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_redirect_cluster_contiguous; prop_cluster_transform_preserves ]
