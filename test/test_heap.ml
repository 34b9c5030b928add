(* Tests for the heap substrate: object table, blocks/line marks, page
   stock and remembered set. *)

open Holes_heap
module Bitset = Holes_stdx.Bitset
module Xrng = Holes_stdx.Xrng

let check = Alcotest.check

(* ------------------------- Units ------------------------- *)

let test_units () =
  check Alcotest.int "block = 8 pages" 8 Units.pages_per_block;
  Alcotest.(check bool) "256 valid line size" true (Units.valid_line_size 256);
  Alcotest.(check bool) "100 invalid line size" false (Units.valid_line_size 100);
  check Alcotest.int "lines per block at 256B" 128 (Units.lines_per_block ~line_size:256);
  check Alcotest.int "alignment" 64 (Units.aligned_size 57);
  check Alcotest.int "minimum size" 8 (Units.aligned_size 1)

(* ------------------------- Object table ------------------------- *)

let test_object_lifecycle () =
  let t = Object_table.create () in
  let id = Object_table.alloc t ~addr:100 ~size:64 ~pinned:false ~los:false in
  Alcotest.(check bool) "alive" true (Object_table.is_alive t id);
  Alcotest.(check bool) "nursery" true (Object_table.is_nursery t id);
  check Alcotest.int "live bytes" 64 (Object_table.live_bytes t);
  Object_table.kill t id;
  Alcotest.(check bool) "dead" false (Object_table.is_alive t id);
  check Alcotest.int "live bytes zero" 0 (Object_table.live_bytes t);
  Object_table.release t id;
  (* id gets recycled *)
  let id2 = Object_table.alloc t ~addr:200 ~size:32 ~pinned:true ~los:false in
  check Alcotest.int "slot recycled" id id2;
  Alcotest.(check bool) "pinned" true (Object_table.is_pinned t id2)

let test_object_refs_capped () =
  let t = Object_table.create () in
  let a = Object_table.alloc t ~addr:0 ~size:8 ~pinned:false ~los:false in
  let b = Object_table.alloc t ~addr:8 ~size:8 ~pinned:false ~los:false in
  for _ = 1 to 20 do
    Object_table.add_ref t ~src:a ~dst:b
  done;
  Alcotest.(check bool) "fan-out capped" true (List.length (Object_table.refs t a) <= 8)

let test_object_release_alive_rejected () =
  let t = Object_table.create () in
  let id = Object_table.alloc t ~addr:0 ~size:8 ~pinned:false ~los:false in
  Alcotest.check_raises "cannot release live"
    (Invalid_argument "Object_table.release: object still alive") (fun () ->
      Object_table.release t id)

let test_object_growth () =
  let t = Object_table.create () in
  for i = 0 to 5000 do
    ignore (Object_table.alloc t ~addr:(i * 8) ~size:8 ~pinned:false ~los:false)
  done;
  check Alcotest.int "all live" 5001 (Object_table.live_count t)

(* The occupancy and liveness bitmaps in lockstep with a naive model:
   random small and LOS allocations, kills, releases and relocations on
   a fresh table, growing it through three doublings.  After every
   operation [iter_slots] must list exactly the ids a naive per-id scan
   finds with [addr >= 0], ascending, and the liveness bitmap must
   agree with [is_alive] at every position. *)
let test_slot_bitmaps_vs_model () =
  let rng = Xrng.of_seed 0x5107 in
  let t = Object_table.create () in
  let page = Holes_pcm.Geometry.page_bytes in
  (* ids below [hw] have been handed out; addresses are fresh,
     page-aligned and disjoint, so LOS objects never share a page *)
  let hw = ref 0 and next_page = ref 0 in
  let fresh_addr size =
    let a = !next_page * page in
    next_page := !next_page + 1 + (size / page);
    a
  in
  let check_state step what =
    let rec next_occupied id =
      if id < !hw && Object_table.addr t id < 0 then next_occupied (id + 1) else id
    in
    let expect = ref (next_occupied 0) in
    Object_table.iter_slots t (fun id ->
        if id <> !expect then
          Alcotest.failf "step %d (%s): iter_slots visited %d, the model expects %d" step what id
            !expect;
        expect := next_occupied (id + 1));
    if !expect < !hw then
      Alcotest.failf "step %d (%s): iter_slots missed occupied slot %d" step what !expect;
    let alive = Object_table.alive t in
    for id = 0 to Bitset.length alive - 1 do
      if Bitset.get alive id <> Object_table.is_alive t id then
        Alcotest.failf "step %d (%s): alive bit %d disagrees with is_alive" step what id
    done
  in
  for step = 1 to 12_000 do
    let pick () = Xrng.int rng (max 1 !hw) in
    let r = Xrng.int rng 100 in
    let what =
      if r < 55 || !hw = 0 then begin
        let los = Xrng.int rng 10 = 0 in
        let size = if los then page * (1 + Xrng.int rng 3) else 16 + Xrng.int rng 240 in
        let id =
          Object_table.alloc t ~addr:(fresh_addr size) ~size ~pinned:(Xrng.bool rng) ~los
        in
        hw := max !hw (id + 1);
        if los then "alloc los" else "alloc"
      end
      else if r < 75 then begin
        Object_table.kill t (pick ());
        "kill"
      end
      else if r < 90 then begin
        let id = pick () in
        if not (Object_table.is_alive t id) then Object_table.release t id;
        "release"
      end
      else begin
        let id = pick () in
        if Object_table.addr t id >= 0 then
          Object_table.relocate t id ~new_addr:(fresh_addr (Object_table.size t id));
        "relocate"
      end
    in
    check_state step what
  done;
  Alcotest.(check bool) "grew through three doublings" true
    (Bitset.length (Object_table.occupied t) >= 8 * 1024)

(* ------------------------- Block ------------------------- *)

let empty_bitmap = Bitset.create Holes_pcm.Geometry.lines_per_page

let make_block ?(line_size = 256) ?(bitmaps : Bitset.t array option) () =
  let bitmaps =
    match bitmaps with Some b -> b | None -> Array.make Units.pages_per_block empty_bitmap
  in
  Block.create ~tbl:(Block.table_create ()) ~index:0 ~base:0 ~line_size
    ~pages:(Array.init Units.pages_per_block Fun.id)
    ~page_bitmap:(fun id -> bitmaps.(id))

let test_block_fresh () =
  let b = make_block () in
  check Alcotest.int "all lines free" 128 (Block.free_lines b);
  Alcotest.(check bool) "empty" true (Block.is_empty b);
  Alcotest.(check bool) "perfect" true (Block.is_perfect b);
  check Alcotest.int "one big hole" 1 (Block.count_holes b)

let test_block_false_failure_widening () =
  (* one failed 64B PCM line must fail the whole 256B logical line *)
  let bm = Bitset.create Holes_pcm.Geometry.lines_per_page in
  Bitset.set bm 1 (* second 64B line of page 0 *);
  let bitmaps = Array.make Units.pages_per_block empty_bitmap in
  bitmaps.(0) <- bm;
  let b = make_block ~bitmaps () in
  check Alcotest.int "one logical line failed" 1 (Block.failed_lines b);
  Alcotest.(check bool) "line 0 failed (widened)" true (Block.is_failed_line b 0);
  (* with 64B logical lines there is no widening *)
  let b64 = make_block ~line_size:64 ~bitmaps () in
  check Alcotest.int "exactly one 64B line failed" 1 (Block.failed_lines b64);
  Alcotest.(check bool) "line 1 failed" true (Block.is_failed_line b64 1);
  Alcotest.(check bool) "line 0 fine" false (Block.is_failed_line b64 0)

let test_block_object_lines () =
  let b = make_block () in
  Block.add_object_lines b ~addr:0 ~size:300 (* spans lines 0-1 *);
  check Alcotest.int "two lines live" (128 - 2) (Block.free_lines b);
  Block.add_object_lines b ~addr:300 ~size:100 (* within line 1 *);
  check Alcotest.int "shared line" (128 - 2) (Block.free_lines b);
  Block.remove_object_lines b ~addr:0 ~size:300;
  check Alcotest.int "line 1 still live" (128 - 1) (Block.free_lines b);
  Block.remove_object_lines b ~addr:300 ~size:100;
  Alcotest.(check bool) "empty again" true (Block.is_empty b)

let test_block_alloc_over_failed_rejected () =
  let bm = Bitset.create Holes_pcm.Geometry.lines_per_page in
  Bitset.set bm 0;
  let bitmaps = Array.make Units.pages_per_block empty_bitmap in
  bitmaps.(0) <- bm;
  let b = make_block ~bitmaps () in
  Alcotest.check_raises "allocation over failed line rejected"
    (Invalid_argument "Block.add_object_lines: allocation overlaps a failed line") (fun () ->
      Block.add_object_lines b ~addr:0 ~size:64)

let test_block_find_hole_skips_failed () =
  let bm = Bitset.create Holes_pcm.Geometry.lines_per_page in
  (* fail PCM lines covering logical lines 0 and 1 (256B logical = 4 PCM) *)
  for i = 0 to 7 do
    Bitset.set bm i
  done;
  let bitmaps = Array.make Units.pages_per_block empty_bitmap in
  bitmaps.(0) <- bm;
  let b = make_block ~bitmaps () in
  match Block.find_hole b ~from_line:0 ~min_bytes:256 with
  | Some (s, e, _) ->
      check Alcotest.int "hole starts after failures" 2 s;
      check Alcotest.int "hole extends to block end" 128 e
  | None -> Alcotest.fail "expected a hole"

let test_block_find_hole_min_bytes () =
  let b = make_block () in
  (* occupy lines 1-2, leaving a 1-line hole at 0 and a tail from 3 *)
  Block.add_object_lines b ~addr:256 ~size:512;
  (match Block.find_hole b ~from_line:0 ~min_bytes:512 with
  | Some (s, _, _) -> check Alcotest.int "skips small hole" 3 s
  | None -> Alcotest.fail "expected hole");
  match Block.find_hole b ~from_line:0 ~min_bytes:256 with
  | Some (s, e, _) ->
      check Alcotest.int "first small hole" 0 s;
      check Alcotest.int "hole is single line" 1 e
  | None -> Alcotest.fail "expected hole"

let test_block_dynamic_fail_line () =
  let b = make_block () in
  Alcotest.(check bool) "was free" true (Block.fail_line b ~line:5 = `Was_free);
  Alcotest.(check bool) "already failed" true (Block.fail_line b ~line:5 = `Already_failed);
  check Alcotest.int "failed count" 1 (Block.failed_lines b);
  check Alcotest.int "free shrank" 127 (Block.free_lines b)

let test_block_clear_marks_preserves_failed () =
  let b = make_block () in
  ignore (Block.fail_line b ~line:7);
  Block.add_object_lines b ~addr:0 ~size:256;
  Block.clear_marks b;
  Alcotest.(check bool) "failed preserved" true (Block.is_failed_line b 7);
  check Alcotest.int "others free" 127 (Block.free_lines b)

(* ------------------------- Page stock ------------------------- *)

let stock_with_rate rate npages =
  let rng = Xrng.of_seed 77 in
  let map =
    Holes_pcm.Failure_map.uniform rng ~nlines:(npages * Holes_pcm.Geometry.lines_per_page) ~rate
  in
  Page_stock.create ~device_map:map ~npages ()

let test_stock_pools () =
  let s = stock_with_rate 0.0 8 in
  check Alcotest.int "all perfect" 8 (Page_stock.free_perfect_count s);
  let s2 = stock_with_rate 0.5 64 in
  Alcotest.(check bool) "most imperfect at 50%" true (Page_stock.free_imperfect_count s2 > 56)

let test_stock_relaxed_prefers_imperfect () =
  let rng = Xrng.of_seed 3 in
  let npages = 4 in
  let map = Bitset.create (npages * 64) in
  Bitset.set map (64 * 2) (* page 2 imperfect *);
  ignore rng;
  let s = Page_stock.create ~device_map:map ~npages () in
  check (Alcotest.option Alcotest.int) "imperfect page first" (Some 2) (Page_stock.take_relaxed s)

let test_stock_debit_credit_flow () =
  let npages = 4 in
  let map = Bitset.create (npages * 64) in
  let s = Page_stock.create ~device_map:map ~npages () in
  (* exhaust perfect pool: 4 takes *)
  for _ = 1 to 4 do
    match Page_stock.take_perfect s with
    | Page_stock.Perfect _ -> ()
    | _ -> Alcotest.fail "expected perfect"
  done;
  (* next perfect request borrows (budget: extra_free default 0 => free_pages 0 => exhausted!) *)
  (match Page_stock.take_perfect s with
  | Page_stock.Exhausted -> ()
  | _ -> Alcotest.fail "expected exhausted with empty stock");
  (* return a page; now borrowing is within budget *)
  Page_stock.return_page s 0;
  (match Page_stock.take_perfect s with
  | Page_stock.Perfect 0 -> ()
  | _ -> Alcotest.fail "returned page served");
  Page_stock.return_page s 0;
  Page_stock.return_page s 1;
  (match Page_stock.take_perfect s with
  | Page_stock.Perfect _ -> ()
  | _ -> Alcotest.fail "perfect available");
  (match Page_stock.take_perfect s with
  | Page_stock.Perfect _ -> ()
  | _ -> Alcotest.fail "perfect available 2");
  ()

let test_stock_borrow_and_repay () =
  let npages = 8 in
  let map = Bitset.create (npages * 64) in
  (* make half the pages imperfect so relaxed has a supply *)
  for p = 0 to 3 do
    Bitset.set map (p * 64)
  done;
  let s = Page_stock.create ~device_map:map ~npages () in
  (* drain perfect pool (pages 4..7) *)
  for _ = 1 to 4 do
    ignore (Page_stock.take_perfect s)
  done;
  (* borrow one page (4 imperfect still free → budget ok) *)
  (match Page_stock.take_perfect s with
  | Page_stock.Borrowed -> ()
  | _ -> Alcotest.fail "expected borrow");
  check Alcotest.int "borrowed in use" 1 (Page_stock.borrowed_in_use s);
  check Alcotest.int "debt" 1 (Holes_osal.Accounting.debt (Page_stock.accounting s));
  (* return a perfect page; relaxed must decline it to repay the debt *)
  Page_stock.return_page s 7;
  for p = 0 to 3 do
    ignore (Page_stock.take_relaxed s |> Option.get);
    ignore p
  done;
  (* the next relaxed take sees the perfect page, declines it (repaying),
     and comes up empty *)
  (match Page_stock.take_relaxed s with
  | None -> ()
  | Some _ -> Alcotest.fail "expected decline-then-empty");
  check Alcotest.int "debt repaid" 0 (Holes_osal.Accounting.debt (Page_stock.accounting s));
  check Alcotest.int "repaid page recorded" 1 (Page_stock.repaid_pages s)

let test_stock_dynamic_failure_migration () =
  let npages = 2 in
  let map = Bitset.create (npages * 64) in
  let s = Page_stock.create ~device_map:map ~npages () in
  Page_stock.mark_line_failed s ~id:0 ~line:5;
  check Alcotest.int "perfect shrank" 1 (Page_stock.free_perfect_count s);
  check Alcotest.int "imperfect grew" 1 (Page_stock.free_imperfect_count s);
  check Alcotest.int "failed lines recorded" 1 (Page_stock.page s 0).Page_stock.failed_lines

(* ------------------------- Remset ------------------------- *)

(* The pool tags against a List.mem model: random takes, returns and
   dynamic failures on two stocks (a 1 KB logical line lets failures
   kill imperfect pages).  Before each failure the model predicts the
   free and dead lists by searching them, as the stock did before it
   kept tags; after every operation each page's tag must agree with
   List.mem on both free lists, and the counts with the lists. *)
let test_stock_tags_vs_model () =
  let lpp = Holes_pcm.Geometry.lines_per_page in
  List.iter
    (fun (line_size, seed) ->
      let npages = 48 in
      let map =
        Holes_pcm.Failure_map.uniform (Xrng.of_seed seed) ~nlines:(npages * lpp) ~rate:0.01
      in
      let s = Page_stock.create ~line_size ~device_map:map ~npages () in
      let rng = Xrng.of_seed (seed + 1) in
      let held = ref [] in
      let predict_failure ~id ~line =
        let p = Page_stock.page s id in
        let lists = (s.Page_stock.free_perfect, s.Page_stock.free_imperfect, s.Page_stock.dead) in
        if Bitset.get p.Page_stock.bitmap line then lists
        else begin
          let bitmap = Bitset.copy p.Page_stock.bitmap in
          Bitset.set bitmap line;
          let dies = Page_stock.count_usable_logical ~line_size bitmap = 0 in
          let perfect, imperfect, dead = lists in
          let was_perfect = p.Page_stock.failed_lines = 0 in
          if was_perfect && List.mem id perfect then
            let perfect = List.filter (fun x -> x <> id) perfect in
            if dies then (perfect, imperfect, id :: dead) else (perfect, id :: imperfect, dead)
          else if (not was_perfect) && List.mem id imperfect && dies then
            (perfect, List.filter (fun x -> x <> id) imperfect, id :: dead)
          else lists
        end
      in
      let check_tags step =
        let perfect = s.Page_stock.free_perfect and imperfect = s.Page_stock.free_imperfect in
        Array.iter
          (fun (p : Page_stock.page) ->
            let id = p.Page_stock.id in
            if
              (p.Page_stock.pool = Page_stock.Free_perfect) <> List.mem id perfect
              || (p.Page_stock.pool = Page_stock.Free_imperfect) <> List.mem id imperfect
            then Alcotest.failf "step %d: page %d's pool tag disagrees with the free lists" step id)
          s.Page_stock.pages;
        if
          List.length perfect <> Page_stock.free_perfect_count s
          || List.length imperfect <> Page_stock.free_imperfect_count s
          || List.length s.Page_stock.dead <> Page_stock.dead_count s
        then Alcotest.failf "step %d: pool counts disagree with the lists" step
      in
      check_tags 0;
      for step = 1 to 4000 do
        (match Xrng.int rng 4 with
        | 0 -> Option.iter (fun id -> held := id :: !held) (Page_stock.take_relaxed s)
        | 1 -> (
            match Page_stock.take_perfect s with
            | Page_stock.Perfect id -> held := id :: !held
            | Page_stock.Borrowed -> Page_stock.return_borrowed s
            | Page_stock.Exhausted -> ())
        | 2 -> (
            match !held with
            | [] -> ()
            | _ ->
                let id = List.nth !held (Xrng.int rng (List.length !held)) in
                held := List.filter (fun x -> x <> id) !held;
                Page_stock.return_page s id)
        | _ ->
            let id = Xrng.int rng npages and line = Xrng.int rng lpp in
            let perfect, imperfect, dead = predict_failure ~id ~line in
            Page_stock.mark_line_failed s ~id ~line;
            if
              perfect <> s.Page_stock.free_perfect
              || imperfect <> s.Page_stock.free_imperfect
              || dead <> s.Page_stock.dead
            then Alcotest.failf "step %d: failing line %d of page %d moved the wrong pages" step line id);
        check_tags step
      done;
      if line_size > 64 && Page_stock.dead_count s = 0 then
        Alcotest.fail "no page died: the dead path went untested")
    [ (64, 11); (1024, 12) ]

let test_remset () =
  let r = Remset.create () in
  Alcotest.(check bool) "first record" true (Remset.record r ~src:5);
  Alcotest.(check bool) "duplicate filtered" false (Remset.record r ~src:5);
  check Alcotest.int "one entry" 1 (Remset.size r);
  check Alcotest.int "two barrier hits" 2 (Remset.barrier_hits r);
  Remset.clear r;
  check Alcotest.int "cleared" 0 (Remset.size r);
  Alcotest.(check bool) "records again after clear" true (Remset.record r ~src:5)

let suite =
  [
    ("units", `Quick, test_units);
    ("object lifecycle", `Quick, test_object_lifecycle);
    ("object refs capped", `Quick, test_object_refs_capped);
    ("object release-alive rejected", `Quick, test_object_release_alive_rejected);
    ("object table growth", `Quick, test_object_growth);
    ("slot bitmaps match a naive model", `Quick, test_slot_bitmaps_vs_model);
    ("block fresh", `Quick, test_block_fresh);
    ("block false-failure widening", `Quick, test_block_false_failure_widening);
    ("block object line accounting", `Quick, test_block_object_lines);
    ("block rejects alloc over failed", `Quick, test_block_alloc_over_failed_rejected);
    ("block find_hole skips failed", `Quick, test_block_find_hole_skips_failed);
    ("block find_hole min bytes", `Quick, test_block_find_hole_min_bytes);
    ("block dynamic fail_line", `Quick, test_block_dynamic_fail_line);
    ("block clear_marks preserves failed", `Quick, test_block_clear_marks_preserves_failed);
    ("stock pools", `Quick, test_stock_pools);
    ("stock relaxed prefers imperfect", `Quick, test_stock_relaxed_prefers_imperfect);
    ("stock perfect exhaustion", `Quick, test_stock_debit_credit_flow);
    ("stock borrow and repay", `Quick, test_stock_borrow_and_repay);
    ("stock dynamic failure migration", `Quick, test_stock_dynamic_failure_migration);
    ("stock pool tags match a List.mem model", `Quick, test_stock_tags_vs_model);
    ("remset", `Quick, test_remset);
  ]
