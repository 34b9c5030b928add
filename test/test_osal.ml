(* Tests for the OS abstraction layer: pools, failure table, VMM,
   interrupt handling, DRAM frame reuse by the tier, swap policies and
   debit-credit accounting. *)

open Holes_osal
module Pcm = Holes_pcm
module Bitset = Holes_stdx.Bitset

let check = Alcotest.check

(* ------------------------- Pools ------------------------- *)

(* a PCM page's kind follows its failure bitmap in the pools' table *)
let test_page_kinds () =
  let t = Pools.create ~dram_pages:1 ~pcm_pages:4 in
  check Alcotest.int "perfect" Pools.lines_per_page (Pools.usable_lines t 3);
  Alcotest.(check bool) "first failure marks" true (Pools.mark_line_failed t ~page:3 ~line:7);
  Alcotest.(check bool) "in the failure table" true
    (Failure_table.is_failed (Pools.table t) ~page:2 ~line:7);
  Alcotest.(check bool) "duplicate is no-op" false (Pools.mark_line_failed t ~page:3 ~line:7);
  check Alcotest.int "usable lines" 63 (Pools.usable_lines t 3)

let test_page_dram_never_fails () =
  let t = Pools.create ~dram_pages:1 ~pcm_pages:1 in
  Alcotest.check_raises "DRAM cannot fail"
    (Invalid_argument "Pools.mark_line_failed: DRAM pages do not fail") (fun () ->
      ignore (Pools.mark_line_failed t ~page:0 ~line:0))

let test_pools_alloc_free () =
  let t = Pools.create ~dram_pages:2 ~pcm_pages:4 in
  check Alcotest.int "dram" 2 (Pools.free_dram_count t);
  check Alcotest.int "perfect" 4 (Pools.free_perfect_count t);
  let d = Pools.alloc_dram t in
  let p = Option.get (Pools.alloc_perfect t) in
  check Alcotest.int "dram taken" 1 (Pools.free_dram_count t);
  Pools.free t d;
  Pools.free t p;
  check Alcotest.int "dram back" 2 (Pools.free_dram_count t);
  check Alcotest.int "perfect back" 4 (Pools.free_perfect_count t)

let test_pools_imperfect_migration () =
  let t = Pools.create ~dram_pages:0 ~pcm_pages:3 in
  ignore (Pools.mark_line_failed t ~page:1 ~line:5);
  check Alcotest.int "perfect shrinks" 2 (Pools.free_perfect_count t);
  check Alcotest.int "imperfect grows" 1 (Pools.free_imperfect_count t);
  (* imperfect alloc prefers most-usable page *)
  ignore (Pools.mark_line_failed t ~page:1 ~line:6);
  let got = Option.get (Pools.alloc_imperfect t) in
  check Alcotest.int "degraded page served" 1 got

let test_pools_pcm_any_prefers_imperfect () =
  let t = Pools.create ~dram_pages:0 ~pcm_pages:2 in
  ignore (Pools.mark_line_failed t ~page:0 ~line:0);
  check Alcotest.int "imperfect first" 0 (Option.get (Pools.alloc_pcm_any t))

(* The three free lists, checked in lockstep against a naive model that
   keeps each page's kind in a descriptor and finds list membership with
   [List.mem].  Random grants (perfect with and without a wear rank),
   frees and line failures on free pages, held pages and repeated lines;
   after every operation the lists must equal the model's, in order. *)
type model_kind = M_dram | M_perfect | M_imperfect

let test_pools_match_model () =
  let lpp = Pcm.Geometry.lines_per_page in
  let dram_pages = 4 and pcm_pages = 24 in
  let n = dram_pages + pcm_pages in
  let rank id = id * 7 mod 5 in
  for seed = 1 to 20 do
    let rng = Holes_stdx.Xrng.of_seed seed in
    let t = Pools.create ~dram_pages ~pcm_pages in
    let kind = Array.init n (fun id -> if id < dram_pages then M_dram else M_perfect) in
    let failed = Array.init n (fun _ -> Bitset.create lpp) in
    let held = Array.make n false in
    let dram = ref (List.init dram_pages Fun.id) in
    let perfect = ref (List.init pcm_pages (fun i -> dram_pages + i)) in
    let imperfect = ref [] in
    let ranked = ref false in
    let usable id = lpp - Bitset.count failed.(id) in
    (* most usable first; a page goes after every page as usable as it *)
    let insert id =
      let rec ins = function
        | [] -> [ id ]
        | x :: rest as l -> if usable x < usable id then id :: l else x :: ins rest
      in
      imperfect := ins !imperfect
    in
    let grant l =
      match !l with
      | [] -> None
      | id :: rest ->
          l := rest;
          held.(id) <- true;
          Some id
    in
    let grant_perfect () =
      match !perfect with
      | [] -> None
      | first :: rest ->
          let best =
            if !ranked then
              List.fold_left (fun b id -> if rank id < rank b then id else b) first rest
            else first
          in
          perfect := List.filter (fun x -> x <> best) !perfect;
          held.(best) <- true;
          Some best
    in
    let held_pages () = List.filter (fun id -> held.(id)) (List.init n Fun.id) in
    let held_marks = ref 0 and repeats = ref 0 in
    for step = 1 to 600 do
      let expect_grant what got want =
        if got <> want then
          Alcotest.failf "seed %d step %d: %s granted %s, model %s" seed step what
            (match got with Some id -> string_of_int id | None -> "none")
            (match want with Some id -> string_of_int id | None -> "none")
      in
      (match Holes_stdx.Xrng.int rng 8 with
      | 0 ->
          let got = match Pools.alloc_dram t with -1 -> None | id -> Some id in
          expect_grant "alloc_dram" got (grant dram)
      | 1 | 2 as op ->
          ranked := op = 2;
          Pools.set_wear_rank t (if !ranked then Some rank else None);
          expect_grant "alloc_perfect" (Pools.alloc_perfect t) (grant_perfect ())
      | 3 -> expect_grant "alloc_imperfect" (Pools.alloc_imperfect t) (grant imperfect)
      | 4 ->
          let want = match grant imperfect with Some id -> Some id | None -> grant_perfect () in
          expect_grant "alloc_pcm_any" (Pools.alloc_pcm_any t) want
      | 5 -> (
          match held_pages () with
          | [] -> ()
          | l ->
              let id = List.nth l (Holes_stdx.Xrng.int rng (List.length l)) in
              Pools.free t id;
              held.(id) <- false;
              match kind.(id) with
              | M_dram -> dram := id :: !dram
              | M_perfect -> perfect := id :: !perfect
              | M_imperfect -> insert id)
      | _ ->
          (* few lines per page, so repeated failures are common *)
          let page = dram_pages + Holes_stdx.Xrng.int rng pcm_pages in
          let line = Holes_stdx.Xrng.int rng 6 in
          let was_free_perfect = List.mem page !perfect in
          let fresh = not (Bitset.get failed.(page) line) in
          if held.(page) then incr held_marks;
          if not fresh then incr repeats;
          if fresh then begin
            Bitset.set failed.(page) line;
            kind.(page) <- M_imperfect;
            if was_free_perfect then begin
              perfect := List.filter (fun x -> x <> page) !perfect;
              insert page
            end
          end;
          if Pools.mark_line_failed t ~page ~line <> fresh then
            Alcotest.failf "seed %d step %d: mark_line_failed page %d line %d <> %b" seed step
              page line fresh);
      let same what got want =
        if got <> want then
          Alcotest.failf "seed %d step %d: free %s list [%s], model [%s]" seed step what
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int want))
      in
      (* the DRAM stack's top is the model list's head *)
      let n = t.Pools.free_dram_n in
      same "dram" (List.init n (fun i -> t.Pools.free_dram.(n - 1 - i))) !dram;
      same "perfect" t.Pools.free_perfect !perfect;
      same "imperfect" t.Pools.free_imperfect !imperfect;
      for id = 0 to n - 1 do
        if Pools.is_allocated t id <> held.(id) then
          Alcotest.failf "seed %d step %d: page %d allocated %b, model %b" seed step id
            (Pools.is_allocated t id) held.(id)
      done
    done;
    (* the sequences must fail lines of held pages and repeat lines *)
    check Alcotest.bool "failures on held pages" true (!held_marks > 0);
    check Alcotest.bool "repeated failures" true (!repeats > 0)
  done

(* ------------------------- Failure table ------------------------- *)

let test_failure_table () =
  let t = Failure_table.create ~pcm_pages:4 in
  Failure_table.mark_failed t ~page:2 ~line:9;
  Alcotest.(check bool) "marked" true (Failure_table.is_failed t ~page:2 ~line:9);
  check Alcotest.int "count" 1 (Failure_table.failed_lines t ~page:2);
  check Alcotest.int "total" 1 (Failure_table.total_failed_lines t);
  check Alcotest.int "raw bits = 64/page" 256 (Failure_table.raw_bits t)

let test_failure_table_rebuild () =
  let t = Failure_table.create ~pcm_pages:2 in
  let map = Bitset.create 128 in
  Bitset.set map 3;
  Bitset.set map 100;
  Failure_table.rebuild_from t map;
  Alcotest.(check bool) "page0 line3" true (Failure_table.is_failed t ~page:0 ~line:3);
  Alcotest.(check bool) "page1 line36" true (Failure_table.is_failed t ~page:1 ~line:36)

let test_failure_table_compression () =
  let t = Failure_table.create ~pcm_pages:64 in
  Failure_table.mark_failed t ~page:5 ~line:1;
  Alcotest.(check bool) "sparse table compresses" true
    (Failure_table.rle_bits t < Failure_table.raw_bits t);
  Alcotest.(check bool) "overhead ratio matches bitmap" true
    (abs_float (Failure_table.overhead_ratio t -. (64.0 /. (4096.0 *. 8.0))) < 1e-9)

let test_failure_table_save_load () =
  let t = Failure_table.create ~pcm_pages:8 in
  Failure_table.mark_failed t ~page:1 ~line:5;
  Failure_table.mark_failed t ~page:1 ~line:6;
  Failure_table.mark_failed t ~page:7 ~line:63;
  let img = Failure_table.save t in
  match Failure_table.load img with
  | Error m -> Alcotest.fail m
  | Ok t2 ->
      check Alcotest.int "same page count" 8 (Failure_table.npages t2);
      check Alcotest.int "same failures" 3 (Failure_table.total_failed_lines t2);
      Alcotest.(check bool) "same positions" true
        (Failure_table.is_failed t2 ~page:1 ~line:5
        && Failure_table.is_failed t2 ~page:1 ~line:6
        && Failure_table.is_failed t2 ~page:7 ~line:63)

let test_failure_table_load_corrupt () =
  (match Failure_table.load "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Failure_table.load "holes-ft1 8\no100 " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated image"

(* ------------------------- Accounting ------------------------- *)

let test_accounting_debit_credit () =
  let a = Accounting.create () in
  Accounting.fussy_request a ~pages:3 ~available:1;
  check Alcotest.int "debt = shortfall" 2 (Accounting.debt a);
  check Alcotest.int "borrowed" 2 (Accounting.total_borrowed a);
  check Alcotest.int "satisfied" 1 (Accounting.perfect_satisfied a);
  Alcotest.(check bool) "relaxed declines while in debt" true
    (Accounting.relaxed_offer_perfect a = `Decline);
  check Alcotest.int "debt repaid" 1 (Accounting.debt a);
  Alcotest.(check bool) "second decline" true (Accounting.relaxed_offer_perfect a = `Decline);
  Alcotest.(check bool) "keeps when debt-free" true (Accounting.relaxed_offer_perfect a = `Keep)

let test_accounting_loan_closed () =
  let a = Accounting.create () in
  Accounting.fussy_request a ~pages:1 ~available:0;
  Accounting.loan_closed a;
  check Alcotest.int "loan closure clears debt" 0 (Accounting.debt a);
  Accounting.loan_closed a;
  check Alcotest.int "never negative" 0 (Accounting.debt a)

(* ------------------------- VMM ------------------------- *)

let test_vmm_mmap () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let p = Vmm.spawn vmm in
  match Vmm.mmap vmm p ~pages:3 with
  | Error `Out_of_memory -> Alcotest.fail "should fit"
  | Ok virts ->
      check Alcotest.int "three pages" 3 (List.length virts);
      List.iter
        (fun v ->
          Alcotest.(check bool) "mapped" true (Vmm.translate p ~virt:v >= 0);
          Alcotest.(check bool) "rw" true (Vmm.protection p ~virt:v = Vmm.Read_write))
        virts

let test_vmm_mmap_oom_rolls_back () =
  let vmm = Vmm.create ~dram_pages:1 ~pcm_pages:1 () in
  let p = Vmm.spawn vmm in
  (match Vmm.mmap vmm p ~pages:5 with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM");
  (* all pages must have been returned *)
  match Vmm.mmap vmm p ~pages:2 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "rollback leaked pages"

let test_vmm_mmap_imperfect_and_failures () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:2 () in
  (* page 1 (device page 1) is imperfect *)
  ignore (Pools.mark_line_failed (Vmm.pools vmm) ~page:1 ~line:4);
  let p = Vmm.spawn vmm in
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:2) in
  let maps = List.map (fun v -> Vmm.map_failures vmm p ~virt:v) virts in
  let counts = List.map Bitset.count maps |> List.sort compare in
  check (Alcotest.list Alcotest.int) "one perfect, one imperfect" [ 0; 1 ] counts

let test_vmm_reverse_translate () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:2 () in
  let p = Vmm.spawn vmm in
  let v = List.hd (Result.get_ok (Vmm.mmap vmm p ~pages:1)) in
  let phys = Vmm.translate p ~virt:v in
  (match Vmm.reverse_translate vmm ~phys with
  | Some (pid, virt) ->
      check Alcotest.int "pid" p.Vmm.pid pid;
      check Alcotest.int "virt" v virt
  | None -> Alcotest.fail "reverse translation failed");
  Alcotest.(check bool) "counted" true (Vmm.reverse_translations vmm > 0)

let test_vmm_munmap () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:1 () in
  let p = Vmm.spawn vmm in
  let v = List.hd (Result.get_ok (Vmm.mmap vmm p ~pages:1)) in
  Vmm.munmap vmm p ~virt:v;
  check Alcotest.int "page freed" 1 (Pools.free_perfect_count (Vmm.pools vmm))

(* The flat page tables and reverse map, checked in lockstep against a
   naive Hashtbl model over random mmap_imperfect / munmap / remap /
   migrate sequences (migrate both promotes to a DRAM frame, keeping the
   PCM home reserved and its reverse mapping, and demotes back, as the
   tier does; a promoted page is demoted before it is unmapped, as the
   tier's [drop_process] does).  After every operation, [translate] must agree with the model for every virtual
   page of every process and [reverse_translate] for every physical
   page. *)
let test_vmm_tables_match_model () =
  let dram_pages = 6 and pcm_pages = 40 in
  for seed = 1 to 12 do
    let rng = Holes_stdx.Xrng.of_seed seed in
    let vmm = Vmm.create ~dram_pages ~pcm_pages () in
    let pools = Vmm.pools vmm in
    let procs = Array.init 2 (fun _ -> Vmm.spawn vmm) in
    (* (pid, virt) -> phys; phys -> (pid, virt); (pid, virt) -> the PCM
       home a promoted page keeps reserved *)
    let table = Hashtbl.create 64 and reverse = Hashtbl.create 64 and homes = Hashtbl.create 8 in
    let map pid virt phys =
      Hashtbl.replace table (pid, virt) phys;
      Hashtbl.replace reverse phys (pid, virt)
    in
    let unmap pid virt =
      Hashtbl.remove reverse (Hashtbl.find table (pid, virt));
      Hashtbl.remove table (pid, virt)
    in
    (* back to the home, whose reverse mapping never left *)
    let demote (p : Vmm.process) virt home =
      let frame = Hashtbl.find table (p.Vmm.pid, virt) in
      Vmm.migrate vmm p ~virt ~new_phys:home;
      Pools.free pools frame;
      Hashtbl.remove homes (p.Vmm.pid, virt);
      unmap p.Vmm.pid virt;
      map p.Vmm.pid virt home
    in
    let agree step =
      Array.iter
        (fun (p : Vmm.process) ->
          for virt = -1 to p.Vmm.next_virt + 1 do
            let expect = Option.value (Hashtbl.find_opt table (p.Vmm.pid, virt)) ~default:(-1) in
            let got = Vmm.translate p ~virt in
            if got <> expect then
              Alcotest.failf "seed %d step %d: translate pid %d virt %d = %d, model %d" seed step
                p.Vmm.pid virt got expect
          done)
        procs;
      for phys = 0 to dram_pages + pcm_pages - 1 do
        if Vmm.reverse_translate vmm ~phys <> Hashtbl.find_opt reverse phys then
          Alcotest.failf "seed %d step %d: reverse_translate %d disagrees with the model" seed step
            phys
      done
    in
    for step = 1 to 400 do
      let p = procs.(Holes_stdx.Xrng.int rng (Array.length procs)) in
      let pid = p.Vmm.pid in
      let mine ~homed =
        Hashtbl.fold
          (fun (q, virt) _ acc ->
            if q = pid && (homed || not (Hashtbl.mem homes (q, virt))) then virt :: acc else acc)
          table []
        |> List.sort compare
      in
      let pick l = List.nth l (Holes_stdx.Xrng.int rng (List.length l)) in
      (match Holes_stdx.Xrng.int rng 4 with
      | 0 -> (
          let first = p.Vmm.next_virt in
          match Vmm.mmap_imperfect vmm p ~pages:(1 + Holes_stdx.Xrng.int rng 4) with
          | Ok virts ->
              List.iteri
                (fun i virt ->
                  let phys = Vmm.translate p ~virt in
                  if virt <> first + i || phys < dram_pages || Hashtbl.mem reverse phys then
                    Alcotest.failf "seed %d step %d: virt %d -> %d is not a fresh PCM grant" seed
                      step virt phys;
                  map pid virt phys)
                virts
          | Error `Out_of_memory -> ())
      | 1 -> (
          match mine ~homed:true with
          | [] -> ()
          | l ->
              let virt = pick l in
              Option.iter (demote p virt) (Hashtbl.find_opt homes (pid, virt));
              Vmm.munmap vmm p ~virt;
              unmap pid virt)
      | 2 -> (
          match (mine ~homed:false, Pools.alloc_pcm_any pools) with
          | [], Some fresh -> Pools.free pools fresh
          | _, None -> ()
          | l, Some new_phys ->
              let virt = pick l in
              Vmm.remap vmm p ~virt ~new_phys;
              unmap pid virt;
              map pid virt new_phys)
      | _ -> (
          match mine ~homed:true with
          | [] -> ()
          | l -> (
              let virt = pick l in
              match Hashtbl.find_opt homes (pid, virt) with
              | Some home -> demote p virt home
              | None -> (
                  match Pools.alloc_dram pools with
                  | -1 -> ()
                  | frame ->
                      Hashtbl.replace homes (pid, virt) (Hashtbl.find table (pid, virt));
                      Vmm.migrate vmm p ~virt ~new_phys:frame;
                      Hashtbl.replace table (pid, virt) frame;
                      Hashtbl.replace reverse frame (pid, virt)))));
      agree step
    done;
    (* the sequences must reach past the page tables' first growth *)
    check Alcotest.bool "page tables grew" true
      (Array.exists (fun (p : Vmm.process) -> p.Vmm.next_virt > 64) procs)
  done

(* ------------------------- Interrupts ------------------------- *)

let wear_quick = { Pcm.Wear.mean_endurance = 25.0; sigma = 0.05; ecp_entries = 1; ecp_extension = 0.1 }

let make_failing_device () =
  Pcm.Device.create
    ~config:{ Pcm.Device.default_config with Pcm.Device.pages = 4; wear = wear_quick; clustering = None }
    ~seed:5 ()

let hammer_until_failure device line =
  let rec go n =
    if n > 1_000_000 then Alcotest.fail "device never failed"
    else
      match Pcm.Device.write device line (Bytes.make Pcm.Geometry.line_bytes 'd') with
      | Pcm.Device.Write_failed -> ()
      | _ -> go (n + 1)
  in
  go 0

let test_interrupt_upcall () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let device = make_failing_device () in
  let h = Interrupts.attach ~vmm ~device () in
  let p = Vmm.spawn vmm in
  ignore (Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4));
  let upcalls = ref [] in
  Vmm.register_failure_handler p (fun ~virt_page ~line ~data ->
      upcalls := (virt_page, line, data) :: !upcalls);
  hammer_until_failure device (Pcm.Geometry.lines_per_page + 3) (* page 1, line 3 *);
  Alcotest.(check bool) "interrupt pending" true (Interrupts.has_pending h);
  Interrupts.service h;
  check Alcotest.int "upcalled" 1 (Interrupts.upcalls h);
  (match !upcalls with
  | (virt, line, data) :: _ ->
      check Alcotest.int "line in page" 3 line;
      Alcotest.(check bool) "virt page valid" true (virt >= 0);
      (match data with
      | Some d -> check Alcotest.char "data recovered" 'd' (Bytes.get d 0)
      | None -> Alcotest.fail "expected preserved data")
  | [] -> Alcotest.fail "no upcall recorded");
  (* OS bookkeeping updated *)
  check Alcotest.int "failure table updated" 1
    (Failure_table.total_failed_lines (Vmm.failure_table vmm))

let test_interrupt_page_copy_fallback () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:8 () in
  let device = make_failing_device () in
  let h = Interrupts.attach ~vmm ~device () in
  let p = Vmm.spawn vmm in
  (* failure-unaware process: no handler registered; map pages 0..3 *)
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4) in
  let v0 = List.hd virts in
  let phys_before = Vmm.translate p ~virt:v0 in
  hammer_until_failure device 0 (* device page 0, mapped at v0 *);
  Interrupts.service h;
  check Alcotest.int "page copied" 1 (Interrupts.page_copies h);
  check Alcotest.int "no up-call" 0 (Interrupts.upcalls h);
  let phys_after = Vmm.translate p ~virt:v0 in
  Alcotest.(check bool) "remapped to a different physical page" true (phys_before <> phys_after);
  Alcotest.(check bool) "access restored" true (Vmm.protection p ~virt:v0 = Vmm.Read_write)

(* A promoted page's PCM home keeps its reverse mapping: a line that
   wears out on the home while the page lives in a DRAM frame still
   reaches the owner's runtime handler. *)
let test_interrupt_promoted_home_upcall () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let device = make_failing_device () in
  let h = Interrupts.attach ~vmm ~device () in
  let tier = Tier.create ~counts:(Tier.counts ()) ~interrupts:h ~epoch:512 () in
  let p = Vmm.spawn vmm in
  let virt = List.nth (Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4)) 1 in
  let home = Vmm.translate p ~virt in
  let upcalls = ref [] in
  Vmm.register_failure_handler p (fun ~virt_page ~line ~data:_ ->
      upcalls := (virt_page, line) :: !upcalls);
  for _ = 1 to 8 do
    Tier.note_pcm_write tier p ~virt ~pcm_phys:home ~charge_copy:(fun ~bytes:_ -> ())
  done;
  Alcotest.(check bool) "promoted to a DRAM frame" true (Vmm.translate p ~virt < 2);
  hammer_until_failure device (((home - 2) * Pcm.Geometry.lines_per_page) + 3);
  Interrupts.service h;
  check
    Alcotest.(list (pair int int))
    "the owner gets the home's failed line" [ (virt, 3) ] !upcalls

(* A DRAM frame's content buffer outlives its resident: the next
   resident of the frame finds the previous one's lines in it, and its
   demotion must write back only the lines it dirtied itself. *)
let test_tier_frame_reuse_writes_back_own_lines () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let device =
    Pcm.Device.create
      ~config:
        { Pcm.Device.default_config with Pcm.Device.pages = 4; wear = Pcm.Wear.default_params; clustering = None }
      ~seed:5 ()
  in
  let tier =
    Tier.create ~counts:(Tier.counts ()) ~interrupts:(Interrupts.attach ~vmm ~device ()) ~epoch:512 ()
  in
  let p = Vmm.spawn vmm in
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4) in
  let a = List.nth virts 0 and b = List.nth virts 1 in
  let home_a = Vmm.translate p ~virt:a and home_b = Vmm.translate p ~virt:b in
  let charges = ref [] in
  let charge_copy ~bytes = charges := bytes :: !charges in
  let promote virt home =
    for _ = 1 to 8 do
      Tier.note_pcm_write tier p ~virt ~pcm_phys:home ~charge_copy
    done;
    let frame = Vmm.translate p ~virt in
    Alcotest.(check bool) "promoted to a DRAM frame" true (frame >= 0 && frame < 2);
    frame
  in
  let dirty frame line c =
    Tier.note_dram_write tier ~phys:frame ~line ~payload:(Bytes.make Pcm.Geometry.line_bytes c)
      ~charge_copy
  in
  let frame_a = promote a home_a in
  dirty frame_a 1 'A';
  dirty frame_a 2 'A';
  Tier.drop_process tier ~pid:p.Vmm.pid ~charge_copy;
  check Alcotest.int "page A back home" home_a (Vmm.translate p ~virt:a);
  check Alcotest.int "page B takes A's frame" frame_a (promote b home_b);
  dirty frame_a 5 'B';
  Tier.drop_process tier ~pid:p.Vmm.pid ~charge_copy;
  check Alcotest.int "page B back home" home_b (Vmm.translate p ~virt:b);
  check Alcotest.int "the demotion charges one line" Pcm.Geometry.line_bytes (List.hd !charges);
  let home_line virt_home line =
    Bytes.to_string (Pcm.Device.read device (((virt_home - 2) * Pcm.Geometry.lines_per_page) + line))
  in
  let line c = String.make Pcm.Geometry.line_bytes c in
  check Alcotest.string "A's home holds A's line 1" (line 'A') (home_line home_a 1);
  check Alcotest.string "B's home holds B's line 5" (line 'B') (home_line home_b 5);
  check Alcotest.string "B's line 1 never reached its home" (line '\000') (home_line home_b 1);
  check Alcotest.string "B's line 2 never reached its home" (line '\000') (home_line home_b 2)

(* A demotion's write-back that stalls services the interrupts, and the
   up-call the service makes can run the runtime, whose writes tick the
   epoch and demote the same resident.  The line whose write stalled
   must still reach its PCM home. *)
let test_tier_stalled_writeback_reaches_home () =
  let lpp = Pcm.Geometry.lines_per_page in
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  (* one buffered failure crosses the watermark of a 5-slot buffer *)
  let device =
    Pcm.Device.create
      ~config:
        {
          Pcm.Device.default_config with
          Pcm.Device.pages = 4;
          wear = wear_quick;
          clustering = None;
          buffer_capacity = 5;
        }
      ~seed:5 ()
  in
  let h = Interrupts.attach ~vmm ~device () in
  let tier = Tier.create ~counts:(Tier.counts ()) ~interrupts:h ~epoch:8 () in
  let p = Vmm.spawn vmm in
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4) in
  let a = List.nth virts 0 and b = List.nth virts 1 in
  let home_a = Vmm.translate p ~virt:a and home_b = Vmm.translate p ~virt:b in
  let charge_copy ~bytes:_ = () in
  (* the runtime's writes to page B tick the epoch until page A, cold
     this epoch, is demoted *)
  Vmm.register_failure_handler p (fun ~virt_page:_ ~line:_ ~data:_ ->
      let n = ref 0 in
      while Tier.resident tier > 0 && !n < 64 do
        incr n;
        Tier.note_pcm_write tier p ~virt:b ~pcm_phys:home_b ~charge_copy
      done);
  for _ = 1 to 4 do
    Tier.note_pcm_write tier p ~virt:a ~pcm_phys:home_a ~charge_copy
  done;
  let frame = Vmm.translate p ~virt:a in
  Alcotest.(check bool) "page A promoted to a DRAM frame" true (frame >= 0 && frame < 2);
  let line = 7 and x = Bytes.make Pcm.Geometry.line_bytes 'X' in
  Tier.note_dram_write tier ~phys:frame ~line ~payload:x ~charge_copy;
  (* a worn-out line of page B leaves its failure buffered: the device
     stalls the write-back *)
  hammer_until_failure device (((home_b - 2) * lpp) + 3);
  check Alcotest.int "device stalled" 1
    (Pcm.Device.stats device).Pcm.Device.buffer.Pcm.Failure_buffer.stall_events;
  Tier.drop_all tier ~charge_copy;
  check Alcotest.int "the service up-called the runtime" 1 (Interrupts.upcalls h);
  check Alcotest.int "page A back home" home_a (Vmm.translate p ~virt:a);
  check Alcotest.string "the stalled line reached its home" (Bytes.to_string x)
    (Bytes.to_string (Pcm.Device.read device (((home_a - 2) * lpp) + line)))

(* The tier against a per-page model, in lockstep on one device: heat
   per (pid, virtual page) with eager halving, a list of resident pages
   with a dirty flag and a copy of every line, and the cold residents
   picked at each tick before any demotion.  Random PCM writes to the
   pages of two processes, DRAM writes of random payloads to the frames
   and [drop_process]; after every operation the residents, the
   counters, the mappings and the copy bytes charged must agree, and
   after every demotion each line written back must read back as the
   model's bytes. *)
type model_resident = {
  m_pid : int;
  m_virt : int;
  m_home : int;
  m_frame : int;
  m_dirty : bool array;
  m_data : Bytes.t;
  mutable m_writes : int;
}

let test_tier_matches_model () =
  let lpp = Pcm.Geometry.lines_per_page and lb = Pcm.Geometry.line_bytes in
  let dram = 8 and pcm = 32 and epoch = 64 and pages_each = 12 in
  for seed = 1 to 20 do
    let rng = Holes_stdx.Xrng.of_seed seed in
    let vmm = Vmm.create ~dram_pages:dram ~pcm_pages:pcm () in
    let device =
      Pcm.Device.create
        ~config:
          {
            Pcm.Device.default_config with
            Pcm.Device.pages = pcm;
            wear = Pcm.Wear.default_params;
            clustering = None;
          }
        ~seed ()
    in
    let counts = Tier.counts () in
    let tier = Tier.create ~counts ~interrupts:(Interrupts.attach ~vmm ~device ()) ~epoch () in
    let procs = Array.init 2 (fun _ -> Vmm.spawn vmm) in
    let virts =
      Array.map
        (fun p -> Array.of_list (Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:pages_each)))
        procs
    in
    let home_of = Hashtbl.create 32 in
    Array.iteri
      (fun i p ->
        Array.iter
          (fun v -> Hashtbl.replace home_of (p.Vmm.pid, v) (Vmm.translate p ~virt:v))
          virts.(i))
      procs;
    let charged = ref 0 in
    let charge_copy ~bytes = charged := !charged + bytes in
    (* the model *)
    let threshold = max 4 (epoch / 256) in
    let cold = max 2 (threshold / 2) in
    let heat = Hashtbl.create 32 in
    let residents = ref [] (* ascending by frame *) in
    let free = ref (List.init dram Fun.id) in
    let tick = ref 0 and promotes = ref 0 and demotes = ref 0 and dram_writes = ref 0 in
    let m_charged = ref 0 in
    let cold_demotes = ref 0 in
    let fail step fmt = Alcotest.failf ("seed %d step %d: " ^^ fmt) seed step in
    let demote step r =
      residents := List.filter (fun r' -> r'.m_frame <> r.m_frame) !residents;
      free := r.m_frame :: !free;
      incr demotes;
      let written = ref 0 in
      Array.iteri
        (fun line d ->
          if d then begin
            incr written;
            let got = Pcm.Device.read device (((r.m_home - dram) * lpp) + line) in
            if not (Bytes.equal got (Bytes.sub r.m_data (line * lb) lb)) then
              fail step "pid %d virt %d line %d written back wrong" r.m_pid r.m_virt line
          end)
        r.m_dirty;
      m_charged := !m_charged + (!written * lb)
    in
    let m_tick step =
      incr tick;
      if !tick >= epoch then begin
        tick := 0;
        Hashtbl.filter_map_inplace (fun _ h -> Some (h / 2)) heat;
        let cold_list = List.filter (fun r -> r.m_writes < cold) !residents in
        cold_demotes := !cold_demotes + List.length cold_list;
        List.iter (demote step) cold_list;
        List.iter (fun r -> r.m_writes <- 0) !residents
      end
    in
    let agree step =
      let want =
        List.map (fun r -> (r.m_pid, r.m_virt, r.m_frame, r.m_home)) !residents
      in
      let show l =
        String.concat ";" (List.map (fun (p, v, f, h) -> Printf.sprintf "%d/%d@%d<%d" p v f h) l)
      in
      if Tier.residents tier <> want then
        fail step "residents [%s], model [%s]" (show (Tier.residents tier)) (show want);
      if
        (counts.Tier.promotes, counts.Tier.demotes, counts.Tier.dram_writes, Tier.resident tier)
        <> (!promotes, !demotes, !dram_writes, List.length !residents)
      then
        fail step "counts %d/%d/%d/%d, model %d/%d/%d/%d" counts.Tier.promotes
          counts.Tier.demotes counts.Tier.dram_writes (Tier.resident tier) !promotes !demotes
          !dram_writes (List.length !residents);
      if !charged <> !m_charged then fail step "charged %d bytes, model %d" !charged !m_charged;
      Array.iteri
        (fun i p ->
          Array.iter
            (fun v ->
              let want =
                match List.find_opt (fun r -> r.m_pid = p.Vmm.pid && r.m_virt = v) !residents with
                | Some r -> r.m_frame
                | None -> Hashtbl.find home_of (p.Vmm.pid, v)
              in
              if Vmm.translate p ~virt:v <> want then
                fail step "pid %d virt %d maps to %d, model %d" p.Vmm.pid v
                  (Vmm.translate p ~virt:v) want)
            virts.(i))
        procs
    in
    let drops = ref 0 in
    for step = 1 to 2000 do
      (match Holes_stdx.Xrng.int rng 100 with
      | 0 ->
          let p = procs.(Holes_stdx.Xrng.int rng 2) in
          incr drops;
          Tier.drop_process tier ~pid:p.Vmm.pid ~charge_copy;
          List.iter (fun r -> if r.m_pid = p.Vmm.pid then demote step r) !residents;
          Hashtbl.filter_map_inplace
            (fun (pid, _) h -> if pid = p.Vmm.pid then None else Some h)
            heat
      | op when op < 36 ->
          (* a DRAM write to a random frame: ignored unless a resident's *)
          let frame = Holes_stdx.Xrng.int rng dram and line = Holes_stdx.Xrng.int rng lpp in
          let payload = Bytes.init lb (fun _ -> Char.chr (Holes_stdx.Xrng.int rng 256)) in
          Tier.note_dram_write tier ~phys:frame ~line ~payload ~charge_copy;
          (match List.find_opt (fun r -> r.m_frame = frame) !residents with
          | None -> ()
          | Some r ->
              r.m_dirty.(line) <- true;
              Bytes.blit payload 0 r.m_data (line * lb) lb;
              r.m_writes <- r.m_writes + 1;
              incr dram_writes;
              m_tick step)
      | _ -> (
          (* a PCM write to a page of either process that is not resident *)
          let i = Holes_stdx.Xrng.int rng 2 in
          let p = procs.(i) in
          let virt = virts.(i).(Holes_stdx.Xrng.int rng pages_each) in
          let phys = Vmm.translate p ~virt in
          if phys >= dram then begin
            Tier.note_pcm_write tier p ~virt ~pcm_phys:phys ~charge_copy;
            let key = (p.Vmm.pid, virt) in
            let h = 1 + Option.value ~default:0 (Hashtbl.find_opt heat key) in
            Hashtbl.replace heat key h;
            (match !free with
            | frame :: rest when h >= threshold && List.length !free > 1 ->
                free := rest;
                Hashtbl.replace heat key 0;
                incr promotes;
                m_charged := !m_charged + Pcm.Geometry.page_bytes;
                let r =
                  {
                    m_pid = p.Vmm.pid;
                    m_virt = virt;
                    m_home = phys;
                    m_frame = frame;
                    m_dirty = Array.make lpp false;
                    m_data = Bytes.make Pcm.Geometry.page_bytes '\000';
                    m_writes = 0;
                  }
                in
                residents :=
                  List.sort (fun a b -> compare a.m_frame b.m_frame) (r :: !residents)
            | _ -> ());
            m_tick step
          end));
      agree step
    done;
    check Alcotest.bool "the sequence drops processes" true (!drops > 0);
    check Alcotest.bool "the sequence promotes" true (!promotes > 8);
    check Alcotest.bool "ticks demote cold residents" true (!cold_demotes > 8)
  done

(* ------------------------- Swap ------------------------- *)

let test_swap_policies () =
  let pools = Pools.create ~dram_pages:0 ~pcm_pages:4 in
  (* page 1: failure at line 2; page 2: failures at lines 2 and 3 *)
  ignore (Pools.mark_line_failed pools ~page:1 ~line:2);
  ignore (Pools.mark_line_failed pools ~page:2 ~line:2);
  ignore (Pools.mark_line_failed pools ~page:2 ~line:3);
  let src_map = Bitset.create Pools.lines_per_page in
  Bitset.set src_map 2;
  Bitset.set src_map 3;
  (* compatible-imperfect: page 1 ({2}) or page 2 ({2,3}) are subsets of src *)
  (match Swap.swap_in pools ~policy:Swap.Compatible_imperfect ~src_map with
  | Some dest -> Alcotest.(check bool) "imperfect dest chosen" true (dest = 1 || dest = 2)
  | None -> Alcotest.fail "no destination");
  (* to-perfect always takes a perfect page *)
  match Swap.swap_in pools ~policy:Swap.To_perfect ~src_map with
  | Some dest -> check Alcotest.int "perfect dest" Pools.lines_per_page (Pools.usable_lines pools dest)
  | None -> Alcotest.fail "no perfect destination"

let test_swap_clustered_count () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.set a 0;
  Bitset.set a 1;
  Bitset.set b 0;
  Alcotest.(check bool) "fewer failures compatible" true
    (Swap.compatible ~policy:Swap.Clustered_count ~src_map:a ~dest_map:b);
  Alcotest.(check bool) "more failures incompatible" false
    (Swap.compatible ~policy:Swap.Clustered_count ~src_map:b ~dest_map:a)

let suite =
  [
    ("page kinds", `Quick, test_page_kinds);
    ("dram never fails", `Quick, test_page_dram_never_fails);
    ("pools alloc/free", `Quick, test_pools_alloc_free);
    ("pools imperfect migration", `Quick, test_pools_imperfect_migration);
    ("pools pcm-any prefers imperfect", `Quick, test_pools_pcm_any_prefers_imperfect);
    ("pools match a reference model", `Quick, test_pools_match_model);
    ("failure table", `Quick, test_failure_table);
    ("failure table rebuild", `Quick, test_failure_table_rebuild);
    ("failure table compression", `Quick, test_failure_table_compression);
    ("failure table save/load", `Quick, test_failure_table_save_load);
    ("failure table rejects corrupt image", `Quick, test_failure_table_load_corrupt);
    ("accounting debit-credit", `Quick, test_accounting_debit_credit);
    ("accounting loan closed", `Quick, test_accounting_loan_closed);
    ("vmm mmap", `Quick, test_vmm_mmap);
    ("vmm mmap OOM rollback", `Quick, test_vmm_mmap_oom_rolls_back);
    ("vmm mmap_imperfect + map_failures", `Quick, test_vmm_mmap_imperfect_and_failures);
    ("vmm reverse translate", `Quick, test_vmm_reverse_translate);
    ("vmm munmap", `Quick, test_vmm_munmap);
    ("vmm tables match a reference model", `Quick, test_vmm_tables_match_model);
    ("interrupt upcall path", `Quick, test_interrupt_upcall);
    ("interrupt page-copy fallback", `Quick, test_interrupt_page_copy_fallback);
    ("interrupt on a promoted page's home", `Quick, test_interrupt_promoted_home_upcall);
    ("a reused DRAM frame writes back only its resident's lines", `Quick,
      test_tier_frame_reuse_writes_back_own_lines);
    ("the tier matches a per-page model", `Quick, test_tier_matches_model);
    ("a stalled write-back reaches its home", `Quick, test_tier_stalled_writeback_reaches_home);
    ("swap policies", `Quick, test_swap_policies);
    ("swap clustered count", `Quick, test_swap_clustered_count);
  ]
