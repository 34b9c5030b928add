(** The paranoid heap verifier (DESIGN.md §10).

    Recomputes every cross-layer invariant of the failure-aware heap
    from first principles and compares it against the incremental state
    the hot paths maintain.  Callable after each GC phase (installed as
    [Immix]'s post-collection hook when [Config.verify] is set) and on
    demand via [Vm.verify]; the torture driver ([bin/torture.exe]) runs
    it between every fuzz step.

    Invariant families, each checked in full:

    - {b Blocks}: the free/live/failed line maps partition every block's
      lines; the cached [free_lines]/[failed_lines] counters and the
      [hole_bound] fast-reject match a per-line recount; no live object
      overlaps a failed line and the per-line live counts equal a
      recount from the object table (delegated to
      [Immix.check_invariants]).
    - {b Cursors}: open bump runs (main and overflow) lie inside their
      block and cover only free lines; the overflow block came from a
      perfect grant.
    - {b LOS}: entries and uncollected LOS objects correspond one to
      one; live large objects sit only on perfect (or borrowed DRAM)
      pages; [pages_in_use] matches the entry table.
    - {b Stock}: per-page failed-line counts and usable-logical counts
      match the bitmaps; the perfect/imperfect/dead pools contain
      exactly the pages they claim to; every page is owned exactly once
      (a pool, an assembled block, or a live LOS entry).
    - {b Accounting}: the debit–credit ledger balances
      ([total_borrowed = debt + total_repaid + total_closed]) and
      borrowed-page counts agree between the ledger and the heap.
    - {b Device/OS} (device backend): the stock's failure bitmaps never
      claim more than the OS failure table knows, and every failed line
      is genuinely unusable on the device.
    - {b Failure buffer}: every pending entry is reachable by the
      read-forwarding path with exactly the preserved payload.

    The verifier never mutates heap state and never touches a counted
    path (no [Device.read], no [Vmm.reverse_translate], no trace
    events), so enabling it cannot change any serialized metric — only
    the two non-serialized [verify_*] counters. *)

open Holes_stdx
open Holes_heap
module Osal = Holes_osal
module Pcm = Holes_pcm

type report = { checks : int;  (** individual assertions evaluated *) errors : string list }

exception Violation of string

let max_reported = 20

type ctx = { mutable checks : int; mutable rev_errors : string list; mutable nerrors : int }

let check (c : ctx) (cond : bool) (msg : unit -> string) : unit =
  c.checks <- c.checks + 1;
  if not cond then begin
    c.nerrors <- c.nerrors + 1;
    if c.nerrors <= max_reported then c.rev_errors <- msg () :: c.rev_errors
  end

let page_bytes = Pcm.Geometry.page_bytes
let pcm_line = Pcm.Geometry.line_bytes
let pcm_lines_per_page = Pcm.Geometry.lines_per_page

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

let longest_free_run (b : Block.t) : int =
  let best = ref 0 and run = ref 0 in
  for l = 0 to b.Block.nlines - 1 do
    if Bitset.get b.Block.free l then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 0
  done;
  !best

(* Is a failed mark on logical line [l] justified by the backing pages'
   64 B bitmaps (the false-failure widening of Block.create)? *)
let widened_failed (stock : Page_stock.t) (b : Block.t) (l : int) : bool =
  let pcm_per_logical = b.Block.line_size / pcm_line in
  let rec any i =
    i < pcm_per_logical
    &&
    let pcm_idx = (l * pcm_per_logical) + i in
    let pg = pcm_idx / pcm_lines_per_page and off = pcm_idx mod pcm_lines_per_page in
    let page_id = b.Block.pages.(pg) in
    (page_id >= 0 && Bitset.get stock.Page_stock.pages.(page_id).Page_stock.bitmap off)
    || any (i + 1)
  in
  any 0

(* The backing page (stock id, or -1 for borrowed DRAM) of logical line
   [l] — lines never span pages (line sizes divide the page size). *)
let line_page (b : Block.t) (l : int) : int =
  b.Block.pages.(l * b.Block.line_size / page_bytes)

let check_block (c : ctx) (stock : Page_stock.t) (b : Block.t) : unit =
  let i = b.Block.index in
  let free = ref 0 and failed = ref 0 and live = ref 0 in
  for l = 0 to b.Block.nlines - 1 do
    let f = Bitset.get b.Block.free l and x = Bitset.get b.Block.failed l in
    check c
      (not (f && x))
      (fun () -> Printf.sprintf "block %d line %d both free and failed" i l);
    check c
      (not (x && b.Block.live.(l) > 0))
      (fun () -> Printf.sprintf "block %d line %d failed but live count %d" i l b.Block.live.(l));
    check c
      (f = (b.Block.live.(l) = 0 && not x))
      (fun () ->
        Printf.sprintf "block %d line %d free=%b live=%d failed=%b" i l f b.Block.live.(l) x);
    if x then incr failed else if f then incr free else incr live;
    (* the failed map must be exactly the widening of the backing pages'
       bitmaps — except lines on borrowed DRAM, which only a directly
       injected failure can mark (there is no backing bitmap to agree
       with) *)
    let w = widened_failed stock b l in
    check c
      (if w then x else (not x) || line_page b l < 0)
      (fun () ->
        Printf.sprintf "block %d line %d failed=%b but page bitmaps widen to %b" i l x w)
  done;
  check c
    (!free = Block.free_lines b)
    (fun () -> Printf.sprintf "block %d free_lines=%d, recount %d" i (Block.free_lines b) !free);
  check c
    (!failed = Block.failed_lines b)
    (fun () ->
      Printf.sprintf "block %d failed_lines=%d, recount %d" i (Block.failed_lines b) !failed);
  check c
    (!free + !failed + !live = b.Block.nlines)
    (fun () ->
      Printf.sprintf "block %d lines do not sum: %d free + %d failed + %d live <> %d" i !free
        !failed !live b.Block.nlines);
  check c
    (longest_free_run b <= Block.hole_bound b)
    (fun () ->
      Printf.sprintf "block %d hole_bound %d below longest free run %d" i (Block.hole_bound b)
        (longest_free_run b))

let check_cursor (c : ctx) (s : Immix.t) ~(what : string) ~(bi : int) ~(cursor : int)
    ~(limit : int) : unit =
  if bi >= 0 then begin
    match Immix.block_opt s bi with
    | None -> check c false (fun () -> Printf.sprintf "%s cursor block %d not assembled" what bi)
    | Some b ->
        let base = b.Block.base in
        check c
          (base <= cursor && cursor <= limit && limit <= base + Units.block_bytes)
          (fun () ->
            Printf.sprintf "%s cursor run [%d,%d) outside block %d [%d,%d)" what cursor limit bi
              base (base + Units.block_bytes));
        let ls = b.Block.line_size in
        let first = (cursor - base + ls - 1) / ls and last = ((limit - base) / ls) - 1 in
        for l = first to last do
          check c
            (Block.line_state b l = Block.Free)
            (fun () ->
              Printf.sprintf "%s cursor run covers non-free line %d of block %d" what l bi)
        done
  end

(* ------------------------------------------------------------------ *)

(** Verify the heap built from these components.  [immix] is [None]
    under the mark-sweep collector (which ignores failures; only the
    stock, LOS and accounting families apply).  [fbuf] is any private
    injector failure buffer to audit alongside the device's own. *)
let run ~(metrics : Metrics.t) ~(objects : Object_table.t) ~(stock : Page_stock.t)
    ~(los : Los.t) ~(immix : Immix.t option) ~(backend : Memory_backend.t)
    ?(fbuf : Pcm.Failure_buffer.t option) () : report =
  let c = { checks = 0; rev_errors = []; nerrors = 0 } in
  let npages = Page_stock.npages stock in
  (* page ownership: every stock page must be claimed exactly once *)
  let owners = Array.make npages 0 in
  let claim id = if id >= 0 && id < npages then owners.(id) <- owners.(id) + 1 in
  let borrowed_in_heap = ref 0 in

  (* -- blocks + cursors (Immix only) -------------------------------- *)
  (match immix with
  | None -> ()
  | Some s ->
      (match Immix.check_invariants s with
      | Ok () -> c.checks <- c.checks + 1
      | Error m -> check c false (fun () -> "immix: " ^ m));
      Immix.iter_blocks s (fun b ->
          check_block c stock b;
          Array.iter (fun id -> if id = -1 then incr borrowed_in_heap else claim id) b.Block.pages);
      check_cursor c s ~what:"main" ~bi:s.Immix.cur_block ~cursor:s.Immix.cursor
        ~limit:s.Immix.limit;
      check_cursor c s ~what:"overflow" ~bi:s.Immix.ovf_block ~cursor:s.Immix.ovf_cursor
        ~limit:s.Immix.ovf_limit;
      (* fussy placement: blocks from a perfect grant (the overflow /
         medium-object fallback) sit on perfect or borrowed-DRAM pages.
         Only a dynamic failure may puncture them afterwards, so the
         strong form holds exactly while none has occurred. *)
      if metrics.Metrics.dynamic_failures = 0 then
        Immix.iter_blocks s (fun b ->
            if Block.perfect_grant b then
              check c
                (Block.failed_lines b = 0)
                (fun () ->
                  Printf.sprintf "perfect-grant block %d has %d failed lines" b.Block.index
                    (Block.failed_lines b)));
      (* incremental (SATB) cycle consistency: runs after every slice
         when the verifier hook is installed, so a barrier bug surfaces
         at the increment that loses the object, not at cycle end *)
      let phase = s.Immix.inc_phase in
      check c
        (phase >= Immix.inc_idle && phase <= Immix.inc_defrag)
        (fun () -> Printf.sprintf "incremental phase %d out of range" phase);
      if phase = Immix.inc_idle then begin
        check c
          (s.Immix.pending_retire = [])
          (fun () ->
            Printf.sprintf "%d pending line retirements with no cycle in flight"
              (List.length s.Immix.pending_retire));
        check c
          (s.Immix.inc_candidates = [])
          (fun () ->
            Printf.sprintf "%d defrag candidates with no cycle in flight"
              (List.length s.Immix.inc_candidates));
        Immix.iter_blocks s (fun b ->
            check c
              (not (Block.candidate b))
              (fun () ->
                Printf.sprintf "block %d still flagged a defrag candidate with no cycle in flight"
                  b.Block.index))
      end
      else if phase = Immix.inc_mark then begin
        let q = s.Immix.mark_queue in
        let len = Intvec.length q in
        let pos = s.Immix.inc_pos in
        check c
          (0 <= pos && pos <= len && len = s.Immix.inc_snapshot_len)
          (fun () ->
            Printf.sprintf "mark cursor %d / queue %d / snapshot %d inconsistent" pos len
              s.Immix.inc_snapshot_len);
        check c
          (s.Immix.inc_marked + s.Immix.inc_released = pos)
          (fun () ->
            Printf.sprintf "mark work counters %d+%d do not cover %d processed entries"
              s.Immix.inc_marked s.Immix.inc_released pos);
        (* pending snapshot entries: live ones awaited, dead ones must
           still be dead (nothing resurrects) *)
        let pending_live = Hashtbl.create 64 in
        for i = pos to len - 1 do
          let enc = Intvec.unsafe_get q i in
          if enc >= 0 then Hashtbl.replace pending_live enc ()
          else
            check c
              (not (Object_table.is_alive objects (lnot enc)))
              (fun () -> Printf.sprintf "snapshot-dead object %d is alive" (lnot enc))
        done;
        (* the SATB tri-color invariant, oracle form: every alive object
           is black (marked in the current epoch — processed from the
           snapshot, or allocated black) or grey (still pending in the
           snapshot work-list).  A white alive object is precisely what
           an unlogged black→white store would strand. *)
        Object_table.iter_slots objects (fun id ->
            if Object_table.is_alive objects id then
              check c
                (Object_table.marked objects id s.Immix.inc_epoch
                || Hashtbl.mem pending_live id)
                (fun () ->
                  Printf.sprintf
                    "alive object %d neither marked in epoch %d nor pending in the snapshot" id
                    s.Immix.inc_epoch));
        (* every SATB-logged source was black when logged and stays so *)
        Remset.iter s.Immix.satb (fun src ->
            check c
              (Object_table.marked objects src s.Immix.inc_epoch)
              (fun () ->
                Printf.sprintf "SATB log holds source %d that is not black in epoch %d" src
                  s.Immix.inc_epoch))
      end
      else
        check c
          (s.Immix.inc_marked + s.Immix.inc_released = s.Immix.inc_snapshot_len)
          (fun () ->
            Printf.sprintf "cycle processed %d+%d of %d snapshot entries past mark end"
              s.Immix.inc_marked s.Immix.inc_released s.Immix.inc_snapshot_len));

  (* -- LOS ----------------------------------------------------------- *)
  let los_pages = ref 0 in
  Hashtbl.iter
    (fun addr (e : Los.entry) ->
      Array.iter
        (fun id ->
          incr los_pages;
          if id = -1 then incr borrowed_in_heap else claim id)
        e.Los.pages;
      let needed = max 1 ((e.Los.bytes + page_bytes - 1) / page_bytes) in
      check c
        (Array.length e.Los.pages = needed)
        (fun () ->
          Printf.sprintf "LOS entry %d: %d pages backing %d bytes (need %d)" addr
            (Array.length e.Los.pages) e.Los.bytes needed))
    los.Los.entries;
  check c
    (!los_pages = Los.pages_in_use los)
    (fun () ->
      Printf.sprintf "LOS pages_in_use=%d, entries hold %d" (Los.pages_in_use los) !los_pages);
  (* entries <-> uncollected LOS objects, and live LOS on perfect pages
     only (a dead large object may keep a page a dynamic failure already
     punctured — relocation skips the dead) *)
  let los_slots = ref 0 in
  Object_table.iter_slots objects (fun id ->
      if Object_table.is_los objects id then begin
        incr los_slots;
        let addr = Object_table.addr objects id in
        match Hashtbl.find_opt los.Los.entries addr with
        | None ->
            check c false (fun () -> Printf.sprintf "LOS object %d at %d has no entry" id addr)
        | Some e ->
            check c
              (e.Los.bytes = Object_table.size objects id)
              (fun () ->
                Printf.sprintf "LOS object %d: entry %d bytes, object %d" id e.Los.bytes
                  (Object_table.size objects id));
            if Object_table.is_alive objects id then
              Array.iter
                (fun pg ->
                  if pg >= 0 then
                    check c
                      (stock.Page_stock.pages.(pg).Page_stock.failed_lines = 0)
                      (fun () ->
                        Printf.sprintf "live LOS object %d on imperfect page %d" id pg))
                e.Los.pages
      end);
  check c
    (!los_slots = Hashtbl.length los.Los.entries)
    (fun () ->
      Printf.sprintf "%d LOS entries for %d uncollected LOS objects"
        (Hashtbl.length los.Los.entries) !los_slots);

  (* -- page stock ---------------------------------------------------- *)
  Array.iter
    (fun (p : Page_stock.page) ->
      check c
        (p.Page_stock.failed_lines = Bitset.count p.Page_stock.bitmap)
        (fun () ->
          Printf.sprintf "page %d failed_lines=%d, bitmap holds %d" p.Page_stock.id
            p.Page_stock.failed_lines
            (Bitset.count p.Page_stock.bitmap));
      check c
        (p.Page_stock.usable_logical
        = Page_stock.count_usable_logical ~line_size:stock.Page_stock.line_size
            p.Page_stock.bitmap)
        (fun () ->
          Printf.sprintf "page %d usable_logical=%d stale" p.Page_stock.id
            p.Page_stock.usable_logical))
    stock.Page_stock.pages;
  let pool_check name ids pred =
    List.iter
      (fun id ->
        claim id;
        check c
          (pred stock.Page_stock.pages.(id))
          (fun () -> Printf.sprintf "page %d misfiled in %s pool" id name))
      ids
  in
  pool_check "perfect" stock.Page_stock.free_perfect (fun p -> p.Page_stock.failed_lines = 0);
  pool_check "imperfect" stock.Page_stock.free_imperfect (fun p ->
      p.Page_stock.failed_lines > 0 && p.Page_stock.usable_logical > 0);
  pool_check "dead" stock.Page_stock.dead (fun p -> p.Page_stock.usable_logical = 0);
  (* pages surrendered to repay DRAM debt went back to the OS: they are
     legitimately owned by nobody for the rest of the run *)
  pool_check "repaid" stock.Page_stock.repaid (fun _ -> true);
  check c
    (List.length stock.Page_stock.repaid = Page_stock.repaid_pages stock)
    (fun () ->
      Printf.sprintf "repaid list holds %d pages but repaid_pages=%d"
        (List.length stock.Page_stock.repaid)
        (Page_stock.repaid_pages stock));
  (* full ownership only holds when the Immix heap claimed its blocks;
     under mark-sweep its blocks are invisible here, so only require
     that no page is claimed twice *)
  let exact = immix <> None in
  Array.iteri
    (fun id n ->
      check c
        (if exact then n = 1 else n <= 1)
        (fun () -> Printf.sprintf "page %d claimed %d times" id n))
    owners;

  (* -- accounting ---------------------------------------------------- *)
  let acc = Page_stock.accounting stock in
  let debt = Osal.Accounting.debt acc in
  check c (debt >= 0) (fun () -> Printf.sprintf "negative debt %d" debt);
  check c
    (Osal.Accounting.total_borrowed acc
    = debt + Osal.Accounting.total_repaid acc + Osal.Accounting.total_closed acc)
    (fun () ->
      Printf.sprintf "ledger unbalanced: borrowed %d <> debt %d + repaid %d + closed %d"
        (Osal.Accounting.total_borrowed acc)
        debt
        (Osal.Accounting.total_repaid acc)
        (Osal.Accounting.total_closed acc));
  check c
    (Page_stock.borrowed_in_use stock >= 0)
    (fun () -> Printf.sprintf "negative borrowed_in_use %d" (Page_stock.borrowed_in_use stock));
  if exact then
    check c
      (!borrowed_in_heap = Page_stock.borrowed_in_use stock)
      (fun () ->
        Printf.sprintf "borrowed_in_use=%d, heap holds %d borrowed pages"
          (Page_stock.borrowed_in_use stock)
          !borrowed_in_heap);

  (* -- device/OS agreement + failure buffer ------------------------- *)
  let check_fbuf what (fb : Pcm.Failure_buffer.t) =
    List.iter
      (fun (e : Pcm.Failure_buffer.entry) ->
        check c
          (match Pcm.Failure_buffer.forward fb ~addr:e.Pcm.Failure_buffer.addr with
          | Some data -> Bytes.equal data e.Pcm.Failure_buffer.data
          | None -> false)
          (fun () ->
            Printf.sprintf "%s failure buffer: entry for line %d not read-forwarded" what
              e.Pcm.Failure_buffer.addr))
      (Pcm.Failure_buffer.pending fb)
  in
  (match backend with
  | Memory_backend.Static -> ()
  | Memory_backend.Device st ->
      let table = Osal.Vmm.failure_table st.Memory_backend.vmm in
      let dram = st.Memory_backend.dram_pages in
      Array.iteri
        (fun stock_page virt ->
          let phys = Osal.Vmm.translate st.Memory_backend.proc ~virt in
          if phys < 0 then
            check c false (fun () -> Printf.sprintf "stock page %d unmapped (virt %d)" stock_page virt)
          (* a DRAM frame has no failure state to agree on *)
          else if phys >= dram then begin
            let dev_page = phys - dram in
            let os = Osal.Failure_table.get table ~page:dev_page in
            let sb = stock.Page_stock.pages.(stock_page).Page_stock.bitmap in
            (* the OS may know strictly more (masked pinned-page
               failures), never less *)
            check c (Bitset.subset sb os) (fun () ->
                Printf.sprintf "stock page %d claims failures the OS table lacks (phys %d)"
                  stock_page phys);
            Bitset.iter_set os (fun off ->
                check c
                  (not
                     (Pcm.Device.line_usable st.Memory_backend.device
                        ((dev_page * pcm_lines_per_page) + off)))
                  (fun () ->
                    Printf.sprintf "OS table marks line %d of device page %d the device calls usable"
                      off dev_page))
          end)
        st.Memory_backend.virt_of_stock;
      (* translation-consistency: the leveler and every clustering map
         are permutations, and the composed logical->physical map is a
         bijection whose inverse really inverts it (DESIGN.md §11) *)
      check c
        (Pcm.Device.check_translation st.Memory_backend.device = Ok ())
        (fun () ->
          match Pcm.Device.check_translation st.Memory_backend.device with
          | Ok () -> assert false
          | Error e -> e);
      check_fbuf "device" (Pcm.Device.buffer st.Memory_backend.device);
      (* hybrid tiering residency (DESIGN.md §17): every promoted page's
         mapping points at its DRAM frame, the frame really is DRAM, and
         both the frame and the reserved PCM home are held allocated —
         all through non-counted accessors *)
      (match st.Memory_backend.node.Memory_backend.n_tier with
      | None -> ()
      | Some tier ->
          let pools = Osal.Vmm.pools st.Memory_backend.vmm in
          List.iter
            (fun (pid, virt, dram_phys, pcm_phys) ->
              check c
                (dram_phys >= 0 && dram_phys < dram)
                (fun () ->
                  Printf.sprintf "tier resident (pid %d, virt %d) on non-DRAM frame %d" pid virt
                    dram_phys);
              check c (pcm_phys >= dram) (fun () ->
                  Printf.sprintf "tier resident (pid %d, virt %d) PCM home %d is a DRAM frame"
                    pid virt pcm_phys);
              check c
                (Osal.Pools.is_allocated pools dram_phys)
                (fun () ->
                  Printf.sprintf "tier resident DRAM frame %d not held allocated" dram_phys);
              check c
                (Osal.Pools.is_allocated pools pcm_phys)
                (fun () ->
                  Printf.sprintf "tier resident PCM home %d not held allocated (leak on demote)"
                    pcm_phys);
              match Osal.Vmm.find_process st.Memory_backend.vmm pid with
              | None ->
                  check c false (fun () ->
                      Printf.sprintf "tier resident pid %d has no process" pid)
              | Some proc ->
                  check c
                    (Osal.Vmm.translate proc ~virt = dram_phys)
                    (fun () ->
                      Printf.sprintf
                        "tier resident (pid %d, virt %d): mapping disagrees with frame %d" pid
                        virt dram_phys))
            (Osal.Tier.residents tier));
      (* content-store self-audit: refcounts and bindings agree *)
      List.iter
        (fun e -> check c false (fun () -> "caram: " ^ e))
        (Pcm.Device.caram_check st.Memory_backend.device);
      c.checks <- c.checks + 1 (* the caram audit itself counts once *));
  Option.iter (fun fb -> check_fbuf "injector" fb) fbuf;

  metrics.Metrics.verify_checks <- metrics.Metrics.verify_checks + c.checks;
  if c.nerrors = 0 then metrics.Metrics.verify_passes <- metrics.Metrics.verify_passes + 1;
  { checks = c.checks; errors = List.rev c.rev_errors }

(** [raise_on_errors r] turns a failed report into a {!Violation}
    carrying every recorded error (the post-GC hook's behavior). *)
let raise_on_errors (r : report) : unit =
  match r.errors with
  | [] -> ()
  | es -> raise (Violation (String.concat "; " es))
