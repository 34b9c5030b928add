(** Failure-aware Immix and Sticky Immix (paper Secs. 4.1–4.2).

    Immix manages memory as 32 KB blocks of logical lines.  A bump
    pointer allocates into contiguous runs of free lines and *skips over
    unavailable lines* — which is precisely why failure awareness is a
    minimal extension: failed lines are a fourth line state that the
    allocator skips exactly like live lines.  Medium objects (larger than
    a line) that do not fit the current run go to a dedicated overflow
    block; the failure-aware version searches the remainder of the
    overflow block and only then falls back to requesting a perfect
    block.  Sticky Immix adds generational behaviour via sticky mark
    bits: objects allocated since the last collection form the logical
    nursery, collected from the remembered set without touching old
    objects.  Dynamic failures reuse the defragmentation machinery:
    affected blocks are flagged and their live objects evacuated by a
    full collection — one snapshot/mark/sweep/defrag cycle, drained in
    one pause or cut into budgeted slices. *)

open Holes_stdx
open Holes_heap
module Trace = Holes_obs.Trace
module Stats = Holes_obs.Stats

exception Out_of_memory = Oom.Out_of_memory

type t = {
  cfg : Config.t;
  cost : Cost.t;
  metrics : Metrics.t;
  stock : Page_stock.t;
  objects : Object_table.t;
  los : Los.t;
  mutable table : Block.t option array;
      (** block index -> block, dense.  Indices are monotonic (a
          dissolved block's slot stays [None]), so the allocation fast
          path is one array load instead of a hash probe, and iteration
          is ascending-index — the deterministic order every sweep and
          defrag pass uses. *)
  btbl : Block.table;
      (** the struct-of-arrays per-block metadata (free/failed counts,
          hole bounds, flags), shared by every block and indexed by
          block id — sweep and defrag selection stream over it *)
  mutable nblocks : int;  (** live (assembled, not dissolved) blocks *)
  page_owner : int array;
      (** stock page id -> owning block index, -1 when unassembled: the
          O(1) reverse index behind [find_page_owner], replacing the
          all-blocks × all-pages scan the OS failure up-call used to
          pay *)
  mutable next_block_index : int;
  recyclable : Intvec.t;
      (** block indices with free lines, address order; consumed front
          to back through [recyclable_pos] (a cursor into a flat vector
          instead of popping list cells) *)
  mutable recyclable_pos : int;
  (* bump-pointer state: main cursor *)
  mutable cur_block : int;  (** -1 = none *)
  mutable cursor : int;
  mutable limit : int;
  (* overflow allocation state *)
  mutable ovf_block : int;
  mutable ovf_cursor : int;
  mutable ovf_limit : int;
  (* generational state *)
  remset : Remset.t;
  nursery : Intvec.t;
  mutable want_full : bool;  (** last nursery collection yielded too little *)
  mutable defrag_requested : bool;
      (** defragment at the next full collection (Immix defragments on
          demand: set by allocation failures and dynamic failures) *)
  mutable post_gc_check : unit -> unit;
      (** paranoid-verifier hook, run at the end of every collection
          (installed by [Vm] when [Config.verify] is set; [ignore]
          otherwise, so the disabled cost is one closure call) *)
  (* full-collection cycle state.  Every full collection is one
     snapshot-at-the-beginning cycle: stop-the-world drains it inside
     one pause, a [gc_slice] budget cuts it into slices driven from the
     allocation path.  The snapshot is a word copy of the object
     table's occupancy and liveness bitmaps: each occupied slot is one
     entry, snapshot-live or snapshot-dead. *)
  mutable gc_slice : int;
      (** work budget per slice in snapshot entries; 0 = stop-the-world
          (mutable so the torture driver can toggle mid-run) *)
  mutable snap_occupied : Bitset.t;
      (** the snapshot's entries: the slots occupied at [snapshot] *)
  mutable snap_alive : Bitset.t;
      (** the entries' liveness at [snapshot]: set = snapshot-live,
          clear = snapshot-dead *)
  satb : Remset.t;
      (** the SATB mutation log: sources of reference stores executed
          while marking is in progress and the source is already black;
          drained (and charged like remset entries) at mark end *)
  mutable inc_phase : int;  (** 0 idle / 1 mark / 2 sweep / 3 defrag *)
  mutable inc_pos : int;
      (** resume cursor: the slot id the mark phase resumes its walk of
          [snap_occupied] at, or the next block-table index (sweep
          phase) *)
  mutable inc_epoch : int;  (** current mark epoch ("black" = marked in it) *)
  inc_recyclable : Intvec.t;
      (** recyclable vector under construction by the sweep phase,
          installed wholesale when the pass completes *)
  mutable inc_candidates : int list;  (** defrag candidates (block indices) left to evacuate *)
  mutable inc_snapshot_len : int;  (** snapshot entries: [snap_occupied]'s population count *)
  mutable inc_nursery_len : int;  (** nursery length at snapshot *)
  mutable inc_marked : int;  (** cycle work counter: snapshot-live processed *)
  mutable inc_released : int;  (** cycle work counter: snapshot-dead released *)
  mutable inc_left_behind : int;  (** cycle counter: live objects evacuation could not move *)
  mutable pending_retire : (int * int * int) list;
      (** deferred dynamic-failure line retirements, newest first:
          (heap addr, stock page id or -1, 64 B line within the page) —
          completed by the defrag phase, so a failure storm never forces
          a monolithic evacuation pause *)
  mutable inc_trigger : int;  (** allocations since the last proactive-start check *)
  tracer : Trace.view;  (** gc/alloc-lane events: phase spans, slow paths *)
}

let block_bytes = Units.block_bytes

let create ?(tracer = Trace.null) ~(cfg : Config.t) ~(cost : Cost.t) ~(metrics : Metrics.t)
    ~(stock : Page_stock.t) ~(objects : Object_table.t) ~(los : Los.t) () : t =
  let t =
    {
    cfg;
    cost;
    metrics;
    stock;
    objects;
    los;
    table = Array.make 256 None;
    btbl = Block.table_create ();
    nblocks = 0;
    page_owner = Array.make (Page_stock.npages stock) (-1);
    next_block_index = 0;
    recyclable = Intvec.create ();
    recyclable_pos = 0;
    cur_block = -1;
    cursor = 0;
    limit = 0;
    ovf_block = -1;
    ovf_cursor = 0;
    ovf_limit = 0;
      remset = Remset.create ();
      (* pre-sized: the nursery absorbs every mutator allocation between
         collections, and doubling it up from 16 re-copies the whole
         vector log n times on the hottest path *)
      nursery = Intvec.create ~capacity:1024 ();
      want_full = false;
      defrag_requested = false;
      post_gc_check = ignore;
      gc_slice = cfg.Config.gc_slice;
      snap_occupied = Bitset.create 0;
      snap_alive = Bitset.create 0;
      satb = Remset.create ();
      inc_phase = 0;
      inc_pos = 0;
      inc_epoch = 0;
      inc_recyclable = Intvec.create ();
      inc_candidates = [];
      inc_snapshot_len = 0;
      inc_nursery_len = 0;
      inc_marked = 0;
      inc_released = 0;
      inc_left_behind = 0;
      pending_retire = [];
      inc_trigger = 0;
      tracer;
    }
  in
  (* the "has sufficient memory" test for DRAM borrowing must see the
     free lines held inside partially used blocks, not just free stock
     pages *)
  Page_stock.set_extra_free stock (fun () ->
      let acc = ref 0 in
      for i = 0 to t.next_block_index - 1 do
        match Array.unsafe_get t.table i with
        | Some b -> acc := !acc + Block.free_bytes b
        | None -> ()
      done;
      !acc);
  t

(* ascending-index iteration over live blocks — the single deterministic
   order used by every collection pass *)
let iter_blocks (t : t) (f : Block.t -> unit) : unit =
  for i = 0 to t.next_block_index - 1 do
    match Array.unsafe_get t.table i with Some b -> f b | None -> ()
  done

let block_opt (t : t) (index : int) : Block.t option =
  if index < 0 || index >= t.next_block_index then None else t.table.(index)

let block (t : t) (index : int) : Block.t =
  match block_opt t index with Some b -> b | None -> raise Not_found

let block_of_addr (t : t) (addr : int) : Block.t = block t (addr / block_bytes)

let is_medium (t : t) ~(size : int) : bool = size > t.cfg.Config.line_size

(* ------------------------------------------------------------------ *)
(* Block acquisition                                                   *)
(* ------------------------------------------------------------------ *)

(* Install a block built from [pages] (stock ids; -1 = borrowed DRAM). *)
let install_block (t : t) ~(pages : int array) : int =
  let w = Cost.default in
  let index = t.next_block_index in
  t.next_block_index <- t.next_block_index + 1;
  let empty_bitmap = Bitset.create Holes_pcm.Geometry.lines_per_page in
  let b =
    Block.create ~tbl:t.btbl ~index ~base:(index * block_bytes)
      ~line_size:t.cfg.Config.line_size ~pages
      ~page_bitmap:(fun id ->
        if id = -1 then empty_bitmap else (Page_stock.page t.stock id).Page_stock.bitmap)
  in
  if index >= Array.length t.table then begin
    let grown = Array.make (max 16 (2 * Array.length t.table)) None in
    Array.blit t.table 0 grown 0 (Array.length t.table);
    t.table <- grown
  end;
  t.table.(index) <- Some b;
  t.nblocks <- t.nblocks + 1;
  Array.iter (fun id -> if id >= 0 then t.page_owner.(id) <- index) pages;
  Cost.charge t.cost w.Cost.block_assemble;
  t.metrics.Metrics.blocks_assembled <- t.metrics.Metrics.blocks_assembled + 1;
  index

(* Assemble a fresh block from eight relaxed stock pages.  Returns the
   block index, or None when the stock cannot supply a block. *)
let assemble_block (t : t) : int option =
  let pages = Array.make Units.pages_per_block (-2) in
  let rec take i =
    if i = Units.pages_per_block then true
    else
      match Page_stock.take_relaxed t.stock with
      | Some p ->
          pages.(i) <- p;
          take (i + 1)
      | None ->
          (* roll back *)
          for j = 0 to i - 1 do
            Page_stock.return_page t.stock pages.(j)
          done;
          false
  in
  if not (take 0) then None else Some (install_block t ~pages)

(* Assemble a perfect block for the overflow fallback: eight perfect
   pages, borrowing DRAM where the perfect pool is dry (Sec. 3.3.3).
   None when both the perfect pool and the borrow budget are exhausted. *)
let assemble_perfect_block (t : t) : int option =
  let w = Cost.default in
  let pages = Array.make Units.pages_per_block (-2) in
  let rec take i =
    if i = Units.pages_per_block then true
    else begin
      Cost.charge t.cost w.Cost.perfect_request;
      match Page_stock.take_perfect t.stock with
      | Page_stock.Perfect id ->
          pages.(i) <- id;
          take (i + 1)
      | Page_stock.Borrowed ->
          Cost.charge t.cost w.Cost.dram_borrow;
          pages.(i) <- -1;
          take (i + 1)
      | Page_stock.Exhausted ->
          for j = 0 to i - 1 do
            if pages.(j) = -1 then Page_stock.return_borrowed t.stock
            else Page_stock.return_page t.stock pages.(j)
          done;
          false
    end
  in
  if not (take 0) then None
  else begin
    let bi = install_block t ~pages in
    Block.set_perfect_grant (block t bi) true;
    Some bi
  end

(* Dissolve a completely free block, returning its pages to the stock. *)
let dissolve_block (t : t) (b : Block.t) : unit =
  Array.iter
    (fun id ->
      if id = -1 then Page_stock.return_borrowed t.stock
      else begin
        t.page_owner.(id) <- -1;
        Page_stock.return_page t.stock id
      end)
    b.Block.pages;
  t.table.(b.Block.index) <- None;
  t.nblocks <- t.nblocks - 1

(* ------------------------------------------------------------------ *)
(* Bump allocation                                                     *)
(* ------------------------------------------------------------------ *)

let[@inline] charge_alloc (t : t) ~(size : int) : unit =
  let w = Cost.default in
  Cost.charge t.cost (w.Cost.alloc_fast +. (w.Cost.alloc_byte *. float_of_int size))

(* Place an object at the main cursor (caller guarantees fit).  This is
   the true bump fast path: bump, account the touched lines, charge —
   no option boxing, no closure, no search. *)
let place_at_cursor (t : t) ~(size : int) : int =
  let addr = t.cursor in
  t.cursor <- t.cursor + size;
  let b = block t t.cur_block in
  Block.add_object_lines b ~addr ~size;
  charge_alloc t ~size;
  addr

let place_at_ovf (t : t) ~(size : int) : int =
  let addr = t.ovf_cursor in
  t.ovf_cursor <- t.ovf_cursor + size;
  let b = block t t.ovf_block in
  Block.add_object_lines b ~addr ~size;
  charge_alloc t ~size;
  addr

(* Point the main cursor at a hole of [b]; true on success. *)
let set_cursor_to_hole (t : t) (b : Block.t) ~(from_line : int) ~(min_bytes : int) : bool =
  let enc = Block.find_hole_enc b ~from_line ~min_bytes in
  if enc < 0 then false
  else begin
      let s = enc lsr 30 and e = enc land 0x3FFFFFFF in
      let examined = e - (if from_line > 0 then from_line else 0) in
      let w = Cost.default in
      Cost.charge t.cost (w.Cost.line_scan *. float_of_int examined);
      t.metrics.Metrics.lines_scanned <- t.metrics.Metrics.lines_scanned + examined;
      Stats.observe_int t.metrics.Metrics.hole_search_hist examined;
      t.cur_block <- b.Block.index;
      t.cursor <- b.Block.base + (s * b.Block.line_size);
      t.limit <- b.Block.base + (e * b.Block.line_size);
      true
  end

(* Small-object allocation without triggering collection.  Returns the
   address, or -1 when the heap is exhausted at this instant.  The fast
   path is a single compare against the bump limit; [find_hole] is only
   re-entered on hole exhaustion (the slow path below). *)
let rec alloc_small_nogc (t : t) ~(size : int) : int =
  if t.cur_block >= 0 && t.cursor + size <= t.limit then place_at_cursor t ~size
  else alloc_small_slow t ~size

and alloc_small_slow (t : t) ~(size : int) : int =
  let w = Cost.default in
  (* advance to the next hole in the current block *)
  let advanced =
    t.cur_block >= 0
    &&
    let b = block t t.cur_block in
    let from_line = (t.limit - b.Block.base) / b.Block.line_size in
    let ok = set_cursor_to_hole t b ~from_line ~min_bytes:size in
    if ok then begin
      Cost.charge t.cost w.Cost.hole_skip;
      t.metrics.Metrics.hole_skips <- t.metrics.Metrics.hole_skips + 1;
      if Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_alloc "hole_skip"
    end;
    ok
  in
  if advanced then place_at_cursor t ~size
  else begin
    (* recycled blocks first (Immix allocation order, Sec. 4.1): walk
       the flat recyclable vector through its cursor *)
    let rec try_recyclable () =
      if t.recyclable_pos >= Intvec.length t.recyclable then false
      else begin
        let bi = Intvec.unsafe_get t.recyclable t.recyclable_pos in
        t.recyclable_pos <- t.recyclable_pos + 1;
        (* an incremental sweep slice may have dissolved a listed block
           since the vector was built; skip the stale entry *)
        match block_opt t bi with
        | None -> try_recyclable ()
        | Some b ->
            Block.set_recyclable b false;
            Cost.charge t.cost w.Cost.block_open;
            if set_cursor_to_hole t b ~from_line:0 ~min_bytes:size then true
            else try_recyclable ()
      end
    in
    if try_recyclable () then place_at_cursor t ~size
    else
      (* then completely free blocks from the global pool *)
      match assemble_block t with
      | None -> -1
      | Some bi ->
          Cost.charge t.cost w.Cost.block_open;
          let b = block t bi in
          if set_cursor_to_hole t b ~from_line:0 ~min_bytes:size then place_at_cursor t ~size
          else begin
            (* an extremely damaged block can lack any usable hole;
               return its pages immediately and try the next one *)
            dissolve_block t b;
            alloc_small_nogc t ~size
          end
  end

(* Medium-object overflow allocation (Sec. 4.1 "overflow allocation",
   failure-aware re-search per Sec. 4.2).  Returns the address, or one
   of two negative sentinels (no variant boxing on the alloc path):
   [needs_gc] — memory genuinely exhausted: collect and retry;
   [needs_perfect] — free memory exists but is too fragmented for this
   object: request a perfect block (no collection would change the
   static holes).

   The 2–8 line medium fast path: a medium object whose size fits the
   current bump run is placed directly at the cursor — it never touches
   the overflow state, the LOS table, or a hole search. *)
let needs_gc = -1
let needs_perfect = -2

let alloc_medium_nogc (t : t) ~(size : int) : int =
  let w = Cost.default in
  (* fits the current bump run? then no overflow needed *)
  if t.cur_block >= 0 && t.cursor + size <= t.limit then place_at_cursor t ~size
  else begin
    t.metrics.Metrics.overflow_allocs <- t.metrics.Metrics.overflow_allocs + 1;
    if t.ovf_block >= 0 && t.ovf_cursor + size <= t.ovf_limit then place_at_ovf t ~size
    else begin
      (* failure-aware change: search the remainder of the overflow block
         for a suitably sized hole before giving up on it *)
      let search_ovf () =
        t.ovf_block >= 0
        &&
        let b = block t t.ovf_block in
        t.metrics.Metrics.overflow_searches <- t.metrics.Metrics.overflow_searches + 1;
        if Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_alloc "overflow_search"
            ~args:[ ("size", float_of_int size) ];
        let enc = Block.find_hole_enc b ~from_line:0 ~min_bytes:size in
        if enc < 0 then false
        else begin
            let s = enc lsr 30 and e = enc land 0x3FFFFFFF in
            let examined = e in
            Cost.charge t.cost
              (w.Cost.hole_skip +. (w.Cost.line_scan *. float_of_int examined));
            t.metrics.Metrics.lines_scanned <- t.metrics.Metrics.lines_scanned + examined;
            Stats.observe_int t.metrics.Metrics.hole_search_hist examined;
            t.metrics.Metrics.hole_skips <- t.metrics.Metrics.hole_skips + 1;
            t.ovf_cursor <- b.Block.base + (s * b.Block.line_size);
            t.ovf_limit <- b.Block.base + (e * b.Block.line_size);
            true
        end
      in
      if search_ovf () then place_at_ovf t ~size
      else
        match assemble_block t with
        | Some bi -> (
            Cost.charge t.cost w.Cost.block_open;
            let b = block t bi in
            let enc = Block.find_hole_enc b ~from_line:0 ~min_bytes:size in
            if enc >= 0 then begin
                let s = enc lsr 30 and e = enc land 0x3FFFFFFF in
                let examined = e in
                Cost.charge t.cost (w.Cost.line_scan *. float_of_int examined);
                t.metrics.Metrics.lines_scanned <- t.metrics.Metrics.lines_scanned + examined;
                Stats.observe_int t.metrics.Metrics.hole_search_hist examined;
                t.ovf_block <- bi;
                t.ovf_cursor <- b.Block.base + (s * b.Block.line_size);
                t.ovf_limit <- b.Block.base + (e * b.Block.line_size);
                place_at_ovf t ~size
            end
            else begin
                (* even a completely fresh block has no big-enough hole:
                   the *static* failure pattern, not garbage, is the
                   obstacle.  A collection cannot help; hand the block's
                   pages back and request a perfect block. *)
                dissolve_block t b;
                needs_perfect
            end)
        | None -> needs_gc
    end
  end

(* Perfect-block fallback for medium objects that cannot be placed in
   imperfect memory (Sec. 3.3.3 / 4.2).  Returns -1 when the perfect
   pool and the DRAM borrow budget are both exhausted (caller
   collects/fails). *)
let alloc_medium_perfect (t : t) ~(size : int) : int =
  t.metrics.Metrics.perfect_block_fallbacks <- t.metrics.Metrics.perfect_block_fallbacks + 1;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_alloc "perfect_fallback"
      ~args:[ ("size", float_of_int size) ];
  match assemble_perfect_block t with
  | None -> -1
  | Some bi ->
      Cost.charge t.cost Cost.default.Cost.block_open;
      t.ovf_block <- bi;
      let b = block t bi in
      t.ovf_cursor <- b.Block.base;
      t.ovf_limit <- b.Block.base + block_bytes;
      place_at_ovf t ~size

(* Allocation attempt without collection, dispatching on size class:
   the address, or -1.  Used by evacuation and nursery copying, which
   must neither recurse into a collection nor consume perfect blocks. *)
let alloc_nogc (t : t) ~(size : int) : int =
  if is_medium t ~size then
    let r = alloc_medium_nogc t ~size in
    if r >= 0 then r else -1
  else alloc_small_nogc t ~size

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let total_free_bytes (t : t) : int =
  let blocks_free = ref 0 in
  iter_blocks t (fun b -> blocks_free := !blocks_free + Block.free_bytes b);
  Page_stock.free_usable_bytes t.stock + !blocks_free

let reset_cursors (t : t) : unit =
  t.cur_block <- -1;
  t.cursor <- 0;
  t.limit <- 0;
  t.ovf_block <- -1;
  t.ovf_cursor <- 0;
  t.ovf_limit <- 0

(* The fused sweep: one ascending pass over the blocks that (per block,
   via [Block.sweep]) recomputes the exact hole bound from the packed
   free map, clears the recyclable flag, and reads the free-line count
   — then rebuilds the recyclable vector in address order.  The sweep
   charge is per line-mark word scanned, exactly as before the fusion. *)
let rebuild_recyclable (t : t) : unit =
  let w = Cost.default in
  Intvec.clear t.recyclable;
  t.recyclable_pos <- 0;
  (* ascending-index iteration: the vector is built already sorted *)
  iter_blocks t (fun b ->
      Cost.charge t.cost (w.Cost.sweep_line *. float_of_int b.Block.nlines);
      let free = Block.sweep b in
      if free > 0 && b.Block.index <> t.cur_block && b.Block.index <> t.ovf_block then begin
        Block.set_recyclable b true;
        Intvec.push t.recyclable b.Block.index
      end)

(* Dissolve every empty block no bump cursor points into: a single
   ascending pass (dissolving only blanks the slot, so iterating while
   dissolving is safe). *)
let dissolve_empty_blocks (t : t) : unit =
  iter_blocks t (fun b ->
      if Block.is_empty b && b.Block.index <> t.cur_block && b.Block.index <> t.ovf_block then
        dissolve_block t b)

(* Copy object [id] ([size] bytes at [addr], inside block [b]) to
   [new_addr]: move its line accounting and charge the copy. *)
let move_object (t : t) (b : Block.t) (id : int) ~(addr : int) ~(size : int) ~(new_addr : int) :
    unit =
  Block.remove_object_lines b ~addr ~size;
  Object_table.relocate t.objects id ~new_addr;
  Intvec.push (block_of_addr t new_addr).Block.objs id;
  Cost.charge_copy t.cost ~bytes:size;
  t.metrics.Metrics.bytes_copied <- t.metrics.Metrics.bytes_copied + size

(* Evacuate the live, unpinned objects of [b] using the normal allocator
   (no collection recursion), in ascending slot order without duplicates
   ([objs] holds allocation order and may repeat an id).  Evacuation is
   opportunistic, as in Immix: an object that cannot be placed right now
   (e.g. a medium object with no overflow space) simply stays where it
   is.  Returns the number of objects left behind. *)
let evacuate_block (t : t) (b : Block.t) : int =
  let left = ref 0 in
  List.iter
    (fun id ->
      if Object_table.is_alive t.objects id && (not (Object_table.is_pinned t.objects id))
         && not (Object_table.is_los t.objects id)
      then begin
        let addr = Object_table.addr t.objects id in
        if addr / block_bytes = b.Block.index then begin
          let size = Object_table.size t.objects id in
          let new_addr = alloc_nogc t ~size in
          if new_addr < 0 then incr left
          else begin
            move_object t b id ~addr ~size ~new_addr;
            t.metrics.Metrics.objects_evacuated <- t.metrics.Metrics.objects_evacuated + 1
          end
        end
      end)
    (List.sort_uniq Int.compare (Intvec.to_list b.Block.objs));
  Block.set_evacuate b false;
  Block.set_candidate b false;
  !left

(** A nursery (sticky mark bits) collection: only objects allocated since
    the last collection are examined; survivors are opportunistically
    copied into available holes (Sec. 4.1 "Sticky Immix"). *)
let nursery_gc (t : t) : unit =
  let w = Cost.default in
  let armed = Trace.armed t.tracer in
  Cost.begin_gc t.cost;
  if armed then Trace.begin_span t.tracer ~tid:Trace.tid_gc "nursery_gc";
  Cost.charge t.cost w.Cost.gc_nursery_fixed;
  let free_before = total_free_bytes t in
  Cost.charge t.cost (w.Cost.remset_entry *. float_of_int (Remset.size t.remset));
  Remset.clear t.remset;
  Intvec.iter t.nursery (fun id ->
      if not (Object_table.is_alive t.objects id) then begin
        let addr = Object_table.addr t.objects id in
        if addr >= 0 then begin
          if Object_table.is_los t.objects id then Los.free t.los ~addr
          else
            Block.remove_object_lines (block_of_addr t addr) ~addr
              ~size:(Object_table.size t.objects id);
          Object_table.release t.objects id
        end
      end
      else begin
        let size = Object_table.size t.objects id in
        let nrefs = Object_table.nrefs t.objects id in
        Cost.charge t.cost (w.Cost.mark_obj +. (w.Cost.mark_edge *. float_of_int nrefs));
        (if t.cfg.Config.nursery_copy && (not (Object_table.is_pinned t.objects id))
            && not (Object_table.is_los t.objects id)
         then
           let addr = Object_table.addr t.objects id in
           let new_addr = alloc_nogc t ~size in
           if new_addr >= 0 then move_object t (block_of_addr t addr) id ~addr ~size ~new_addr);
        Object_table.clear_nursery_flag t.objects id
      end);
  Intvec.clear t.nursery;
  dissolve_empty_blocks t;
  rebuild_recyclable t;
  let freed = total_free_bytes t - free_before in
  let heap_bytes = Page_stock.npages t.stock * Holes_pcm.Geometry.page_bytes in
  if float_of_int freed < 0.12 *. float_of_int heap_bytes then t.want_full <- true;
  let pause = Cost.end_gc t.cost in
  t.metrics.Metrics.nursery_gcs <- t.metrics.Metrics.nursery_gcs + 1;
  Metrics.record_nursery_pause t.metrics pause;
  if armed then
    Trace.end_span t.tracer ~tid:Trace.tid_gc "nursery_gc" ~args:[ ("pause_ns", pause) ];
  let live = Object_table.live_bytes t.objects in
  if live > t.metrics.Metrics.peak_live_bytes then t.metrics.Metrics.peak_live_bytes <- live;
  t.post_gc_check ()

(* ------------------------------------------------------------------ *)
(* The full-collection cycle                                           *)
(*                                                                     *)
(* Every full collection is one snapshot-at-the-beginning cycle —      *)
(* snapshot, mark, sweep, defrag — made of budgeted steps.  A          *)
(* stop-the-world collection ([full_gc]) closes the bump cursors and   *)
(* drains every step with no budget inside one [Cost.begin_gc]/[end_gc] *)
(* bracket.  Under a [gc_slice] budget the same steps run as slices    *)
(* driven from the allocation path, each its own bracket, so the       *)
(* recorded pause is the slice, not the cycle; the charges, and their  *)
(* order, are the same either way.  Nothing clears line marks: the     *)
(* snapshot copies the object table's occupancy and liveness bitmaps;  *)
(* live entries are charged and blackened in place, dead entries have  *)
(* their lines removed and their slots released.  Per-line live counts *)
(* therefore equal the coverage of all uncollected objects at every    *)
(* instant — the exact invariant the verifier checks after each slice. *)
(*                                                                     *)
(* SATB details: an object killed after the snapshot is still charged  *)
(* and blackened (floating garbage, reclaimed next cycle); objects     *)
(* allocated during marking are born black ([register] stamps the      *)
(* epoch); stores whose source is already black log the source into    *)
(* [satb], drained and charged like remset entries at mark end.        *)
(* ------------------------------------------------------------------ *)

let inc_idle = 0
let inc_mark = 1
let inc_sweep = 2
let inc_defrag = 3

let incremental_active (t : t) : bool = t.inc_phase <> inc_idle

let oom (t : t) ~(size : int) : 'a =
  t.metrics.Metrics.out_of_memory <- true;
  t.metrics.Metrics.oom_request <- size;
  raise Out_of_memory

let pinned_alive (t : t) (id : int) : bool =
  Object_table.is_alive t.objects id && Object_table.is_pinned t.objects id

(* The objects still holding logical line [line] of [b] — alive or
   dead-but-uncollected — in descending slot order without duplicates:
   the order line retirement relocates them in. *)
let line_occupants (t : t) (b : Block.t) ~(line : int) : int list =
  let lo = b.Block.base + (line * b.Block.line_size) in
  let hi = lo + b.Block.line_size in
  let acc = ref [] in
  Intvec.iter b.Block.objs (fun id ->
      let oa = Object_table.addr t.objects id in
      if oa >= 0 && oa / block_bytes = b.Block.index && (not (Object_table.is_los t.objects id))
         && oa < hi && lo < oa + Object_table.size t.objects id
      then acc := id :: !acc);
  List.sort_uniq (fun x y -> Int.compare y x) !acc

(* Close the bump cursors whose run overlaps logical line [line] of [b]. *)
let close_cursors_over (t : t) (b : Block.t) ~(line : int) : unit =
  let lo = b.Block.base + (line * b.Block.line_size) in
  let hi = lo + b.Block.line_size in
  if t.cur_block = b.Block.index && t.cursor < hi && lo < t.limit then begin
    t.cur_block <- -1;
    t.cursor <- 0;
    t.limit <- 0
  end;
  if t.ovf_block = b.Block.index && t.ovf_cursor < hi && lo < t.ovf_limit then begin
    t.ovf_block <- -1;
    t.ovf_cursor <- 0;
    t.ovf_limit <- 0
  end

(* Retire the 64 B line behind [addr] — the one line-retirement path.
   Close the bump cursors over its logical line and relocate every
   object still on it: alive ones move (through the perfect-block
   fallback if imperfect memory cannot hold them), dead-but-uncollected
   ones — possible only between the slices of a budgeted cycle — are
   released.  Then fail the logical line and persist the hole on the
   backing stock page.  A pinned survivor cannot move: the OS masks the
   failure instead (page copy to a perfect page + remap, Sec. 3.3.3
   "Pinning support"), so the logical line never fails.  Idempotent:
   re-retiring an already failed line is a no-op.  [stock_page]/[line64]
   were captured when the failure arrived, so a block dissolved in the
   interim still gets its hole recorded in the stock. *)
let complete_line_retirement (t : t) ~(addr : int) ~(stock_page : int) ~(line64 : int) : unit =
  let w = Cost.default in
  let masked =
    match block_opt t (addr / block_bytes) with
    | None -> false
    | Some b ->
        let line = Block.line_of_offset b (addr - b.Block.base) in
        close_cursors_over t b ~line;
        let occupants = line_occupants t b ~line in
        if List.exists (pinned_alive t) occupants then begin
          Cost.charge t.cost
            (w.Cost.perfect_request +. w.Cost.dram_borrow
            +. (w.Cost.copy_byte *. float_of_int Holes_pcm.Geometry.page_bytes));
          t.metrics.Metrics.bytes_copied <-
            t.metrics.Metrics.bytes_copied + Holes_pcm.Geometry.page_bytes;
          true
        end
        else begin
          List.iter
            (fun id ->
              let oa = Object_table.addr t.objects id in
              let size = Object_table.size t.objects id in
              if Object_table.is_alive t.objects id then begin
                let new_addr =
                  let a = alloc_nogc t ~size in
                  if a >= 0 then a else alloc_medium_perfect t ~size
                in
                if new_addr < 0 then oom t ~size;
                move_object t b id ~addr:oa ~size ~new_addr;
                t.metrics.Metrics.objects_evacuated <- t.metrics.Metrics.objects_evacuated + 1
              end
              else begin
                Block.remove_object_lines b ~addr:oa ~size;
                Object_table.release t.objects id
              end)
            occupants;
          (match Block.fail_line b ~line with
          | `Already_failed | `Was_free -> ()
          | `Was_live -> assert false);
          false
        end
  in
  if (not masked) && stock_page >= 0 then
    Page_stock.mark_line_failed t.stock ~id:stock_page ~line:line64

(* Select the blocks this cycle evacuates, at mark end: blocks flagged
   by a dynamic failure always; when defragmentation was requested, also
   the sparsest half of the blocks under the occupancy threshold.  A
   flagged block the mark left empty is no candidate — the sweep
   dissolves it.  Every candidate carries the [candidate] flag until it
   is evacuated: the sweep's O(1) candidate test.  Returns the
   candidates' block indices in evacuation order. *)
let prepare_defrag (t : t) : int list =
  let flagged = ref [] and sparse = ref [] in
  let n_sparse = ref 0 in
  (* On-demand defragmentation consolidates much more aggressively than
     the steady-state threshold: it exists to turn scattered free lines
     back into whole free pages (for the LOS and overflow fallback). *)
  let threshold =
    if t.defrag_requested then Float.max t.cfg.Config.defrag_occupancy 0.90
    else t.cfg.Config.defrag_occupancy
  in
  iter_blocks t (fun b ->
      let usable = b.Block.nlines - Block.failed_lines b in
      if Block.evacuate b && Block.is_empty b then Block.set_evacuate b false
      else if usable > 0 then begin
        let live_lines = usable - Block.free_lines b in
        let ratio = float_of_int live_lines /. float_of_int usable in
        if Block.evacuate b then flagged := b :: !flagged
        else if t.cfg.Config.defrag && t.defrag_requested && ratio > 0.0 && ratio < threshold
        then begin
          sparse := (ratio, b) :: !sparse;
          incr n_sparse
        end
      end);
  (* When most blocks are sparse (common under heavy failures), all of
     them would be candidates and evacuation would have no destination.
     Evacuate the sparsest half into the denser half: consolidation
     still converges, and destinations always exist. *)
  let sparse_sorted = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !sparse) in
  let evacuated = List.filteri (fun i _ -> i <= !n_sparse / 2) sparse_sorted |> List.map snd in
  let candidates = List.rev_append !flagged evacuated in
  List.iter (fun b -> Block.set_candidate b true) candidates;
  List.map (fun (b : Block.t) -> b.Block.index) candidates

(* Open a cycle: charge the fixed collection cost and take the snapshot
   — a word copy of the object table's occupancy and liveness bitmaps
   (uncharged), so it costs the table's words, not one step per slot
   id ever handed out. *)
let snapshot (t : t) : unit =
  Cost.charge t.cost Cost.default.Cost.gc_fixed;
  t.inc_epoch <- t.inc_epoch + 1;
  let occupied = Object_table.occupied t.objects in
  let alive = Object_table.alive t.objects in
  if Bitset.length t.snap_occupied = Bitset.length occupied then begin
    Bitset.blit ~src:occupied ~dst:t.snap_occupied;
    Bitset.blit ~src:alive ~dst:t.snap_alive
  end
  else begin
    (* the table grew since the last snapshot *)
    t.snap_occupied <- Bitset.copy occupied;
    t.snap_alive <- Bitset.copy alive
  end;
  t.inc_pos <- 0;
  t.inc_snapshot_len <- Bitset.count t.snap_occupied;
  t.inc_nursery_len <- Intvec.length t.nursery;
  t.inc_marked <- 0;
  t.inc_released <- 0;
  t.inc_left_behind <- 0;
  Remset.clear t.satb;
  (* pre-snapshot remset records aim at nursery objects this cycle will
     process out of the nursery; records logged mid-cycle survive for
     the next nursery collection *)
  Remset.clear t.remset;
  t.inc_phase <- inc_mark

(* Process one snapshot entry: a snapshot-live one is charged and
   blackened even if killed since the snapshot (SATB floating garbage,
   reclaimed next cycle); a snapshot-dead one has its lines and slot
   reclaimed.  Nothing can release a slot between snapshot and here
   (nursery collections are suppressed during a cycle), so its lines
   are still accounted. *)
let mark_entry (t : t) (id : int) : unit =
  if Bitset.unsafe_get t.snap_alive id then begin
    let nrefs = Object_table.nrefs t.objects id in
    let w = Cost.default in
    Cost.charge t.cost (w.Cost.mark_obj +. (w.Cost.mark_edge *. float_of_int nrefs));
    Object_table.set_mark t.objects id t.inc_epoch;
    Object_table.clear_nursery_flag t.objects id;
    t.inc_marked <- t.inc_marked + 1
  end
  else begin
    let addr = Object_table.addr t.objects id in
    if addr >= 0 then begin
      if Object_table.is_los t.objects id then Los.free t.los ~addr
      else
        Block.remove_object_lines (block_of_addr t addr) ~addr
          ~size:(Object_table.size t.objects id);
      Object_table.release t.objects id
    end;
    t.inc_released <- t.inc_released + 1
  end

(* One step of the mark phase: process up to [budget] snapshot entries
   — the set bits of [snap_occupied] from the cursor [inc_pos], in
   ascending slot order — and move the cursor past them.  The slice
   that processes the last entry ends the phase. *)
let mark_slice (t : t) ~(budget : int) : unit =
  let w = Cost.default in
  let left = t.inc_snapshot_len - t.inc_marked - t.inc_released in
  let n = min left (max 1 budget) in
  t.inc_pos <-
    Bitset.iter_set_from t.snap_occupied ~from:t.inc_pos ~count:n (fun id -> mark_entry t id);
  if n = left then begin
    (* mark phase complete: drain the SATB log (charged like remset
       entries — the barrier's slow-path work), select evacuation
       candidates, and hand over to the sweep *)
    Cost.charge t.cost (w.Cost.remset_entry *. float_of_int (Remset.size t.satb));
    Remset.clear t.satb;
    assert (t.inc_marked + t.inc_released = t.inc_snapshot_len);
    assert (Bitset.next_set t.snap_occupied t.inc_pos = None);
    t.inc_candidates <- prepare_defrag t;
    Intvec.clear t.inc_recyclable;
    t.inc_phase <- inc_sweep;
    t.inc_pos <- 0
  end

(* Cycle completion: conservation asserts, nursery snapshot-prefix drop
   and the end-of-collection bookkeeping.  The pause is recorded by
   whichever caller brackets the step. *)
let finish_cycle_end (t : t) : unit =
  assert (t.inc_marked + t.inc_released = t.inc_snapshot_len);
  assert (t.inc_candidates = []);
  assert (t.pending_retire = []);
  (* snapshot-prefix nursery entries were all processed (un-flagged or
     released); entries pushed mid-cycle stay for the next nursery
     collection, as do their remset records *)
  Intvec.drop_prefix t.nursery t.inc_nursery_len;
  t.inc_nursery_len <- 0;
  t.want_full <- false;
  t.defrag_requested <- false;
  t.inc_phase <- inc_idle;
  t.metrics.Metrics.full_gcs <- t.metrics.Metrics.full_gcs + 1;
  let live = Object_table.live_bytes t.objects in
  if live > t.metrics.Metrics.peak_live_bytes then t.metrics.Metrics.peak_live_bytes <- live

(* One step of the sweep phase: a run of up to [budget / 128] blocks of
   the ascending block pass (the ratio of per-block sweep cost to
   per-object mark cost).  Empty blocks no cursor points into are
   dissolved; the others are charged and swept, their stale object ids
   dropped, and — unless a defrag candidate — queued as recyclable into
   [inc_recyclable], installed when the pass ends. *)
let sweep_slice (t : t) ~(budget : int) : unit =
  let w = Cost.default in
  let per_slice = max 1 (budget / 128) in
  let swept = ref 0 in
  while !swept < per_slice && t.inc_pos < t.next_block_index do
    (match Array.unsafe_get t.table t.inc_pos with
    | None -> ()
    | Some b ->
        let bi = b.Block.index in
        if Block.is_empty b && bi <> t.cur_block && bi <> t.ovf_block then dissolve_block t b
        else begin
          Cost.charge t.cost (w.Cost.sweep_line *. float_of_int b.Block.nlines);
          let free = Block.sweep b in
          (* drop stale ids (released or relocated away) so the per-block
             object list cannot grow without bound across cycles *)
          Intvec.filter_in_place b.Block.objs (fun id ->
              let a = Object_table.addr t.objects id in
              a >= 0
              && (not (Object_table.is_los t.objects id))
              && a / block_bytes = bi);
          if free > 0 && (not (Block.candidate b)) && bi <> t.cur_block && bi <> t.ovf_block
          then begin
            Block.set_recyclable b true;
            Intvec.push t.inc_recyclable bi
          end
        end);
    t.inc_pos <- t.inc_pos + 1;
    incr swept
  done;
  if t.inc_pos >= t.next_block_index then begin
    (* install the fresh vector (built in ascending order) *)
    Intvec.clear t.recyclable;
    Intvec.iter t.inc_recyclable (fun bi -> Intvec.push t.recyclable bi);
    Intvec.clear t.inc_recyclable;
    t.recyclable_pos <- 0;
    if t.inc_candidates = [] && t.pending_retire = [] then finish_cycle_end t
    else t.inc_phase <- inc_defrag
  end

(* One step of the defrag phase: evacuate one candidate block; once the
   candidates are drained, complete the deferred line retirements — up
   to [budget / 128] per step, each may relocate a line's worth of
   survivors — and end with a final dissolve and charged recyclable
   rebuild. *)
let defrag_slice (t : t) ~(budget : int) : unit =
  match t.inc_candidates with
  | bi :: rest ->
      t.inc_candidates <- rest;
      (match block_opt t bi with
      | None -> ()
      | Some b -> t.inc_left_behind <- t.inc_left_behind + evacuate_block t b)
  | [] when t.pending_retire <> [] ->
      (* oldest first; retirements arriving mid-step (a relocation
         store wearing out another line) are re-queued behind the
         unprocessed remainder *)
      let pending = List.rev t.pending_retire in
      t.pending_retire <- [];
      let rec drain n = function
        | (addr, stock_page, line64) :: rest when n > 0 ->
            complete_line_retirement t ~addr ~stock_page ~line64;
            drain (n - 1) rest
        | rest -> rest
      in
      let rest = drain (max 1 (budget / 128)) pending in
      t.pending_retire <- t.pending_retire @ List.rev rest
  | [] ->
      dissolve_empty_blocks t;
      rebuild_recyclable t;
      finish_cycle_end t

(** A stop-the-world full collection: close the bump cursors, take the
    snapshot, and drain mark, sweep and defrag with no budget inside one
    [Cost.begin_gc]/[end_gc] bracket — one recorded pause, traced as
    [full_gc] with [mark]/[sweep]/[defrag] sub-spans. *)
let full_gc (t : t) : unit =
  let armed = Trace.armed t.tracer in
  let span name = if armed then Trace.begin_span t.tracer ~tid:Trace.tid_gc name in
  let span_end ?(args = []) name =
    if armed then Trace.end_span t.tracer ~tid:Trace.tid_gc name ~args
  in
  assert (not (incremental_active t));
  Cost.begin_gc t.cost;
  span "full_gc";
  reset_cursors t;
  snapshot t;
  span "mark";
  mark_slice t ~budget:max_int;
  span_end "mark";
  span "sweep";
  sweep_slice t ~budget:max_int;
  span_end "sweep";
  if incremental_active t then begin
    let evacuated = t.metrics.Metrics.objects_evacuated in
    if armed then
      Trace.begin_span t.tracer ~tid:Trace.tid_gc "defrag"
        ~args:[ ("candidates", float_of_int (List.length t.inc_candidates)) ];
    while incremental_active t do
      defrag_slice t ~budget:max_int
    done;
    span_end "defrag"
      ~args:
        [
          ("evacuated", float_of_int (t.metrics.Metrics.objects_evacuated - evacuated));
          ("left_behind", float_of_int t.inc_left_behind);
        ]
  end;
  let pause = Cost.end_gc t.cost in
  Metrics.record_pause t.metrics pause;
  span_end "full_gc" ~args:[ ("pause_ns", pause) ];
  t.post_gc_check ()

(* Close the slice [Cost.begin_gc] opened: count it, record its pause,
   end its span and run the verifier hook. *)
let end_slice (t : t) (name : string) : unit =
  let pause = Cost.end_gc t.cost in
  t.metrics.Metrics.gc_increments <- t.metrics.Metrics.gc_increments + 1;
  Metrics.record_pause t.metrics pause;
  if Trace.armed t.tracer then
    Trace.end_span t.tracer ~tid:Trace.tid_gc name ~args:[ ("pause_ns", pause) ];
  t.post_gc_check ()

(* Run one budgeted step of the active cycle, bracketed as its own
   recorded slice; no-op when no cycle is active. *)
let gc_increment (t : t) : unit =
  if incremental_active t then begin
    Cost.begin_gc t.cost;
    if Trace.armed t.tracer then
      Trace.begin_span t.tracer ~tid:Trace.tid_gc "gc_increment"
        ~args:[ ("phase", float_of_int t.inc_phase) ];
    (match t.inc_phase with
    | 1 -> mark_slice t ~budget:t.gc_slice
    | 2 -> sweep_slice t ~budget:t.gc_slice
    | _ -> defrag_slice t ~budget:t.gc_slice);
    end_slice t "gc_increment"
  end

(* Open a cycle as its own recorded slice; the fixed collection cost
   lands here, so it is the incremental pause floor. *)
let start_cycle (t : t) : unit =
  Cost.begin_gc t.cost;
  if Trace.armed t.tracer then Trace.begin_span t.tracer ~tid:Trace.tid_gc "gc_snapshot";
  snapshot t;
  end_slice t "gc_snapshot"

(* Drive the active cycle to completion (each slice still individually
   bounded, bracketed and verified). *)
let finish_cycle (t : t) : unit =
  while incremental_active t do
    gc_increment t
  done

(* A full collection: stop-the-world, or under a budget finish the
   cycle in flight (or run a whole fresh one) slice by slice, so every
   recorded pause stays bounded. *)
let collect_full (t : t) : unit =
  if t.gc_slice = 0 then full_gc t
  else begin
    if not (incremental_active t) then start_cycle t;
    finish_cycle t
  end

(* The allocation-path pulse: advance the active cycle by one slice, or
   check (every 64 allocations) whether free memory has fallen low
   enough to open one proactively — starting before exhaustion is what
   keeps forced back-to-back completions rare. *)
let incremental_pulse (t : t) : unit =
  if incremental_active t then gc_increment t
  else begin
    t.inc_trigger <- t.inc_trigger + 1;
    if t.inc_trigger land 63 = 0 then begin
      let heap_bytes = Page_stock.npages t.stock * Holes_pcm.Geometry.page_bytes in
      if total_free_bytes t * 4 < heap_bytes then start_cycle t
    end
  end

(** Set the incremental work budget (0 = stop-the-world).  Toggling
    increments off mid-cycle finishes the cycle first, so a
    stop-the-world collection never starts over a half-run cycle. *)
let set_gc_slice (t : t) (budget : int) : unit =
  if budget <= 0 && incremental_active t then finish_cycle t;
  t.gc_slice <- max 0 budget

(* ------------------------------------------------------------------ *)
(* Public mutator interface                                            *)
(* ------------------------------------------------------------------ *)

(* The collection-retry ladder, as top-level recursion (the previous
   inner closures allocated four environments per call — on the hottest
   path in the system). *)
let rec alloc_attempt (t : t) ~(size : int) ~(generational : bool) (n : int) : int =
  let r =
    if is_medium t ~size then begin
      let r = alloc_medium_nogc t ~size in
      if r = needs_perfect then begin
        (* static fragmentation, not garbage: go straight to a perfect
           block (Sec. 4.2); escalate to collection only if even the
           perfect grant is exhausted *)
        let a = alloc_medium_perfect t ~size in
        if a >= 0 then a else needs_gc
      end
      else r
    end
    else alloc_small_nogc t ~size
  in
  if r >= 0 then r else alloc_escalate t ~size ~generational n

and alloc_escalate (t : t) ~(size : int) ~(generational : bool) (n : int) : int =
  (* a medium that could not be placed signals fragmentation: ask the
     next full collection to defragment *)
  if is_medium t ~size then t.defrag_requested <- true;
  (* nursery collections are suppressed while a cycle is active: they
     would release objects the snapshot still references *)
  if n = 0 && generational && (not t.want_full) && not (incremental_active t) then begin
    nursery_gc t;
    alloc_attempt t ~size ~generational 1
  end
  else if n <= 1 then begin
    collect_full t;
    alloc_attempt t ~size ~generational 2
  end
  else if is_medium t ~size then begin
    let a = alloc_medium_perfect t ~size in
    if a >= 0 then a else oom t ~size
  end
  else oom t ~size

(** Allocate [size] bytes (pre-alignment) with the collection-retry
    ladder: nursery collection (sticky), then full collection, then the
    perfect-block fallback for medium objects; raises [Out_of_memory]
    when all fail. *)
let alloc (t : t) ~(size : int) : int =
  let size = Units.aligned_size size in
  (* incremental regime: each allocation advances the active cycle by
     one budgeted slice (or checks whether to open one) before the
     allocation itself proceeds *)
  if t.gc_slice > 0 then incremental_pulse t;
  alloc_attempt t ~size ~generational:(Config.is_generational t.cfg.Config.collector) 0

(** Register a freshly allocated object id with its block and the
    nursery. *)
let register (t : t) ~(id : int) ~(addr : int) : unit =
  if not (Los.is_los_addr addr) then Intvec.push (block_of_addr t addr).Block.objs id;
  Intvec.push t.nursery id;
  (* allocate black: an object born while marking is in progress is not
     in the snapshot and must survive this cycle *)
  if t.inc_phase = inc_mark then Object_table.set_mark t.objects id t.inc_epoch

(** The generational write barrier: [src] (an old object) now references
    a nursery object. *)
let write_barrier (t : t) ~(src : int) : unit =
  Cost.charge t.cost Cost.default.Cost.write_barrier;
  (* SATB leg: a store whose source is already black would hide the old
     target from a concurrent marker — log the source so mark end can
     account for it.  With the liveness oracle the log is bookkeeping
     (and charge) rather than re-traversal, but the trigger condition is
     the real barrier's. *)
  if t.inc_phase = inc_mark && Object_table.marked t.objects src t.inc_epoch then
    ignore (Remset.record t.satb ~src);
  if Config.is_generational t.cfg.Config.collector && not (Object_table.is_nursery t.objects src)
  then ignore (Remset.record t.remset ~src)

(** Handle a dynamic line failure at byte address [addr] (Sec. 4.2).

    A line no object occupies, or one under a pinned object (the OS
    masks that failure by page remap), is retired at once.  Otherwise
    the block is flagged for evacuation and the line's objects move
    first — the failure buffer holds the data in the interim, so no
    information is lost.  Stop-the-world, a full (copying) collection
    runs and then [complete_line_retirement] relocates what evacuation
    left on the line, outside the collection's pause.  Under a budget
    the retirement is deferred to the cycle's defrag phase (opening a
    cycle if none is running), so a failure storm produces a stream of
    bounded slices instead of one monolithic evacuation pause.  Either
    way the hole reaches the backing page's bitmap in the stock, so a
    reassembled block later sees it. *)
let dynamic_failure (t : t) ~(addr : int) : unit =
  t.metrics.Metrics.dynamic_failures <- t.metrics.Metrics.dynamic_failures + 1;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_gc "dynamic_failure"
      ~args:[ ("addr", float_of_int addr) ];
  match block_opt t (addr / block_bytes) with
  | None ->
      (* the address is not backed by an assembled block (stale address
         or dissolved block): nothing lives there, only OS bookkeeping
         would apply *)
      ()
  | Some b ->
      let off = addr - b.Block.base in
      (* the backing page is captured now: the block may be dissolved
         before the retirement completes, but the hole must still reach
         the stock *)
      let stock_page = b.Block.pages.(off / Holes_pcm.Geometry.page_bytes) in
      let line64 = off mod Holes_pcm.Geometry.page_bytes / Holes_pcm.Geometry.line_bytes in
      let line = Block.line_of_offset b off in
      close_cursors_over t b ~line;
      let occupants = line_occupants t b ~line in
      if occupants = [] || List.exists (pinned_alive t) occupants then
        complete_line_retirement t ~addr ~stock_page ~line64
      else begin
        Block.set_evacuate b true;
        if t.gc_slice > 0 then begin
          t.pending_retire <- (addr, stock_page, line64) :: t.pending_retire;
          if not (incremental_active t) then start_cycle t
        end
        else begin
          full_gc t;
          complete_line_retirement t ~addr ~stock_page ~line64
        end
      end

(** The assembled block (and page index within it) backed by stock page
    [page], if any — the reverse lookup the OS failure up-call needs to
    turn a page/line pair back into a heap address. *)
let find_page_owner (t : t) ~(page : int) : (Block.t * int) option =
  if page < 0 || page >= Array.length t.page_owner then None
  else
    match block_opt t t.page_owner.(page) with
    | None -> None
    | Some b ->
        (* position within the block's eight pages *)
        let rec pos i =
          if i >= Array.length b.Block.pages then None
          else if b.Block.pages.(i) = page then Some (b, i)
          else pos (i + 1)
        in
        pos 0

(** The 64 B PCM line backing heap byte [addr], packed as
    [stock_page * lines_per_page + line], or -1 for DRAM-borrowed pages
    and unassembled addresses.  Allocates nothing: it runs on every
    charged line store. *)
let page_backing (t : t) ~(addr : int) : int =
  match block_opt t (addr / block_bytes) with
  | None -> -1
  | Some b ->
      let off = addr - b.Block.base in
      let pg = b.Block.pages.(off / Holes_pcm.Geometry.page_bytes) in
      if pg < 0 then -1
      else
        (pg * Holes_pcm.Geometry.lines_per_page)
        + (off mod Holes_pcm.Geometry.page_bytes / Holes_pcm.Geometry.line_bytes)

(** Request defragmentation at the next full collection (used by the
    VM when the LOS runs short of pages: consolidation dissolves sparse
    blocks back into stock pages). *)
let request_defrag (t : t) : unit = t.defrag_requested <- true

(** Force a collection (used by the VM's LOS retry path).  A nursery
    request while a cycle is in flight finishes the cycle instead:
    nursery collections would release objects the snapshot still
    references. *)
let collect (t : t) ~(full : bool) : unit =
  if full || incremental_active t then collect_full t else nursery_gc t

(** Install the paranoid-verifier hook run at the end of every
    collection (replaces the previous hook). *)
let set_post_gc_check (t : t) (f : unit -> unit) : unit = t.post_gc_check <- f

(** The heap address the bump allocator will hand out next, if a bump
    run is open (main cursor first, then overflow) — the target of the
    adversarial worst-case-placement failure model. *)
let bump_target (t : t) : int option =
  if t.cur_block >= 0 && t.cursor < t.limit then Some t.cursor
  else if t.ovf_block >= 0 && t.ovf_cursor < t.ovf_limit then Some t.ovf_cursor
  else None

(** A uniformly drawn logical-line address within the assembled blocks
    (a failure storm's victim), [None] when no block is assembled. *)
let random_line_addr (t : t) (rng : Xrng.t) : int option =
  if t.nblocks = 0 then None
  else begin
    let k = Xrng.int rng t.nblocks in
    let found = ref None and seen = ref 0 in
    (try
       iter_blocks t (fun b ->
           if !seen = k then begin
             found := Some b;
             raise Exit
           end;
           incr seen)
     with Exit -> ());
    Option.map
      (fun (b : Block.t) ->
        b.Block.base + (Xrng.int rng b.Block.nlines * b.Block.line_size))
      !found
  end

(** Invariant checks (valid at any point, not just after a collection):
    no *live* object overlaps a failed line, and per-line live counts
    match the object table exactly — dead objects awaiting collection
    legitimately still hold their lines. *)
let check_invariants (t : t) : (unit, string) result =
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  (* recompute per-line expected counts over every uncollected object *)
  let expected : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  iter_blocks t (fun b -> Hashtbl.replace expected b.Block.index (Array.make b.Block.nlines 0));
  Object_table.iter_slots t.objects (fun id ->
      if not (Object_table.is_los t.objects id) then begin
        let alive = Object_table.is_alive t.objects id in
        let addr = Object_table.addr t.objects id in
        let size = Object_table.size t.objects id in
        match block_opt t (addr / block_bytes) with
        | None -> if alive then fail (Printf.sprintf "object %d at %d not in any block" id addr)
        | Some b ->
            let lo, hi = Block.lines_of_object b ~addr ~size in
            for l = lo to hi do
              if alive && Block.is_failed_line b l then
                fail (Printf.sprintf "object %d overlaps failed line %d of block %d" id l b.Block.index);
              (Hashtbl.find expected b.Block.index).(l) <-
                (Hashtbl.find expected b.Block.index).(l) + 1
            done
      end);
  iter_blocks t (fun b ->
      let i = b.Block.index in
      let exp = Hashtbl.find expected i in
      for l = 0 to b.Block.nlines - 1 do
        if b.Block.live.(l) <> exp.(l) then
          fail
            (Printf.sprintf "block %d line %d: live count %d, expected %d" i l b.Block.live.(l)
               exp.(l))
      done);
  match !err with None -> Ok () | Some m -> Error m
