(** Failure-aware Immix and Sticky Immix (paper Secs. 4.1–4.2).

    Immix manages memory as 32 KB blocks of logical lines.  A bump
    pointer allocates into contiguous runs of free lines and {e skips
    over unavailable lines} — which is precisely why failure awareness
    is a minimal extension: failed lines are a fourth line state that
    the allocator skips exactly like live lines.  Medium objects (larger
    than a line) that do not fit the current run go to a dedicated
    overflow block; the failure-aware version searches the remainder of
    the overflow block and only then falls back to requesting a perfect
    block.  Sticky Immix adds generational behaviour via sticky mark
    bits: objects allocated since the last collection form the logical
    nursery, collected from the remembered set without touching old
    objects.  Dynamic failures reuse the defragmentation machinery:
    affected blocks are flagged and their live objects evacuated by a
    full collection.

    There is one full collector: a snapshot-at-the-beginning cycle of
    snapshot, mark, sweep and defrag steps.  Stop-the-world drains every
    step with no budget inside one recorded pause; a [gc_slice] budget
    cuts the same steps into slices (DESIGN.md §15).  The heap-layout
    and fast-path design — the dense block table, the struct-of-arrays
    block metadata, the bump cursors and the snapshot work-list below —
    is documented in DESIGN.md §13.  The record is exposed for the heap
    verifier and the adversarial failure models, which inspect cursors
    and blocks directly. *)

open Holes_stdx
open Holes_heap

exception Out_of_memory

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
          O(1) reverse index behind [find_page_owner] *)
  mutable next_block_index : int;
  recyclable : Intvec.t;
      (** block indices with free lines, address order; consumed front
          to back through [recyclable_pos] *)
  mutable recyclable_pos : int;
  mark_queue : Intvec.t;
      (** the snapshot work-list: one entry per occupied slot, in
          ascending-id order, liveness sign-encoded — the mark phase runs
          over a dense int array *)
  mutable cur_block : int;  (** main bump cursor's block; -1 = none *)
  mutable cursor : int;
  mutable limit : int;
  mutable ovf_block : int;  (** overflow (medium-object) bump state *)
  mutable ovf_cursor : int;
  mutable ovf_limit : int;
  remset : Remset.t;
  nursery : Intvec.t;
  mutable want_full : bool;  (** last nursery collection yielded too little *)
  mutable defrag_requested : bool;
      (** defragment at the next full collection (Immix defragments on
          demand: set by allocation failures and dynamic failures) *)
  mutable post_gc_check : unit -> unit;
      (** paranoid-verifier hook, run at the end of every collection *)
  (* full-collection cycle state.  Every full collection is one
     snapshot-at-the-beginning cycle: stop-the-world drains it inside
     one pause, a [gc_slice] budget cuts it into slices driven from the
     allocation path.  [mark_queue] is the persistent snapshot
     work-list: entries are slot ids, sign-encoded with liveness at
     snapshot time (id = live, [lnot id] = dead).  Exposed for the heap
     verifier's SATB checks and the torture harness. *)
  mutable gc_slice : int;
      (** work budget per slice in mark-queue entries; 0 = stop-the-world
          (mutable so the torture driver can toggle mid-run) *)
  satb : Remset.t;
      (** the SATB mutation log: sources of reference stores executed
          while marking is in progress and the source is already black;
          drained (and charged like remset entries) at mark end *)
  mutable inc_phase : int;  (** 0 idle / 1 mark / 2 sweep / 3 defrag *)
  mutable inc_pos : int;
      (** resume cursor: next [mark_queue] entry (mark phase) or next
          block-table index (sweep phase) *)
  mutable inc_epoch : int;  (** current mark epoch ("black" = marked in it) *)
  inc_recyclable : Intvec.t;
      (** recyclable vector under construction by the sweep phase,
          installed wholesale when the pass completes *)
  mutable inc_candidates : int list;  (** defrag candidates (block indices) left to evacuate *)
  mutable inc_snapshot_len : int;  (** mark-queue length at snapshot *)
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
  tracer : Holes_obs.Trace.view;
}

val block_bytes : int

val create :
  ?tracer:Holes_obs.Trace.view ->
  cfg:Config.t ->
  cost:Cost.t ->
  metrics:Metrics.t ->
  stock:Page_stock.t ->
  objects:Object_table.t ->
  los:Los.t ->
  unit ->
  t

val iter_blocks : t -> (Block.t -> unit) -> unit
(** Ascending-index iteration over live blocks — the single
    deterministic order used by every collection pass. *)

val block_opt : t -> int -> Block.t option
val block : t -> int -> Block.t
val block_of_addr : t -> int -> Block.t

val is_medium : t -> size:int -> bool
(** Larger than one logical line (goes through overflow allocation)? *)

val total_free_bytes : t -> int
(** Free bytes in stock pages plus free lines inside assembled blocks. *)

val alloc : t -> size:int -> int
(** Allocate [size] bytes (pre-alignment) with the collection-retry
    ladder: nursery collection (sticky), then full collection, then the
    perfect-block fallback for medium objects; raises [Out_of_memory]
    when all fail.  The fast path is a single compare against the bump
    limit; the hole search runs only on hole exhaustion. *)

val register : t -> id:int -> addr:int -> unit
(** Register a freshly allocated object id with its block and the
    nursery. *)

val write_barrier : t -> src:int -> unit
(** The generational write barrier: [src] (an old object) now references
    a nursery object. *)

val collect : t -> full:bool -> unit
(** Force a collection (used by the VM's LOS retry path).  A full
    collection is stop-the-world (one recorded pause) with
    [gc_slice = 0]; under a budget it drives the cycle to completion in
    bounded, individually recorded slices.  A nursery request while a
    cycle is in flight finishes the cycle instead. *)

(** {2 Incremental collection}

    Every full collection runs the same snapshot-at-the-beginning cycle.
    With [Config.gc_slice > 0] its steps become slices: each allocation
    advances the active cycle by at most the budget's worth of marking
    work (sweeping, evacuation and deferred line retirement are
    budgeted proportionally), so the recorded pause is per-slice rather
    than per-cycle.  The charges and their order are those of the
    stop-the-world collection of the same snapshot — only their
    bracketing and interleaving with the mutator differ. *)

val inc_idle : int
(** [inc_phase] value: no cycle in flight. *)

val inc_mark : int
(** [inc_phase] value: marking — the window the SATB barrier covers. *)

val inc_sweep : int
(** [inc_phase] value: budgeted sweep of the block table. *)

val inc_defrag : int
(** [inc_phase] value: evacuation, one candidate block per step, then
    deferred line retirements. *)

val incremental_active : t -> bool
(** A collection cycle is in flight (some slice work remains). *)

val gc_increment : t -> unit
(** Run one bounded increment of the active cycle, bracketed as its own
    recorded pause; no-op when no cycle is active.  Normally driven
    from [alloc]; exposed for tests and the torture driver. *)

val set_gc_slice : t -> int -> unit
(** Set the incremental work budget (0 = stop-the-world).  Toggling
    increments off mid-cycle finishes the cycle first, so a
    stop-the-world collection never starts over a half-run cycle. *)

val dynamic_failure : t -> addr:int -> unit
(** Handle a dynamic line failure at byte address [addr] (Sec. 4.2).

    The affected block is flagged for evacuation and a full (copying)
    collection relocates the objects that overlap the failing line; only
    then is the logical line marked failed — the failure buffer holds the
    data in the interim, so no information is lost.  Stop-the-world, the
    collection runs at once and the line retirement relocates whatever
    evacuation left on the line right after its pause, as mutator time;
    under a [gc_slice] budget the retirement is deferred to the cycle's
    defrag phase.  A pinned object on the failing line cannot move: the
    OS instead remaps the page to a perfect page (Sec. 3.3.3 "Pinning
    support"), so the software-visible line never fails; we charge the
    page copy and a perfect-page grant.  Dynamic failures also update
    the backing page's bitmap in the stock, so a reassembled block later
    sees the hole. *)

val find_page_owner : t -> page:int -> (Block.t * int) option
(** The assembled block (and page index within it) backed by stock page
    [page], if any — the reverse lookup the OS failure up-call needs to
    turn a page/line pair back into a heap address. *)

val page_backing : t -> addr:int -> (int * int) option
(** Stock page id and 64 B PCM line backing heap byte [addr], if the
    address lies in an assembled block ([None] for DRAM-borrowed pages
    and unassembled addresses). *)

val request_defrag : t -> unit
(** Request defragmentation at the next full collection (used by the
    VM when the LOS runs short of pages: consolidation dissolves sparse
    blocks back into stock pages). *)

val live_blocks : t -> int

val set_post_gc_check : t -> (unit -> unit) -> unit
(** Install the paranoid-verifier hook run at the end of every
    collection (replaces the previous hook). *)

val bump_target : t -> int option
(** The heap address the bump allocator will hand out next, if a bump
    run is open (main cursor first, then overflow) — the target of the
    adversarial worst-case-placement failure model. *)

val random_line_addr : t -> Xrng.t -> int option
(** A uniformly drawn logical-line address within the assembled blocks
    (a failure storm's victim), [None] when no block is assembled. *)

val check_invariants : t -> (unit, string) result
(** Invariant checks (valid at any point, not just after a collection):
    no {e live} object overlaps a failed line, and per-line live counts
    match the object table exactly — dead objects awaiting collection
    legitimately still hold their lines. *)
