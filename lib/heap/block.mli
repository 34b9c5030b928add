(** Immix blocks: 32 KB regions divided into logical lines
    (paper Sec. 4.1, Fig. 2).

    Line states follow failure-aware Immix (Sec. 4.2): lines are free,
    live, or — the added fourth category — {e failed}.  A failed 64 B PCM
    line widens to its enclosing logical line (a {e false failure} when the
    logical line is larger, Sec. 6.2).

    The line map is stored as two packed bitmaps ([free] and [failed];
    live = neither) instead of one byte per line, so the hot operations
    — [find_hole], [clear_marks], [count_holes], and the false-failure
    widening in [create] — are word operations over 63-bit words.  The
    cost model is representation-independent: [find_hole] reports the
    exact [lines_examined] count the byte-at-a-time scan charged, because
    that scan touched every line from the scan start to the end of the
    returned run (or the end of the block) exactly once, which is a
    subtraction here (see DESIGN.md §9 and §13).

    The bitmaps and per-line live counts are exposed because the heap
    verifier rebuilds them from the object table and compares. *)

type line_state = Free | Live | Failed

(** The struct-of-arrays block-metadata table (one per heap).

    The mutable per-block scalars — free/failed line counts, the hole
    bound, and the recyclable/evacuate/candidate/perfect-grant flags —
    live in
    flat [int array]s indexed by block id rather than as mutable fields
    of each block record.  Collection passes that visit every block
    (sweep, defrag selection, recyclable rebuild) then stream over
    dense arrays instead of chasing a pointer per block, and the
    allocation fast path reads its metadata from one cache line.  The
    arrays grow monotonically with the block index; a dissolved block's
    entries simply go stale, exactly like its [None] slot in the
    allocator's block table. *)
type table = {
  mutable t_free_lines : int array;
  mutable t_failed_lines : int array;
  mutable t_hole_bound : int array;
  mutable t_flags : int array;
}

val table_create : unit -> table

type t = {
  index : int;
  base : int;  (** first byte address of the block *)
  pages : int array;  (** page-stock ids backing the block, in order *)
  line_size : int;
  line_shift : int;
      (** log2 [line_size]: line sizes are powers of two, so
          offset->line is a shift, not a division *)
  nlines : int;
  free : Holes_stdx.Bitset.t;  (** lines holding no live data and not failed *)
  failed : Holes_stdx.Bitset.t;  (** lines widened from failed PCM lines *)
  live : int array;  (** per-line count of live objects touching the line *)
  objs : Holes_stdx.Intvec.t;
      (** ids of objects allocated in this block (may be stale) *)
  tbl : table;  (** the heap's struct-of-arrays metadata, indexed by [index] *)
}

(** {2 Struct-of-arrays metadata accessors} *)

val free_lines : t -> int
val set_free_lines : t -> int -> unit
val failed_lines : t -> int
val set_failed_lines : t -> int -> unit

val hole_bound : t -> int
(** Upper bound on the longest free run, in lines: a failed whole-block
    hole search for [n] lines proves every run is shorter, so later
    searches for >= [n] lines can answer without rescanning.  The fused
    sweep recomputes it exactly; between sweeps it decays conservatively
    (freeing a line resets it to [free_lines]). *)

val set_hole_bound : t -> int -> unit

val recyclable : t -> bool
(** Queued on the allocator's recycled list. *)

val set_recyclable : t -> bool -> unit

val evacuate : t -> bool
(** Flagged for evacuation by a dynamic failure. *)

val set_evacuate : t -> bool -> unit

val candidate : t -> bool
(** Selected for evacuation by the current collection cycle (a flagged
    block, or a sparse one under requested defragmentation) — the
    sweep's O(1) test for keeping it off the recyclable list. *)

val set_candidate : t -> bool -> unit

val perfect_grant : t -> bool
(** Assembled from a perfect-page grant (overflow / perfect-block
    fallback): the block had no failed lines when built — though a later
    dynamic failure may legitimately puncture it.  The heap verifier
    uses this to check fussy placement. *)

val set_perfect_grant : t -> bool -> unit

(** {2 Construction and line queries} *)

val create :
  tbl:table ->
  index:int ->
  base:int ->
  line_size:int ->
  pages:int array ->
  page_bitmap:(int -> Holes_stdx.Bitset.t) ->
  t
(** Create a block over [pages] (backing page-stock ids), importing each
    page's 64 B failure bitmap into logical-line failed marks.  The
    import iterates only the {e set} bits of each page bitmap (word-level
    extraction), so an undamaged page costs one word compare. *)

val line_state : t -> int -> line_state
val is_failed_line : t -> int -> bool

val is_empty : t -> bool
(** Is the block free of any live data? *)

val is_perfect : t -> bool
(** Is the block perfect (no failed lines)? *)

val free_bytes : t -> int
(** Usable bytes remaining (free lines × line size). *)

val line_of_offset : t -> int -> int

val lines_of_object : t -> addr:int -> size:int -> int * int
(** Lines spanned by an object at [addr] of [size] bytes: inclusive line
    index range.  Allocates a tuple — diagnostic use; the hot paths
    below inline the computation. *)

(** {2 Line accounting (allocation / mark / sweep)} *)

val add_object_lines : t -> addr:int -> size:int -> unit
(** Account a newly placed object: bump per-line live counts, flip free
    lines to live.  Consuming free lines only shrinks runs, so the
    cached [hole_bound] stays valid.  Raises [Invalid_argument] if the
    object overlaps a failed line. *)

val remove_object_lines : t -> addr:int -> size:int -> unit
(** Account a reclaimed object: drop per-line live counts, freeing lines
    whose count reaches zero (runs can grow: the hole bound resets). *)

val clear_marks : t -> unit
(** Reset all line marks to free (preserving failed lines) ahead of a
    full-collection rebuild: the free map becomes the word-level
    complement of the failed map. *)

val sweep : t -> int
(** The per-block half of the fused sweep: one word-level pass over the
    packed free map recomputes the {e exact} hole bound (the longest free
    run) and drops the recyclable flag, returning the free-line count.
    Charge-neutral versus the conservative bound — failed hole searches
    never charge, the exact bound only lets them answer without
    scanning. *)

(** {2 Hole search} *)

val find_hole_enc : t -> from_line:int -> min_bytes:int -> int
(** Scan the line map for the next maximal run of free lines, at or
    after [from_line], spanning at least [min_bytes] — the hole search
    underneath every bump-cursor refill.  The result is
    [(start_line lsl 30) lor limit_line] (the hole is lines
    [start_line .. limit_line - 1]), or [-1] when no such hole remains:
    the hot path allocates nothing.

    The cost model charges [lines_examined = limit_line - max 0
    from_line], exactly what the per-byte scan charged.  A [-1] result
    examined every remaining line — but no caller charges for a failed
    search, which is what lets the [hole_bound] fast path skip provably
    hopeless scans without perturbing the cost model. *)

val find_hole : t -> from_line:int -> min_bytes:int -> (int * int * int) option
(** Decoded form of [find_hole_enc]:
    [Some (start_line, limit_line, lines_examined)] or [None]. *)

val count_holes : t -> int
(** Number of holes (maximal free runs) — the fragmentation statistic. *)

val fail_line : t -> line:int -> [ `Was_free | `Was_live | `Already_failed ]
(** Record a dynamic line failure discovered at runtime: logical line
    [line] becomes failed.  Returns the object-displacing information:
    whether the line previously held live data. *)
