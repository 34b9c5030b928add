(** Immix blocks: 32 KB regions divided into logical lines
    (paper Sec. 4.1, Fig. 2).

    Line states follow failure-aware Immix (Sec. 4.2): lines are free,
    live, or — the added fourth category — *failed*.  A failed 64 B PCM
    line widens to its enclosing logical line (a *false failure* when the
    logical line is larger, Sec. 6.2).

    The line map is stored as two packed bitmaps ([free] and [failed];
    live = neither) instead of one byte per line, so the hot operations
    — [find_hole], [clear_marks], [count_holes], and the false-failure
    widening in [create] — are word operations over 63-bit words.  The
    cost model is representation-independent: [find_hole] reports the
    exact [lines_examined] count the byte-at-a-time scan charged, because
    that scan touched every line from the scan start to the end of the
    returned run (or the end of the block) exactly once, which is a
    subtraction here (see DESIGN.md §9). *)

open Holes_stdx

type line_state = Free | Live | Failed

(** The struct-of-arrays block-metadata table (one per heap).

    The mutable per-block scalars — free/failed line counts, the hole
    bound, and the recyclable/evacuate/candidate/perfect-grant flags — live in
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
      (* bit 0 recyclable, bit 1 evacuate, bit 2 perfect_grant, bit 3 candidate *)
}

let table_create () : table =
  { t_free_lines = [||]; t_failed_lines = [||]; t_hole_bound = [||]; t_flags = [||] }

let table_ensure (tbl : table) (n : int) : unit =
  if n > Array.length tbl.t_free_lines then begin
    let cap = max 64 (max n (2 * Array.length tbl.t_free_lines)) in
    let grow a =
      let g = Array.make cap 0 in
      Array.blit a 0 g 0 (Array.length a);
      g
    in
    tbl.t_free_lines <- grow tbl.t_free_lines;
    tbl.t_failed_lines <- grow tbl.t_failed_lines;
    tbl.t_hole_bound <- grow tbl.t_hole_bound;
    tbl.t_flags <- grow tbl.t_flags
  end

type t = {
  index : int;
  base : int;  (** first byte address of the block *)
  pages : int array;  (** page-stock ids backing the block, in order *)
  line_size : int;
  line_shift : int;  (** log2 [line_size]: line sizes are powers of two,
                         so offset->line is a shift, not a division *)
  nlines : int;
  free : Bitset.t;  (** lines holding no live data and not failed *)
  failed : Bitset.t;  (** lines widened from failed PCM lines *)
  live : int array;  (** per-line count of live objects touching the line *)
  objs : Intvec.t;  (** ids of objects allocated in this block (may be stale) *)
  tbl : table;  (** the heap's struct-of-arrays metadata, indexed by [index] *)
}

(* ------------------ struct-of-arrays field accessors ------------------ *)

(* [table_ensure] ran for this index in [create], so the unsafe accesses
   are in bounds by construction *)

let[@inline] free_lines (b : t) : int = Array.unsafe_get b.tbl.t_free_lines b.index
let[@inline] set_free_lines (b : t) (v : int) : unit =
  Array.unsafe_set b.tbl.t_free_lines b.index v

let[@inline] failed_lines (b : t) : int = Array.unsafe_get b.tbl.t_failed_lines b.index
let[@inline] set_failed_lines (b : t) (v : int) : unit =
  Array.unsafe_set b.tbl.t_failed_lines b.index v

(** Upper bound on the longest free run, in lines: a failed whole-block
    hole search for [n] lines proves every run is shorter, so later
    searches for >= [n] lines can answer without rescanning.  The fused
    sweep recomputes it exactly; between sweeps it decays conservatively
    (freeing a line resets it to [free_lines]). *)
let[@inline] hole_bound (b : t) : int = Array.unsafe_get b.tbl.t_hole_bound b.index
let[@inline] set_hole_bound (b : t) (v : int) : unit =
  Array.unsafe_set b.tbl.t_hole_bound b.index v

let[@inline] flag_get (b : t) (bit : int) : bool =
  Array.unsafe_get b.tbl.t_flags b.index land bit <> 0

let[@inline] flag_assign (b : t) (bit : int) (v : bool) : unit =
  let f = Array.unsafe_get b.tbl.t_flags b.index in
  Array.unsafe_set b.tbl.t_flags b.index (if v then f lor bit else f land lnot bit)

(** Queued on the allocator's recycled list. *)
let[@inline] recyclable (b : t) : bool = flag_get b 1
let[@inline] set_recyclable (b : t) (v : bool) : unit = flag_assign b 1 v

(** Flagged for evacuation by a dynamic failure. *)
let[@inline] evacuate (b : t) : bool = flag_get b 2
let[@inline] set_evacuate (b : t) (v : bool) : unit = flag_assign b 2 v

(** Selected for evacuation by the current collection cycle. *)
let[@inline] candidate (b : t) : bool = flag_get b 8
let[@inline] set_candidate (b : t) (v : bool) : unit = flag_assign b 8 v

(** Assembled from a perfect-page grant (overflow / perfect-block
    fallback): the block had no failed lines when built — though a later
    dynamic failure may legitimately puncture it.  The heap verifier
    uses this to check fussy placement. *)
let[@inline] perfect_grant (b : t) : bool = flag_get b 4
let[@inline] set_perfect_grant (b : t) (v : bool) : unit = flag_assign b 4 v

let pcm_line = Holes_pcm.Geometry.line_bytes
let pcm_lines_per_page = Holes_pcm.Geometry.lines_per_page

(** Create a block over [pages] (backing page-stock ids), importing each
    page's 64 B failure bitmap into logical-line failed marks.  The
    import iterates only the *set* bits of each page bitmap (word-level
    extraction), so an undamaged page costs one word compare. *)
let create ~(tbl : table) ~(index : int) ~(base : int) ~(line_size : int)
    ~(pages : int array) ~(page_bitmap : int -> Bitset.t) : t =
  if not (Units.valid_line_size line_size) then invalid_arg "Block.create: bad line size";
  if index < 0 then invalid_arg "Block.create: negative index";
  table_ensure tbl (index + 1);
  if Array.length pages <> Units.pages_per_block then
    invalid_arg "Block.create: wrong page count";
  let nlines = Units.lines_per_block ~line_size in
  let free = Bitset.create nlines in
  Bitset.fill free true;
  let failed = Bitset.create nlines in
  (* false-failure widening: any failed 64 B PCM line inside a logical
     line fails the whole logical line *)
  let pcm_per_logical = line_size / pcm_line in
  Array.iteri
    (fun pg id ->
      Bitset.iter_set (page_bitmap id) (fun off ->
          let pcm_idx = (pg * pcm_lines_per_page) + off in
          let l = pcm_idx / pcm_per_logical in
          if not (Bitset.get failed l) then begin
            Bitset.set failed l;
            Bitset.clear free l
          end))
    pages;
  let nfailed = Bitset.count failed in
  let line_shift =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
    log2 line_size
  in
  tbl.t_free_lines.(index) <- nlines - nfailed;
  tbl.t_failed_lines.(index) <- nfailed;
  tbl.t_hole_bound.(index) <- nlines - nfailed;
  tbl.t_flags.(index) <- 0;
  {
    index;
    base;
    pages;
    line_size;
    line_shift;
    nlines;
    free;
    failed;
    live = Array.make nlines 0;
    objs = Intvec.create ~capacity:64 ();
    tbl;
  }

let line_state (t : t) (l : int) : line_state =
  if Bitset.get t.failed l then Failed else if Bitset.get t.free l then Free else Live

let is_failed_line (t : t) (l : int) : bool = Bitset.get t.failed l

(** Is the block free of any live data? *)
let is_empty (t : t) : bool = free_lines t = t.nlines - failed_lines t

(** Is the block perfect (no failed lines)? *)
let is_perfect (t : t) : bool = failed_lines t = 0

(** Usable bytes remaining (free lines × line size). *)
let free_bytes (t : t) : int = free_lines t * t.line_size

let line_of_offset (t : t) (offset : int) : int = offset lsr t.line_shift

(** Lines spanned by an object at [addr] (block-relative) of [size]
    bytes: inclusive line index range. *)
let lines_of_object (t : t) ~(addr : int) ~(size : int) : int * int =
  let off = addr - t.base in
  (off lsr t.line_shift, (off + size - 1) lsr t.line_shift)

(** Account a newly placed object: bump per-line live counts, flip free
    lines to live.  Consuming free lines only shrinks runs, so the
    cached [hole_bound] stays valid. *)
let add_object_lines (t : t) ~(addr : int) ~(size : int) : unit =
  (* [lines_of_object] inlined by hand: the tuple return would allocate
     on every allocation and every mark *)
  let off = addr - t.base in
  let lo = off lsr t.line_shift and hi = (off + size - 1) lsr t.line_shift in
  for l = lo to hi do
    if Bitset.get t.failed l then
      invalid_arg "Block.add_object_lines: allocation overlaps a failed line";
    if t.live.(l) = 0 then begin
      Bitset.clear t.free l;
      set_free_lines t (free_lines t - 1)
    end;
    t.live.(l) <- t.live.(l) + 1
  done

(** Account a reclaimed object: drop per-line live counts, freeing lines
    whose count reaches zero (runs can grow: the hole bound resets). *)
let remove_object_lines (t : t) ~(addr : int) ~(size : int) : unit =
  let off = addr - t.base in
  let lo = off lsr t.line_shift and hi = (off + size - 1) lsr t.line_shift in
  for l = lo to hi do
    if t.live.(l) <= 0 then invalid_arg "Block.remove_object_lines: line not live";
    t.live.(l) <- t.live.(l) - 1;
    if t.live.(l) = 0 then begin
      Bitset.set t.free l;
      set_free_lines t (free_lines t + 1)
    end
  done;
  set_hole_bound t (free_lines t)

(** Reset all line marks to free (preserving failed lines) ahead of a
    full-collection rebuild: the free map becomes the word-level
    complement of the failed map. *)
let clear_marks (t : t) : unit =
  Bitset.blit_complement ~src:t.failed ~dst:t.free;
  Array.fill t.live 0 t.nlines 0;
  set_free_lines t (t.nlines - failed_lines t);
  set_hole_bound t (free_lines t);
  Intvec.clear t.objs

(** The per-block half of the fused sweep: one word-level pass over the
    packed free map recomputes the *exact* hole bound (the longest free
    run) and drops the recyclable flag, returning the free-line count.
    Charge-neutral versus the conservative bound — failed hole searches
    never charge, the exact bound only lets them answer without
    scanning — and [Verify] checks [longest_free_run <= hole_bound], so
    exactness is the strongest bound the invariant admits. *)
let sweep (t : t) : int =
  set_hole_bound t (Bitset.longest_run t.free);
  set_recyclable t false;
  free_lines t

(** [find_hole_enc t ~from_line ~min_bytes] scans the line map for the
    next maximal run of free lines, at or after [from_line], spanning at
    least [min_bytes] — the hole search underneath every bump-cursor
    refill.  The result is [(start_line lsl 30) lor limit_line] (the
    hole is lines [start_line .. limit_line - 1]), or -1 when no such
    hole remains: the hot path allocates nothing.

    The cost model charges [lines_examined = limit_line - max 0
    from_line], exactly what the per-byte scan charged: every line from
    the scan start through the end of the returned run, counted once.
    Callers compute it from the fields they already decode (see
    [find_hole]).  A -1 result examined every remaining line — but no
    caller charges for a failed search, which is what lets the
    [hole_bound] fast path below skip provably hopeless scans without
    perturbing the cost model. *)
let find_hole_enc (t : t) ~(from_line : int) ~(min_bytes : int) : int =
  let needed_lines = (min_bytes + t.line_size - 1) lsr t.line_shift in
  let start = if from_line > 0 then from_line else 0 in
  if start <= 0 && needed_lines > hole_bound t then -1
  else begin
    let enc = Bitset.find_set_run_enc t.free ~from:start ~min_len:needed_lines in
    (* a failed whole-block search proves no run reaches [needed_lines] *)
    if enc < 0 && start <= 0 then set_hole_bound t (min (hole_bound t) (needed_lines - 1));
    enc
  end

(** Decoded form of [find_hole_enc]:
    [Some (start_line, limit_line, lines_examined)] or [None]. *)
let find_hole (t : t) ~(from_line : int) ~(min_bytes : int) : (int * int * int) option =
  let enc = find_hole_enc t ~from_line ~min_bytes in
  if enc < 0 then None
  else
    let s = enc lsr 30 and e = enc land 0x3FFFFFFF in
    Some (s, e, e - max 0 from_line)

(** Number of holes (maximal free runs) — the fragmentation statistic. *)
let count_holes (t : t) : int = Bitset.count_runs t.free

(** Record a dynamic line failure discovered at runtime: the logical line
    containing block-relative [offset] becomes failed.  Returns the
    object-displacing information: whether the line previously held live
    data. *)
let fail_line (t : t) ~(line : int) : [ `Was_free | `Was_live | `Already_failed ] =
  if Bitset.get t.failed line then `Already_failed
  else if Bitset.get t.free line then begin
    Bitset.clear t.free line;
    Bitset.set t.failed line;
    set_failed_lines t (failed_lines t + 1);
    set_free_lines t (free_lines t - 1);
    set_hole_bound t (min (hole_bound t) (free_lines t));
    `Was_free
  end
  else begin
    Bitset.set t.failed line;
    set_failed_lines t (failed_lines t + 1);
    t.live.(line) <- 0;
    `Was_live
  end
