(** The three physical page pools (paper Sec. 3.2.1): DRAM, perfect PCM
    and imperfect PCM.  Physical ids below [dram_pages] are DRAM frames;
    id [dram_pages + p] is PCM device page [p].  The pools own the OS
    failure table, one failure bitmap per PCM page, and a page's pool
    follows from it: perfect while the table has no failed line for the
    page, imperfect after the first.  Imperfect pages are handed out
    most-usable-first so early allocations see few holes. *)

let lines_per_page = Holes_pcm.Geometry.lines_per_page

type t = {
  dram_pages : int;  (** physical ids below this are DRAM *)
  table : Failure_table.t;  (** indexed by PCM page: physical id - [dram_pages] *)
  held : bool array;  (** physical id -> handed out *)
  free_dram : int array;
      (** the free DRAM frames as a stack, granted from the top
          ([free_dram.(free_dram_n - 1)]): a frame is returned on top *)
  mutable free_dram_n : int;
  mutable free_perfect : int list;
      (** exactly the PCM pages that are free and have no failed line *)
  mutable free_imperfect : int list;  (** kept sorted by usable lines, desc *)
  mutable wear_rank : (int -> int) option;
      (** wear-aware grant ordering (Config.wear_aware_pools): maps a
          physical page id to its accumulated wear; when installed,
          [alloc_perfect] hands out the least-worn free page instead of
          the free-list head.  Installed by the device backend at boot —
          the OS has no wear counters of its own *)
}

let create ~(dram_pages : int) ~(pcm_pages : int) : t =
  {
    dram_pages;
    table = Failure_table.create ~pcm_pages;
    held = Array.make (dram_pages + pcm_pages) false;
    free_dram = Array.init dram_pages (fun i -> dram_pages - 1 - i);
    free_dram_n = dram_pages;
    free_perfect = List.init pcm_pages (fun i -> dram_pages + i);
    free_imperfect = [];
    wear_rank = None;
  }

(** Install (or clear) the wear-ordering hook consulted by
    [alloc_perfect].  Deterministic: ties keep free-list order. *)
let set_wear_rank (t : t) (rank : (int -> int) option) : unit = t.wear_rank <- rank

let dram_pages (t : t) : int = t.dram_pages

let table (t : t) : Failure_table.t = t.table

(** The failure bitmap of PCM page [id] (the table's own, not a copy). *)
let failures (t : t) (id : int) : Holes_stdx.Bitset.t =
  Failure_table.get t.table ~page:(id - t.dram_pages)

let usable_lines (t : t) (id : int) : int =
  lines_per_page - Failure_table.failed_lines t.table ~page:(id - t.dram_pages)

let free_dram_count (t : t) : int = t.free_dram_n
let free_perfect_count (t : t) : int = List.length t.free_perfect
let free_imperfect_count (t : t) : int = List.length t.free_imperfect

(** Is page [id] currently handed out?  (Verifier support: a tier
    resident's PCM home must stay reserved while promoted.) *)
let is_allocated (t : t) (id : int) : bool = t.held.(id)

let take_from lst =
  match lst with [] -> None | x :: rest -> Some (x, rest)

(** Allocate a DRAM page: the most recently freed one, or the lowest
    id never granted; -1 when none remain.  Allocates nothing. *)
let alloc_dram (t : t) : int =
  if t.free_dram_n = 0 then -1
  else begin
    t.free_dram_n <- t.free_dram_n - 1;
    let id = t.free_dram.(t.free_dram_n) in
    t.held.(id) <- true;
    id
  end

(** Allocate a perfect PCM page, if any remain.  With a wear rank
    installed the least-worn free page is granted (first-seen wins
    ties), spreading fresh traffic across the module; otherwise the
    free-list head. *)
let alloc_perfect (t : t) : int option =
  match (t.wear_rank, t.free_perfect) with
  | _, [] -> None
  | None, id :: rest ->
      t.free_perfect <- rest;
      t.held.(id) <- true;
      Some id
  | Some rank, first :: rest ->
      let best, _ =
        List.fold_left
          (fun (b, br) id ->
            let r = rank id in
            if r < br then (id, r) else (b, br))
          (first, rank first) rest
      in
      t.free_perfect <- List.filter (fun x -> x <> best) t.free_perfect;
      t.held.(best) <- true;
      Some best

(** Allocate an imperfect PCM page (most usable lines first). *)
let alloc_imperfect (t : t) : int option =
  match take_from t.free_imperfect with
  | None -> None
  | Some (id, rest) ->
      t.free_imperfect <- rest;
      t.held.(id) <- true;
      Some id

(** Allocate any PCM page, preferring imperfect (conserving the scarce
    perfect pool, as a failure-aware process should). *)
let alloc_pcm_any (t : t) : int option =
  match alloc_imperfect t with Some id -> Some id | None -> alloc_perfect t

let insert_imperfect_sorted (t : t) (id : int) : unit =
  let u = usable_lines t id in
  let rec ins = function
    | [] -> [ id ]
    | x :: rest as l -> if usable_lines t x < u then id :: l else x :: ins rest
  in
  t.free_imperfect <- ins t.free_imperfect

(** Return a page to the appropriate free pool. *)
let free (t : t) (id : int) : unit =
  if not t.held.(id) then invalid_arg "Pools.free: page not allocated";
  t.held.(id) <- false;
  if id < t.dram_pages then begin
    t.free_dram.(t.free_dram_n) <- id;
    t.free_dram_n <- t.free_dram_n + 1
  end
  else if usable_lines t id = lines_per_page then t.free_perfect <- id :: t.free_perfect
  else insert_imperfect_sorted t id

(** Rebuild the free pools from the failure table — used after a bulk
    failure import (the OS boot scan of a worn device marks the table
    directly), where migrating pages one failure at a time would cost
    O(n²) in list updates.  Allocated pages are untouched; the imperfect
    list is re-sorted most-usable-first in one pass. *)
let renormalize (t : t) : unit =
  let perfect = ref [] and imperfect = ref [] in
  t.free_dram_n <- 0;
  for id = Array.length t.held - 1 downto 0 do
    if not t.held.(id) then
      if id < t.dram_pages then begin
        (* descending, so the lowest free frame is granted first *)
        t.free_dram.(t.free_dram_n) <- id;
        t.free_dram_n <- t.free_dram_n + 1
      end
      else if usable_lines t id = lines_per_page then perfect := id :: !perfect
      else imperfect := id :: !imperfect
  done;
  t.free_perfect <- !perfect;
  t.free_imperfect <-
    List.stable_sort (fun a b -> compare (usable_lines t b) (usable_lines t a)) !imperfect

(** Record in the failure table that line [line] of PCM page [page]
    failed; a free perfect page migrates to the free imperfect pool.
    Returns [true] if the line was not already marked. *)
let mark_line_failed (t : t) ~(page : int) ~(line : int) : bool =
  if page < t.dram_pages then invalid_arg "Pools.mark_line_failed: DRAM pages do not fail";
  let p = page - t.dram_pages in
  if Failure_table.is_failed t.table ~page:p ~line then false
  else begin
    let was_free_perfect = (not t.held.(page)) && Failure_table.failed_lines t.table ~page:p = 0 in
    Failure_table.mark_failed t.table ~page:p ~line;
    if was_free_perfect then begin
      t.free_perfect <- List.filter (fun x -> x <> page) t.free_perfect;
      insert_imperfect_sorted t page
    end;
    true
  end
