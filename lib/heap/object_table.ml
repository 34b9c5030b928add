(** The simulated object model.

    The reproduction does not run Java bytecode; workloads allocate
    *simulated* objects through the VM.  Each object carries the fields
    the memory manager cares about: its heap address, size, pin state,
    reference edges into the live graph (driving trace costs and the
    remembered set), a mark epoch, and liveness (decided by the
    workload's death clock — see DESIGN.md).  Storage is
    structure-of-arrays with id recycling so multi-million-object runs
    stay cheap. *)

open Holes_stdx

type t = {
  mutable addr : int array;
  mutable size : int array;
  mutable flags : int array;
  mutable mark : int array;  (** epoch of last mark *)
  mutable ref_store : int array;
      (** outgoing edges (object ids), flat with stride [max_refs] per
          object — no list cells, and the per-object edge count the
          mark loop charges by is an O(1) read of [nref] *)
  mutable nref : int array;  (** per-object edge count (<= [max_refs]) *)
  mutable occupied : Bitset.t;
      (** bit [id] set iff slot [id] holds an object, alive or dead
          awaiting collection ([addr >= 0]) — what [iter_slots] and the
          collector's snapshot walk, a word at a time *)
  mutable alive : Bitset.t;  (** bit [id] set iff [is_alive id] *)
  mutable cap : int;
  mutable next_fresh : int;
  free_ids : Intvec.t;
  mutable live_count : int;
  mutable live_bytes : int;
  los_pages : (int, int) Hashtbl.t;
      (** heap page number (addr / 4 KB) -> LOS object id occupying it;
          LOS objects are page-grained and page-aligned, so the map is a
          bijection over occupied pages.  Replaces the O(live-set)
          [iter_slots] victim scans on the dynamic-failure and
          relocation paths. *)
}

let flag_alive = 1
let flag_pinned = 2
let flag_nursery = 4  (* allocated since the last (full or nursery) collection *)
let flag_los = 8

(* fan-out cap: keeps trace costs bounded and realistic, and makes the
   flat edge store a fixed stride *)
let max_refs = 8

let create () : t =
  let cap = 1024 in
  {
    addr = Array.make cap (-1);
    size = Array.make cap 0;
    flags = Array.make cap 0;
    mark = Array.make cap (-1);
    ref_store = Array.make (cap * max_refs) 0;
    nref = Array.make cap 0;
    occupied = Bitset.create cap;
    alive = Bitset.create cap;
    cap;
    next_fresh = 0;
    free_ids = Intvec.create ();
    live_count = 0;
    live_bytes = 0;
    los_pages = Hashtbl.create 64;
  }

let grow (t : t) : unit =
  let cap = t.cap * 2 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.addr <- extend t.addr (-1);
  t.size <- extend t.size 0;
  t.flags <- extend t.flags 0;
  t.mark <- extend t.mark (-1);
  (let b = Array.make (cap * max_refs) 0 in
   Array.blit t.ref_store 0 b 0 (t.cap * max_refs);
   t.ref_store <- b);
  t.nref <- extend t.nref 0;
  t.occupied <- Bitset.extend t.occupied cap;
  t.alive <- Bitset.extend t.alive cap;
  t.cap <- cap

let page_bytes = Holes_pcm.Geometry.page_bytes

(* Pages spanned by a page-aligned LOS allocation (page-granular sizing,
   matching Los.pages_needed). *)
let los_page_range ~(addr : int) ~(size : int) : int * int =
  let first = addr / page_bytes in
  let npages = (size + page_bytes - 1) / page_bytes in
  (first, first + max 1 npages - 1)

let index_los_pages (t : t) ~(addr : int) ~(size : int) ~(id : int) : unit =
  let lo, hi = los_page_range ~addr ~size in
  for p = lo to hi do
    Hashtbl.replace t.los_pages p id
  done

let deindex_los_pages (t : t) ~(addr : int) ~(size : int) : unit =
  let lo, hi = los_page_range ~addr ~size in
  for p = lo to hi do
    Hashtbl.remove t.los_pages p
  done

(** Allocate a fresh object id (recycled where possible) at heap
    address [addr >= 0]. *)
let alloc (t : t) ~(addr : int) ~(size : int) ~(pinned : bool) ~(los : bool) : int =
  if addr < 0 then invalid_arg "Object_table.alloc: negative address";
  let id =
    let id = Intvec.pop_or t.free_ids ~default:(-1) in
    if id >= 0 then id
    else begin
      if t.next_fresh = t.cap then grow t;
      let id = t.next_fresh in
      t.next_fresh <- t.next_fresh + 1;
      id
    end
  in
  t.addr.(id) <- addr;
  t.size.(id) <- size;
  t.flags.(id) <-
    flag_alive lor flag_nursery lor (if pinned then flag_pinned else 0)
    lor (if los then flag_los else 0);
  t.mark.(id) <- -1;
  t.nref.(id) <- 0;
  Bitset.unsafe_set t.occupied id;
  Bitset.unsafe_set t.alive id;
  t.live_count <- t.live_count + 1;
  t.live_bytes <- t.live_bytes + size;
  if los then index_los_pages t ~addr ~size ~id;
  id

let addr (t : t) (id : int) : int = t.addr.(id)
let size (t : t) (id : int) : int = t.size.(id)
let is_alive (t : t) (id : int) : bool = t.flags.(id) land flag_alive <> 0
let is_pinned (t : t) (id : int) : bool = t.flags.(id) land flag_pinned <> 0
let is_nursery (t : t) (id : int) : bool = t.flags.(id) land flag_nursery <> 0
let is_los (t : t) (id : int) : bool = t.flags.(id) land flag_los <> 0

(** Outgoing edge count — the O(1) read the mark loop charges by. *)
let[@inline] nrefs (t : t) (id : int) : int = Array.unsafe_get t.nref id

(** Outgoing edges as a list, newest first (the [add_ref] prepend
    order).  Builds a fresh list: diagnostic/test use only. *)
let refs (t : t) (id : int) : int list =
  let n = t.nref.(id) in
  let base = id * max_refs in
  let rec go i acc = if i >= n then acc else go (i + 1) (t.ref_store.(base + i) :: acc) in
  go 0 []

(** The mutator's death: the object becomes unreachable.  Space is
    reclaimed later, by a collection. *)
let kill (t : t) (id : int) : unit =
  if is_alive t id then begin
    t.flags.(id) <- t.flags.(id) land lnot flag_alive;
    Bitset.unsafe_clear t.alive id;
    t.nref.(id) <- 0;
    t.live_count <- t.live_count - 1;
    t.live_bytes <- t.live_bytes - t.size.(id)
  end

(** Collector bookkeeping: recycle a dead object's slot once its space
    has been reclaimed. *)
let release (t : t) (id : int) : unit =
  if is_alive t id then invalid_arg "Object_table.release: object still alive";
  if t.addr.(id) >= 0 then begin
    if is_los t id then deindex_los_pages t ~addr:t.addr.(id) ~size:t.size.(id);
    t.addr.(id) <- -1;
    Bitset.unsafe_clear t.occupied id;
    Intvec.push t.free_ids id
  end

(** Object relocation (evacuation / nursery copy) of an occupied slot to
    heap address [new_addr >= 0]. *)
let relocate (t : t) (id : int) ~(new_addr : int) : unit =
  if new_addr < 0 || t.addr.(id) < 0 then
    invalid_arg "Object_table.relocate: released slot or negative address";
  if is_los t id then begin
    deindex_los_pages t ~addr:t.addr.(id) ~size:t.size.(id);
    index_los_pages t ~addr:new_addr ~size:t.size.(id) ~id
  end;
  t.addr.(id) <- new_addr

(** The LOS object occupying heap page [page] (address / 4 KB), dead or
    alive, if any — the constant-time victim lookup for dynamic
    failures. *)
let los_object_at (t : t) ~(page : int) : int option = Hashtbl.find_opt t.los_pages page

let clear_nursery_flag (t : t) (id : int) : unit =
  t.flags.(id) <- t.flags.(id) land lnot flag_nursery

let add_ref (t : t) ~(src : int) ~(dst : int) : unit =
  let n = t.nref.(src) in
  if n < max_refs then begin
    t.ref_store.((src * max_refs) + n) <- dst;
    t.nref.(src) <- n + 1
  end

let set_mark (t : t) (id : int) (epoch : int) : unit = t.mark.(id) <- epoch
let marked (t : t) (id : int) (epoch : int) : bool = t.mark.(id) = epoch

let live_count (t : t) : int = t.live_count
let live_bytes (t : t) : int = t.live_bytes

(** Iterate over every slot that currently holds an object (alive or
    dead-awaiting-collection), ascending: the set bits of [occupied],
    a word at a time. *)
let iter_slots (t : t) (f : int -> unit) : unit = Bitset.iter_set t.occupied f

let occupied (t : t) : Bitset.t = t.occupied
let alive (t : t) : Bitset.t = t.alive
