(** Mark-Sweep and Sticky Mark-Sweep baselines (Fig. 3).

    A segregated-fits free-list allocator in the style the paper
    discusses for native runtimes (Sec. 3.3.1): blocks are carved on
    demand into same-sized cells; allocation pops a free cell;
    collection marks live objects and sweeps cells back onto the free
    lists.  No copying, so no defragmentation.  The sticky variant
    collects the logical nursery from the remembered set.

    These collectors are evaluated only without failures (the paper's
    Fig. 3 motivates Immix as the baseline; Sec. 3.3.1 explains why
    free-lists tolerate failures poorly), so they refuse configurations
    with a non-zero failure rate. *)

open Holes_stdx
open Holes_heap

exception Out_of_memory

val size_classes : int array
(** Size classes (bytes).  Everything above the last class is a large
    object and goes to the LOS. *)

val class_of_size : int -> int option
(** Smallest size class that fits the request; [None] above the last
    class (the LOS boundary). *)

type ms_block = {
  index : int;
  base : int;
  klass : int;
  cell_size : int;
  ncells : int;
  cells : int array;  (** object id occupying each cell, or -1 *)
  pages : int array;
  mutable free_cells : int;
}

type t = {
  cfg : Config.t;
  cost : Cost.t;
  metrics : Metrics.t;
  stock : Page_stock.t;
  objects : Object_table.t;
  los : Los.t;
  blocks : (int, ms_block) Hashtbl.t;
  mutable next_block_index : int;
  free_lists : Intvec.t array;
      (** per class: a LIFO of free cells packed as
          [(block index lsl cell_bits) lor cell] — the cons list it
          replaces, stored reversed (push/pop at the vector's end), so
          pop order and therefore every object address is unchanged *)
  remset : Remset.t;
  nursery : Intvec.t;
  mutable want_full : bool;
  mutable gc_slice : int;
      (** work budget per recorded pause (0 = stop-the-world).  The
          free-list baseline has no mutator-interleaved marking: a
          budgeted collection still runs to completion within one call,
          but closes its pause every [gc_slice] units of mark and sweep
          work so every recorded pause is bounded — the honest
          comparison point for the Immix incremental mode's pause
          figures. *)
}

val create :
  cfg:Config.t ->
  cost:Cost.t ->
  metrics:Metrics.t ->
  stock:Page_stock.t ->
  objects:Object_table.t ->
  los:Los.t ->
  t
(** Raises [Invalid_argument] on a configuration with a non-zero failure
    rate: the free-list baselines run only without failures. *)

val alloc : t -> size:int -> int * int * int
(** Allocate from the class free list, carving a fresh block on a miss
    and falling back to collection, then [Out_of_memory].  Returns
    [(block index, cell, address)]; the caller registers the object id
    with {!register_cell} once known. *)

val register_cell : t -> block:int -> cell:int -> id:int -> unit
(** Record the object occupying a cell (after the object id is known). *)

val register : t -> id:int -> unit
(** Track a freshly allocated object in the logical nursery. *)

val write_barrier : t -> src:int -> unit
(** The generational write barrier for the sticky variant. *)

val collect : t -> full:bool -> unit
(** Run a full mark-sweep collection, or a sticky nursery collection.
    With [gc_slice > 0] the full collection closes its recorded pause
    every [gc_slice] units of work (a slot marked is one unit, a block
    swept 128) — identical end state and charges, only the pause
    records differ. *)

val set_gc_slice : t -> int -> unit
(** Set the incremental work budget (0 = stop-the-world).  The baseline
    has no cycle state to finish: the next collection simply uses the
    new bracketing. *)
