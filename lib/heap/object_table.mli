(** The simulated object model.

    The reproduction does not run Java bytecode; workloads allocate
    {e simulated} objects through the VM.  Each object carries the fields
    the memory manager cares about: its heap address, size, pin state,
    reference edges into the live graph (driving trace costs and the
    remembered set), a mark epoch, and liveness (decided by the
    workload's death clock — see DESIGN.md).  Storage is
    structure-of-arrays with id recycling so multi-million-object runs
    stay cheap. *)

type t

val max_refs : int
(** Fan-out cap per object: keeps trace costs bounded and realistic, and
    makes the flat edge store a fixed stride. *)

val create : unit -> t

val alloc : t -> addr:int -> size:int -> pinned:bool -> los:bool -> int
(** Allocate a fresh object id (recycled where possible) at heap
    address [addr].  Raises [Invalid_argument] on a negative address. *)

val addr : t -> int -> int
(** Heap address of the object, or [-1] once its slot was released. *)

val size : t -> int -> int

val is_alive : t -> int -> bool
(** The liveness oracle the collector traces by. *)

val is_pinned : t -> int -> bool
val is_los : t -> int -> bool

val is_nursery : t -> int -> bool
(** Allocated since the last (full or nursery) collection? *)

val nrefs : t -> int -> int
(** Outgoing edge count — the O(1) read the mark loop charges by. *)

val refs : t -> int -> int list
(** Outgoing edges as a list, newest first (the [add_ref] prepend
    order).  Builds a fresh list: diagnostic/test use only. *)

val kill : t -> int -> unit
(** The mutator's death: the object becomes unreachable.  Space is
    reclaimed later, by a collection. *)

val release : t -> int -> unit
(** Collector bookkeeping: recycle a dead object's slot once its space
    has been reclaimed.  Raises [Invalid_argument] on a live object. *)

val relocate : t -> int -> new_addr:int -> unit
(** Object relocation (evacuation / nursery copy).  Raises
    [Invalid_argument] on a released slot or a negative address. *)

val los_object_at : t -> page:int -> int option
(** The LOS object occupying heap page [page] (address / 4 KB), dead or
    alive, if any — the constant-time victim lookup for dynamic
    failures. *)

val clear_nursery_flag : t -> int -> unit

val add_ref : t -> src:int -> dst:int -> unit
(** Record an outgoing edge (dropped silently past [max_refs]). *)

val set_mark : t -> int -> int -> unit
(** [set_mark t id epoch] stamps the object's mark epoch. *)

val marked : t -> int -> int -> bool
(** [marked t id epoch] — was the object marked in [epoch]? *)

val live_count : t -> int
val live_bytes : t -> int

val iter_slots : t -> (int -> unit) -> unit
(** Iterate, in ascending id order, over every slot that currently holds
    an object (alive or dead-awaiting-collection).  This single order is
    what keeps collection charge sequences bit-identical across runs.
    The walk visits the set bits of {!occupied} a word at a time, so it
    costs the occupied slots plus one load per 63 slot ids.  [f] may
    kill any object and release the slot it is given: each word is read
    once, before its slots are visited, so other slots [f] releases or
    allocates may or may not be visited. *)

val occupied : t -> Holes_stdx.Bitset.t
(** The occupancy bitmap: bit [id] is set iff slot [id] holds an object
    (its [addr] is [>= 0]).  Set by [alloc], cleared by [release].
    Read-only; [alloc] replaces it with a longer copy when the table
    grows, so read it afresh after allocating. *)

val alive : t -> Holes_stdx.Bitset.t
(** The liveness bitmap: bit [id] is set iff [is_alive t id].  Set by
    [alloc], cleared by [kill].  Read-only, and replaced on growth like
    {!occupied}. *)
