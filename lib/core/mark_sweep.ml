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

exception Out_of_memory = Immix.Out_of_memory

(** Size classes (bytes).  Everything above the last class is a large
    object and goes to the LOS. *)
let size_classes =
  [| 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048; 3072; 4096; 6144; 8192 |]

let class_of_size (size : int) : int option =
  let n = Array.length size_classes in
  let rec go i = if i >= n then None else if size <= size_classes.(i) then Some i else go (i + 1) in
  go 0

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

let block_bytes = Units.block_bytes

(* cell indices fit [cell_bits]: the smallest class carves
   [block_bytes / 16] cells per block *)
let cell_bits = 16
let cell_mask = (1 lsl cell_bits) - 1

let () = assert (block_bytes / size_classes.(0) <= cell_mask)

let create ~(cfg : Config.t) ~(cost : Cost.t) ~(metrics : Metrics.t) ~(stock : Page_stock.t)
    ~(objects : Object_table.t) ~(los : Los.t) : t =
  if cfg.Config.failure_rate > 0.0 then
    invalid_arg "Mark_sweep.create: the free-list baselines run only without failures";
  {
    cfg;
    cost;
    metrics;
    stock;
    objects;
    los;
    blocks = Hashtbl.create 256;
    next_block_index = 0;
    free_lists = Array.init (Array.length size_classes) (fun _ -> Intvec.create ());
    remset = Remset.create ();
    nursery = Intvec.create ();
    want_full = false;
    gc_slice = cfg.Config.gc_slice;
  }

(* Carve a fresh block for size class [k]; false when the stock is dry. *)
let carve_block (t : t) (k : int) : bool =
  let pages = Array.make Units.pages_per_block (-2) in
  let rec take i =
    if i = Units.pages_per_block then true
    else
      match Page_stock.take_relaxed t.stock with
      | Some p ->
          pages.(i) <- p;
          take (i + 1)
      | None ->
          for j = 0 to i - 1 do
            Page_stock.return_page t.stock pages.(j)
          done;
          false
  in
  if not (take 0) then false
  else begin
    let index = t.next_block_index in
    t.next_block_index <- t.next_block_index + 1;
    let cell_size = size_classes.(k) in
    let ncells = block_bytes / cell_size in
    let b =
      {
        index;
        base = index * block_bytes;
        klass = k;
        cell_size;
        ncells;
        cells = Array.make ncells (-1);
        pages;
        free_cells = ncells;
      }
    in
    Hashtbl.replace t.blocks index b;
    (* descending cells so cell 0 sits at the LIFO head, exactly as the
       cons-prepend loop left it *)
    for c = ncells - 1 downto 0 do
      Intvec.push t.free_lists.(k) ((index lsl cell_bits) lor c)
    done;
    Cost.charge t.cost Cost.default.Cost.block_assemble;
    t.metrics.Metrics.blocks_assembled <- t.metrics.Metrics.blocks_assembled + 1;
    true
  end

let dissolve_block (t : t) (b : ms_block) : unit =
  Array.iter (fun id -> Page_stock.return_page t.stock id) b.pages;
  Hashtbl.remove t.blocks b.index;
  (* purge its cells from the class free list *)
  Intvec.filter_in_place t.free_lists.(b.klass) (fun v -> v lsr cell_bits <> b.index)

let alloc_nogc (t : t) ~(size : int) : (int * int * int) option =
  match class_of_size size with
  | None -> invalid_arg "Mark_sweep.alloc: large objects belong to the LOS"
  | Some k -> (
      let w = Cost.default in
      let place v =
        let bi = v lsr cell_bits and c = v land cell_mask in
        let b = Hashtbl.find t.blocks bi in
        b.free_cells <- b.free_cells - 1;
        Cost.charge t.cost
          (w.Cost.alloc_fast +. w.Cost.free_list_alloc
          +. ((w.Cost.alloc_byte +. w.Cost.ms_byte) *. float_of_int size));
        (bi, c, b.base + (c * b.cell_size))
      in
      let v = Intvec.pop_or t.free_lists.(k) ~default:(-1) in
      if v >= 0 then Some (place v)
      else if carve_block t k then
        Some (place (Intvec.pop_or t.free_lists.(k) ~default:(-1)))
      else None)

(* Record the object occupying a cell (after the object id is known). *)
let register_cell (t : t) ~(block : int) ~(cell : int) ~(id : int) : unit =
  (Hashtbl.find t.blocks block).cells.(cell) <- id

let addr_to_cell (t : t) (addr : int) : ms_block * int =
  let b = Hashtbl.find t.blocks (addr / block_bytes) in
  (b, (addr - b.base) / b.cell_size)

(** Full mark-sweep collection, one recorded pause — or, under a
    [gc_slice] budget, a pause closed and the next opened every
    [gc_slice] units of work (a slot marked is one unit, a block swept
    128: the ratio of per-block sweep cost to per-object mark cost).
    Nothing runs in the gaps, so the end state and the charges are the
    same either way; only the pause records differ. *)
let full_gc (t : t) : unit =
  let w = Cost.default in
  let budget = t.gc_slice in
  let record pause =
    if budget > 0 then t.metrics.Metrics.gc_increments <- t.metrics.Metrics.gc_increments + 1;
    Metrics.record_pause t.metrics pause
  in
  let work = ref 0 in
  let did units =
    if budget > 0 then begin
      work := !work + units;
      if !work >= budget then begin
        record (Cost.end_gc t.cost);
        Cost.begin_gc t.cost;
        work := 0
      end
    end
  in
  Cost.begin_gc t.cost;
  Cost.charge t.cost w.Cost.gc_fixed;
  (* mark *)
  Object_table.iter_slots t.objects (fun id ->
      if Object_table.is_alive t.objects id then begin
        let nrefs = Object_table.nrefs t.objects id in
        Cost.charge t.cost (w.Cost.mark_obj +. (w.Cost.mark_edge *. float_of_int nrefs));
        Object_table.clear_nursery_flag t.objects id
      end;
      did 1);
  (* sweep: rebuild free lists; release dead objects *)
  Array.iter Intvec.clear t.free_lists;
  let empties = ref [] in
  Hashtbl.iter
    (fun _ b ->
      Cost.charge t.cost (w.Cost.sweep_cell *. float_of_int b.ncells);
      b.free_cells <- 0;
      for c = b.ncells - 1 downto 0 do
        let id = b.cells.(c) in
        let live = id >= 0 && Object_table.is_alive t.objects id in
        if not live then begin
          if id >= 0 then begin
            if Object_table.is_los t.objects id then
              Los.free t.los ~addr:(Object_table.addr t.objects id);
            Object_table.release t.objects id;
            b.cells.(c) <- -1
          end;
          b.free_cells <- b.free_cells + 1;
          Intvec.push t.free_lists.(b.klass) ((b.index lsl cell_bits) lor c)
        end
      done;
      if b.free_cells = b.ncells then empties := b :: !empties;
      did 128)
    t.blocks;
  (* release dead LOS-only objects (they occupy no cell) *)
  Object_table.iter_slots t.objects (fun id ->
      if (not (Object_table.is_alive t.objects id)) && Object_table.is_los t.objects id then begin
        Los.free t.los ~addr:(Object_table.addr t.objects id);
        Object_table.release t.objects id
      end);
  List.iter (dissolve_block t) !empties;
  Intvec.clear t.nursery;
  Remset.clear t.remset;
  t.want_full <- false;
  record (Cost.end_gc t.cost);
  t.metrics.Metrics.full_gcs <- t.metrics.Metrics.full_gcs + 1;
  let live = Object_table.live_bytes t.objects in
  if live > t.metrics.Metrics.peak_live_bytes then t.metrics.Metrics.peak_live_bytes <- live

(** Set the incremental work budget (0 = stop-the-world).  The baseline
    has no cycle state to finish: the next collection simply uses the
    new bracketing. *)
let set_gc_slice (t : t) (budget : int) : unit = t.gc_slice <- max 0 budget

(** Nursery collection (sticky mark bits over the free list). *)
let nursery_gc (t : t) : unit =
  let w = Cost.default in
  Cost.begin_gc t.cost;
  Cost.charge t.cost w.Cost.gc_nursery_fixed;
  Cost.charge t.cost (w.Cost.remset_entry *. float_of_int (Remset.size t.remset));
  Remset.clear t.remset;
  let freed = ref 0 in
  Intvec.iter t.nursery (fun id ->
      if not (Object_table.is_alive t.objects id) then begin
        let addr = Object_table.addr t.objects id in
        if addr >= 0 then begin
          if Object_table.is_los t.objects id then Los.free t.los ~addr
          else begin
            let b, c = addr_to_cell t addr in
            b.cells.(c) <- -1;
            b.free_cells <- b.free_cells + 1;
            Intvec.push t.free_lists.(b.klass) ((b.index lsl cell_bits) lor c);
            freed := !freed + b.cell_size
          end;
          Object_table.release t.objects id
        end
      end
      else begin
        let nrefs = Object_table.nrefs t.objects id in
        Cost.charge t.cost (w.Cost.mark_obj +. (w.Cost.mark_edge *. float_of_int nrefs));
        Object_table.clear_nursery_flag t.objects id
      end);
  Intvec.clear t.nursery;
  let heap_bytes = Page_stock.npages t.stock * Holes_pcm.Geometry.page_bytes in
  if float_of_int !freed < 0.12 *. float_of_int heap_bytes then t.want_full <- true;
  let pause = Cost.end_gc t.cost in
  t.metrics.Metrics.nursery_gcs <- t.metrics.Metrics.nursery_gcs + 1;
  Metrics.record_nursery_pause t.metrics pause

(** Allocate with the collection-retry ladder; raises [Out_of_memory]. *)
let alloc (t : t) ~(size : int) : int * int * int =
  let size = Units.aligned_size size in
  let generational = Config.is_generational t.cfg.Config.collector in
  let rec attempt n =
    match alloc_nogc t ~size with
    | Some slot -> slot
    | None ->
        if n = 0 && generational && not t.want_full then begin
          nursery_gc t;
          attempt 1
        end
        else if n <= 1 then begin
          full_gc t;
          attempt 2
        end
        else begin
          t.metrics.Metrics.out_of_memory <- true;
          t.metrics.Metrics.oom_request <- size;
          raise Out_of_memory
        end
  in
  attempt 0

let register (t : t) ~(id : int) : unit = Intvec.push t.nursery id

let write_barrier (t : t) ~(src : int) : unit =
  Cost.charge t.cost Cost.default.Cost.write_barrier;
  if Config.is_generational t.cfg.Config.collector && not (Object_table.is_nursery t.objects src)
  then ignore (Remset.record t.remset ~src)

let collect (t : t) ~(full : bool) : unit = if full then full_gc t else nursery_gc t
