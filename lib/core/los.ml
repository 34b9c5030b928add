(** The large object space (paper Secs. 3.3.3 and 4.1).

    Objects above the LOS threshold (8 KB) are allocated page-grained and
    contiguous, so they cannot skip over holes: the LOS is a *fussy*
    allocator that demands perfect pages.  When the perfect pool is dry
    it borrows DRAM pages through the debit–credit accounting
    (Sec. 5); two-page hardware clustering keeps this rare by
    manufacturing logically perfect pages (Sec. 6.4, Fig. 9(b)). *)

open Holes_heap

type entry = {
  pages : int array;
      (** page-stock ids backing the object, in address order;
          -1 = borrowed DRAM *)
  bytes : int;
}

type t = {
  stock : Page_stock.t;
  cost : Cost.t;
  metrics : Metrics.t;
  entries : (int, entry) Hashtbl.t;  (** LOS address -> backing pages *)
  mutable memo_base : int;
      (** the base [page_backing] last looked up, or -1: a large object's
          line stores all ask for the same base.  [free] forgets it; an
          allocation cannot make it stale, since no address is reused *)
  mutable memo_pages : int array;  (** [memo_base]'s backing pages *)
  mutable next_addr : int;
  mutable pages_in_use : int;
}

(** LOS addresses live in their own range so [Vm] can distinguish them
    from Immix block addresses. *)
let address_base = 1 lsl 40

let create ~(stock : Page_stock.t) ~(cost : Cost.t) ~(metrics : Metrics.t) : t =
  {
    stock;
    cost;
    metrics;
    entries = Hashtbl.create 64;
    memo_base = -1;
    memo_pages = [||];
    next_addr = address_base;
    pages_in_use = 0;
  }

let is_los_addr (addr : int) : bool = addr >= address_base

let pages_needed (size : int) : int =
  (size + Holes_pcm.Geometry.page_bytes - 1) / Holes_pcm.Geometry.page_bytes

(** Would allocating [size] bytes stay within the heap budget?  The LOS
    only proceeds when the stock could cover the request (otherwise the
    caller must collect first); the perfect/borrowed distinction is then
    resolved page by page. *)
let can_allocate (t : t) ~(size : int) : bool =
  let npages = pages_needed size in
  Page_stock.free_pages t.stock >= npages

(** Allocate [size] bytes page-grained.  The caller must have ensured
    {!can_allocate}; pages are drawn perfect-first, with DRAM borrowing
    as a *bounded* fallback (DRAM is scarce).  Returns the fresh LOS
    address, or [None] when the perfect pool and the borrow budget are
    both exhausted — the caller should collect and retry. *)
let alloc (t : t) ~(size : int) : int option =
  let w = Cost.default in
  let npages = pages_needed size in
  let pages = Array.make npages (-2) in
  let taken = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && !taken < npages do
    Cost.charge t.cost w.Cost.perfect_request;
    (match Page_stock.take_perfect t.stock with
    | Page_stock.Perfect id ->
        pages.(!taken) <- id;
        incr taken
    | Page_stock.Borrowed ->
        Cost.charge t.cost w.Cost.dram_borrow;
        pages.(!taken) <- -1;
        incr taken
    | Page_stock.Exhausted -> exhausted := true)
  done;
  if !exhausted then begin
    (* roll back the pages already taken *)
    for i = 0 to !taken - 1 do
      if pages.(i) = -1 then Page_stock.return_borrowed t.stock
      else Page_stock.return_page t.stock pages.(i)
    done;
    None
  end
  else begin
    Cost.charge t.cost (w.Cost.los_page *. float_of_int npages);
    let addr = t.next_addr in
    t.next_addr <- t.next_addr + (npages * Holes_pcm.Geometry.page_bytes);
    t.pages_in_use <- t.pages_in_use + npages;
    t.metrics.Metrics.los_objects <- t.metrics.Metrics.los_objects + 1;
    t.metrics.Metrics.los_pages <- t.metrics.Metrics.los_pages + npages;
    (* keyed by the LOS address; pages in address order, so
       offset / page_bytes indexes the backing page *)
    Hashtbl.replace t.entries addr { pages; bytes = size };
    Some addr
  end

(** Release the LOS allocation at [addr], returning its pages. *)
let free (t : t) ~(addr : int) : unit =
  match Hashtbl.find_opt t.entries addr with
  | None -> invalid_arg "Los.free: unknown LOS address"
  | Some e ->
      let w = Cost.default in
      let npages = Array.length e.pages in
      Cost.charge t.cost (w.Cost.los_page *. float_of_int npages);
      Array.iter
        (fun id ->
          if id = -1 then Page_stock.return_borrowed t.stock else Page_stock.return_page t.stock id)
        e.pages;
      t.pages_in_use <- t.pages_in_use - npages;
      Hashtbl.remove t.entries addr;
      t.memo_base <- -1

(** The 64 B PCM line backing byte [base + off] of the LOS object at
    [base], packed as [stock_page * lines_per_page + line]; -1 for
    borrowed DRAM slots and unknown addresses.  Allocates nothing, and
    hashes only when [base] is not the base it looked up last. *)
let page_backing (t : t) ~(base : int) ~(off : int) : int =
  let pages =
    if base = t.memo_base then t.memo_pages
    else
      match Hashtbl.find t.entries base with
      | exception Not_found -> [||]
      | e ->
          t.memo_base <- base;
          t.memo_pages <- e.pages;
          e.pages
  in
  let pb = Holes_pcm.Geometry.page_bytes in
  let i = off / pb in
  if i < 0 || i >= Array.length pages then -1
  else
    let pg = pages.(i) in
    if pg >= 0 then
      (pg * Holes_pcm.Geometry.lines_per_page) + (off mod pb / Holes_pcm.Geometry.line_bytes)
    else -1

(** The LOS base address whose backing pages include stock page [page] —
    the reverse lookup for an OS-reported line failure.  Linear in the
    number of LOS entries; dynamic failures are rare. *)
let addr_backed_by (t : t) ~(page : int) : int option =
  Hashtbl.fold
    (fun a e acc ->
      match acc with Some _ -> acc | None -> if Array.exists (( = ) page) e.pages then Some a else None)
    t.entries None

(** Pages currently backing live LOS objects. *)
let pages_in_use (t : t) : int = t.pages_in_use
