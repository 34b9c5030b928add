(** The debit–credit cost model for perfect-page requests
    (paper Sec. 5, "Failure map generation and memory accounting").

    Application memory requests fall into two categories: *relaxed*
    allocators can use fragmented (imperfect) pages; *fussy* allocators
    (the large object space and overflow blocks) need perfect pages.  A
    real system would have scarce DRAM backing such requests, so the model
    penalizes them: when a fussy allocator needs a perfect page and none
    is available, it is given one (modeling a borrowed DRAM page) and the
    process incurs one page of *debt*.  The relaxed allocator repays the
    debt: each time it is offered a perfect page while debt is
    outstanding, it declines the page (reducing debt by one) and fetches
    another PCM page instead — so borrowed pages ultimately cost heap
    space, which the garbage-collection space-time trade-off converts
    into time. *)

type t = {
  mutable debt : int;  (** outstanding borrowed pages *)
  mutable total_borrowed : int;  (** lifetime borrows: the Fig. 9(b) metric *)
  mutable total_repaid : int;
  mutable perfect_requests : int;  (** fussy requests for a perfect page *)
  mutable perfect_satisfied : int;  (** served from an actual perfect page *)
  mutable total_closed : int;
      (** loans closed by returning the borrowed page itself (neither
          repaid nor outstanding — the third leg of the debit–credit
          balance [total_borrowed = debt + total_repaid + total_closed],
          which the heap verifier asserts) *)
}

let create () : t =
  {
    debt = 0;
    total_borrowed = 0;
    total_repaid = 0;
    perfect_requests = 0;
    perfect_satisfied = 0;
    total_closed = 0;
  }

(** A fussy allocator requests [pages] perfect pages; [available] says how
    many real perfect pages the OS could supply.  The shortfall is
    borrowed and becomes debt. *)
let fussy_request (t : t) ~(pages : int) ~(available : int) : unit =
  if pages < 0 || available < 0 then invalid_arg "Accounting.fussy_request: negative";
  t.perfect_requests <- t.perfect_requests + pages;
  let served = min pages available in
  t.perfect_satisfied <- t.perfect_satisfied + served;
  let borrowed = pages - served in
  t.debt <- t.debt + borrowed;
  t.total_borrowed <- t.total_borrowed + borrowed

(** The relaxed allocator was offered a perfect page.  Returns [`Keep] if
    it may use the page, or [`Decline] if it must give the page up to
    repay one page of debt (and fetch another PCM page instead). *)
let relaxed_offer_perfect (t : t) : [ `Keep | `Decline ] =
  if t.debt > 0 then begin
    t.debt <- t.debt - 1;
    t.total_repaid <- t.total_repaid + 1;
    `Decline
  end
  else `Keep

(** A borrowed DRAM page was returned before the relaxed allocator
    repaid it: the loan closes and the outstanding debt shrinks. *)
let loan_closed (t : t) : unit =
  if t.debt > 0 then begin
    t.debt <- t.debt - 1;
    t.total_closed <- t.total_closed + 1
  end

let debt (t : t) : int = t.debt

let total_borrowed (t : t) : int = t.total_borrowed

let total_repaid (t : t) : int = t.total_repaid

let perfect_requests (t : t) : int = t.perfect_requests

let perfect_satisfied (t : t) : int = t.perfect_satisfied

let total_closed (t : t) : int = t.total_closed
