(** Virtual memory manager (paper Secs. 3.2.1–3.2.2).

    Failure-unaware processes allocate perfect memory via the normal
    [mmap]; a failure-aware process uses [mmap_imperfect] to acquire
    imperfect pages (which may contain holes) and [map_failures] to read
    the failure bitmap for a mapped range.  The VMM supports reverse
    translation (physical page -> (process, virtual page)) so the failure
    interrupt handler can revoke access to failing pages. *)

open Holes_stdx
module Trace = Holes_obs.Trace

type prot = No_access | Read_write

(* The tables are flat arrays indexed by ids the VMM hands out densely:
   a process's virtual pages come from [next_virt], which counts up and
   never reuses a page, and physical pages are the pools' fixed
   [dram_pages + pcm_pages] ids.  [-1] marks an absent entry. *)

type process = {
  pid : int;
  mutable phys_of_virt : int array;  (** virtual page -> physical page, or -1 *)
  mutable prot_of_virt : prot array;  (** virtual page -> protection (mapped pages only) *)
  mutable next_virt : int;
  mutable failure_handler : (virt_page:int -> line:int -> data:Bytes.t option -> unit) option;
      (** up-call registered by a failure-aware runtime (Sec. 3.2.2) *)
}

type t = {
  pools : Pools.t;  (** the physical pages, their pools and the failure table *)
  mutable processes : process option array;
      (** pid -> the process, grown by doubling; pids count up from 1
          and are never reused, and a process is never removed *)
  mutable next_pid : int;
  owner_pid : int array;  (** physical page -> owning pid, or -1 *)
  owner_virt : int array;  (** physical page -> the owner's virtual page *)
  mutable reverse_translations : int;  (** statistic: the expensive lookups *)
  mutable swap_ins : int;  (** pages moved to a new frame via the swap path *)
  tracer : Trace.view;  (** osal-lane events: map_failures, remaps, swaps *)
}

let create ?(tracer = Trace.null) ~(dram_pages : int) ~(pcm_pages : int) () : t =
  {
    pools = Pools.create ~dram_pages ~pcm_pages;
    processes = Array.make 8 None;
    next_pid = 1;
    owner_pid = Array.make (dram_pages + pcm_pages) (-1);
    owner_virt = Array.make (dram_pages + pcm_pages) (-1);
    reverse_translations = 0;
    swap_ins = 0;
    tracer;
  }

let pools (t : t) : Pools.t = t.pools

let failure_table (t : t) : Failure_table.t = Pools.table t.pools

(* [a] copied into an array twice as long, padded with [fill] *)
let doubled (a : 'a array) (fill : 'a) : 'a array =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let spawn (t : t) : process =
  let p =
    {
      pid = t.next_pid;
      phys_of_virt = Array.make 64 (-1);
      prot_of_virt = Array.make 64 Read_write;
      next_virt = 0;
      failure_handler = None;
    }
  in
  t.next_pid <- t.next_pid + 1;
  if p.pid >= Array.length t.processes then t.processes <- doubled t.processes None;
  t.processes.(p.pid) <- Some p;
  p

(** Register the runtime's dynamic-failure handler; required before a
    process may rely on imperfect memory. *)
let register_failure_handler (p : process)
    (h : virt_page:int -> line:int -> data:Bytes.t option -> unit) : unit =
  p.failure_handler <- Some h

let set_owner (t : t) ~(phys : int) ~(pid : int) ~(virt : int) : unit =
  t.owner_pid.(phys) <- pid;
  t.owner_virt.(phys) <- virt

let clear_owner (t : t) ~(phys : int) : unit =
  t.owner_pid.(phys) <- -1;
  t.owner_virt.(phys) <- -1

let install_mapping (t : t) (p : process) (phys : int) : int =
  let virt = p.next_virt in
  if virt >= Array.length p.phys_of_virt then begin
    p.phys_of_virt <- doubled p.phys_of_virt (-1);
    p.prot_of_virt <- doubled p.prot_of_virt Read_write
  end;
  p.next_virt <- virt + 1;
  p.phys_of_virt.(virt) <- phys;
  p.prot_of_virt.(virt) <- Read_write;
  set_owner t ~phys ~pid:p.pid ~virt;
  virt

(* undo the mappings of a failed [mmap]; [next_virt] is not rolled back *)
let roll_back (t : t) (p : process) (virts : int list) : unit =
  List.iter
    (fun virt ->
      let phys = p.phys_of_virt.(virt) in
      p.phys_of_virt.(virt) <- -1;
      clear_owner t ~phys;
      Pools.free t.pools phys)
    virts

(** Normal [mmap]: perfect pages only (PCM-perfect first, falling back to
    DRAM).  Returns the virtual page numbers, or [Error `Out_of_memory]
    when neither pool can satisfy the request. *)
let mmap (t : t) (p : process) ~(pages : int) : (int list, [ `Out_of_memory ]) result =
  let rec go n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match Pools.alloc_perfect t.pools with
      | Some phys -> go (n - 1) (install_mapping t p phys :: acc)
      | None ->
          let phys = Pools.alloc_dram t.pools in
          if phys >= 0 then go (n - 1) (install_mapping t p phys :: acc)
          else begin
            roll_back t p acc;
            Error `Out_of_memory
          end
  in
  go pages []

(** The special mmap variation of Sec. 3.2.1: acquire [pages] pages of
    (possibly) imperfect PCM.  "This call returns the number of pages
    requested, however not all of the allocated memory may be usable." *)
let mmap_imperfect (t : t) (p : process) ~(pages : int) : (int list, [ `Out_of_memory ]) result =
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "mmap_imperfect"
      ~args:[ ("pages", float_of_int pages) ];
  let rec go n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match Pools.alloc_pcm_any t.pools with
      | Some phys -> go (n - 1) (install_mapping t p phys :: acc)
      | None ->
          roll_back t p acc;
          Error `Out_of_memory
  in
  go pages []

(** [translate p ~virt] is the physical page backing virtual page
    [virt], or [-1] when it is not mapped. *)
let translate (p : process) ~(virt : int) : int =
  if virt >= 0 && virt < Array.length p.phys_of_virt then Array.unsafe_get p.phys_of_virt virt
  else -1

(* the physical page of a mapped virtual page; [invalid_arg] naming
   [fn] otherwise *)
let mapped (p : process) ~(fn : string) ~(virt : int) : int =
  let phys = translate p ~virt in
  if phys < 0 then invalid_arg ("Vmm." ^ fn ^ ": unmapped virtual page");
  phys

(** [map_failures t p ~virt] returns the failure bitmap of the physical
    page backing virtual page [virt] (all-clear for DRAM). *)
let map_failures (t : t) (p : process) ~(virt : int) : Bitset.t =
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "map_failures"
      ~args:[ ("virt", float_of_int virt) ];
  let phys = mapped p ~fn:"map_failures" ~virt in
  if phys < Pools.dram_pages t.pools then Bitset.create Pools.lines_per_page
  else Bitset.copy (Pools.failures t.pools phys)

(** Reverse address translation (physical -> (pid, virtual)); "relatively
    expensive, but dynamic failures are very rare" (Sec. 3.2.2). *)
let reverse_translate (t : t) ~(phys : int) : (int * int) option =
  t.reverse_translations <- t.reverse_translations + 1;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "reverse_translate"
      ~args:[ ("phys", float_of_int phys) ];
  if t.owner_pid.(phys) < 0 then None else Some (t.owner_pid.(phys), t.owner_virt.(phys))

let reverse_translations (t : t) : int = t.reverse_translations

(** Account one page swapped into a new physical frame (Sec. 3.2.3). *)
let record_swap (t : t) : unit =
  t.swap_ins <- t.swap_ins + 1;
  if Trace.armed t.tracer then Trace.instant t.tracer ~tid:Trace.tid_osal "swap_in"

let swap_ins (t : t) : int = t.swap_ins

(** The process [pid], if it exists.  Allocates nothing. *)
let find_process (t : t) (pid : int) : process option =
  if pid >= 0 && pid < Array.length t.processes then t.processes.(pid) else None

let set_protection (p : process) ~(virt : int) (prot : prot) : unit =
  ignore (mapped p ~fn:"set_protection" ~virt);
  p.prot_of_virt.(virt) <- prot

let protection (p : process) ~(virt : int) : prot =
  ignore (mapped p ~fn:"protection" ~virt);
  p.prot_of_virt.(virt)

(** Remap virtual page [virt] to a different physical page (used when the
    OS masks a failure by substituting a perfect page). *)
let remap (t : t) (p : process) ~(virt : int) ~(new_phys : int) : unit =
  let phys = mapped p ~fn:"remap" ~virt in
  clear_owner t ~phys;
  Pools.free t.pools phys;
  p.phys_of_virt.(virt) <- new_phys;
  p.prot_of_virt.(virt) <- Read_write;
  set_owner t ~phys:new_phys ~pid:p.pid ~virt

(** Retarget virtual page [virt] to [new_phys] {e without} freeing the
    old frame — the tiering primitive (DESIGN.md §17).  A promotion
    points the mapping at a DRAM frame while the page's PCM home stays
    reserved (its failure bitmap and wear state must survive the
    round-trip) and keeps its reverse mapping, so a line failure on the
    home still reaches the owner; the matching demotion points it back.
    The caller owns both frames' lifecycles and demotes a page before
    unmapping it. *)
let migrate (t : t) (p : process) ~(virt : int) ~(new_phys : int) : unit =
  let phys = mapped p ~fn:"migrate" ~virt in
  if phys < Pools.dram_pages t.pools then clear_owner t ~phys;
  p.phys_of_virt.(virt) <- new_phys;
  set_owner t ~phys:new_phys ~pid:p.pid ~virt;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "migrate"
      ~args:[ ("virt", float_of_int virt); ("phys", float_of_int new_phys) ]

(** Unmap and free a virtual page. *)
let munmap (t : t) (p : process) ~(virt : int) : unit =
  let phys = mapped p ~fn:"munmap" ~virt in
  p.phys_of_virt.(virt) <- -1;
  clear_owner t ~phys;
  Pools.free t.pools phys
