(** The OS failure-interrupt handler (paper Sec. 3.2.2).

    Wired to a {!Holes_pcm.Device}, the handler services write-failure
    interrupts.  Each event carries the logical address whose write
    failed and the logical lines that became unusable; with failure
    clustering these differ — the hardware redirects the failed physical
    line to the cluster end, so the issuing address is re-backed by a
    working line (and the OS simply restores the preserved data there),
    while the boundary slot becomes the unusable line.  For each
    unusable line the handler performs reverse address translation,
    revokes access, updates the failure table and pools, and resolves
    the failure either by up-calling the owning process's registered
    runtime handler (failure-aware) or by copying the page's data to a
    perfect page and remapping (failure-unaware fallback). *)

module Pcm = Holes_pcm
module Trace = Holes_obs.Trace

type resolution =
  | Upcalled of int  (** pid whose runtime handler relocated the data *)
  | Page_copied of { pid : int; old_phys : int; new_phys : int }
  | Data_restored of int  (** clustering re-backed the address; data rewritten *)
  | Unowned  (** the failing page was not mapped; only bookkeeping done *)

type event = { addr : int; unusable : int list }

type t = {
  vmm : Vmm.t;
  device : Pcm.Device.t;
  dram_pages : int;
  mutable queue : event list;  (** oldest first *)
  mutable page_copies : int;
  mutable upcalls : int;
  mutable restores : int;
  mutable evacuations : int;
      (** retires that arrived with no buffered payload: lines the
          device's wear leveler reserved for itself (start-gap's gap
          line) and handed back through the failure chain *)
  tracer : Trace.view;  (** osal-lane events: service spans, resolutions *)
}

(** Attach an interrupt handler to [device].  [dram_pages] is the number
    of DRAM physical ids preceding the PCM pages in the VMM's physical
    namespace (device page 0 is VMM physical page [dram_pages]). *)
let attach ?(tracer = Trace.null) ~(vmm : Vmm.t) ~(device : Pcm.Device.t) ~(dram_pages : int) ()
    : t =
  let t =
    {
      vmm;
      device;
      dram_pages;
      queue = [];
      page_copies = 0;
      upcalls = 0;
      restores = 0;
      evacuations = 0;
      tracer;
    }
  in
  Pcm.Device.on_line_failed device (fun ~addr ~unusable ->
      t.queue <- t.queue @ [ { addr; unusable } ]);
  t

let has_pending (t : t) : bool = t.queue <> []

let lines_per_page = Pcm.Geometry.lines_per_page

(* Copy all usable lines of device page [page] to a fresh perfect page and
   remap the process's virtual page (failure-unaware resolution).  The
   destination is chosen by the swap engine's To_perfect policy
   (Sec. 3.2.3); DRAM is the last resort when the perfect pool is dry. *)
let copy_to_perfect (t : t) ~(pid : int) ~(virt : int) ~(device_page : int) : resolution option =
  let pools = Vmm.pools t.vmm in
  let src_map = Failure_table.get (Vmm.failure_table t.vmm) ~page:device_page in
  let target =
    match
      Swap.swap_in pools ~table:(Vmm.failure_table t.vmm) ~dram_pages:t.dram_pages
        ~policy:Swap.To_perfect ~src_map
    with
    | Some o -> Some o.Swap.dest
    | None -> Pools.alloc_dram pools
  in
  match target with
  | None -> None
  | Some new_phys ->
      (* Model the data movement by reading every usable line (a real OS
         would copy the bytes into the new physical frame). *)
      for line = 0 to lines_per_page - 1 do
        let l = (device_page * lines_per_page) + line in
        if Pcm.Device.line_usable t.device l then ignore (Pcm.Device.read t.device l)
      done;
      let p = Option.get (Vmm.find_process t.vmm pid) in
      let old_phys = Vmm.translate p ~virt in
      Vmm.remap t.vmm p ~virt ~new_phys;
      Vmm.record_swap t.vmm;
      t.page_copies <- t.page_copies + 1;
      if Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "os_page_copy"
          ~args:[ ("old_phys", float_of_int old_phys); ("new_phys", float_of_int new_phys) ];
      Some (Page_copied { pid; old_phys; new_phys })

(* Resolve one newly unusable logical line. *)
let resolve_line (t : t) ~(line : int) ~(data : Bytes.t option) : resolution =
  let device_page = line / lines_per_page in
  let line_in_page = line mod lines_per_page in
  let phys = t.dram_pages + device_page in
  (* 1. prevent further access before the buffer entry disappears *)
  let owner = Vmm.reverse_translate t.vmm ~phys in
  (match owner with
  | Some (pid, virt) ->
      let p = Option.get (Vmm.find_process t.vmm pid) in
      Vmm.set_protection p ~virt Vmm.No_access
  | None -> ());
  (* 2. update OS failure bookkeeping *)
  Failure_table.mark_failed (Vmm.failure_table t.vmm) ~page:device_page ~line:line_in_page;
  ignore (Pools.mark_line_failed (Vmm.pools t.vmm) ~page:phys ~line:line_in_page);
  (* 3. resolve *)
  match owner with
  | None -> Unowned
  | Some (pid, virt) -> (
      let p = Option.get (Vmm.find_process t.vmm pid) in
      match p.Vmm.failure_handler with
      | Some handler ->
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_osal "os_upcall"
              ~args:[ ("line", float_of_int line); ("virt", float_of_int virt) ];
          handler ~virt_page:virt ~line:line_in_page ~data;
          Vmm.set_protection p ~virt Vmm.Read_write;
          t.upcalls <- t.upcalls + 1;
          Upcalled pid
      | None -> (
          match copy_to_perfect t ~pid ~virt ~device_page with
          | Some r -> r
          | None ->
              (* no perfect page left: leave the page inaccessible *)
              Unowned))

(** Service the interrupt: handle every pending failure event.  Returns
    the resolutions, oldest first. *)
let service (t : t) : resolution list =
  let rec drain acc =
    match t.queue with
    | [] -> List.rev acc
    | { addr; unusable } :: rest ->
        t.queue <- rest;
        (* recover the preserved data, clearing the buffer entry (this
           may un-stall the device) *)
        let data = Pcm.Device.drain_failure t.device addr in
        (* no buffered payload + the address retiring itself = a pipeline
           reservation (e.g. a start-gap enable evacuating its gap line),
           not a wear failure: same resolution path, tracked apart *)
        if data = None && List.mem addr unusable then begin
          t.evacuations <- t.evacuations + 1;
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_osal "os_line_evacuate"
              ~args:[ ("line", float_of_int addr) ]
        end;
        let results = ref [] in
        (* the failing address itself: if clustering re-backed it with a
           working line, restore the in-flight data in place *)
        if (not (List.mem addr unusable)) && Pcm.Device.line_usable t.device addr then begin
          (match data with
          | Some d -> ignore (Pcm.Device.write t.device addr d)
          | None -> ());
          t.restores <- t.restores + 1;
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_osal "os_data_restore"
              ~args:[ ("line", float_of_int addr) ];
          results := Data_restored addr :: !results
        end;
        List.iter
          (fun line ->
            let line_data = if line = addr then data else None in
            results := resolve_line t ~line ~data:line_data :: !results)
          unusable;
        drain (!results @ acc)
  in
  if t.queue = [] then []
  else if Trace.armed t.tracer then
    Trace.with_span t.tracer ~tid:Trace.tid_osal "irq_service" (fun () -> drain [])
  else drain []

let upcalls (t : t) : int = t.upcalls

let page_copies (t : t) : int = t.page_copies

let restores (t : t) : int = t.restores

let evacuations (t : t) : int = t.evacuations
