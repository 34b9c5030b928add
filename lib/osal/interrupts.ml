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

type event = { addr : int; unusable : int list }

type t = {
  vmm : Vmm.t;
  device : Pcm.Device.t;
  mutable queue : event list;  (** oldest first *)
  mutable page_copies : int;
  mutable upcalls : int;
  mutable restores : int;
  tracer : Trace.view;  (** osal-lane events: service spans, resolutions *)
}

(** Attach an interrupt handler to [device], whose page [p] is the VMM's
    physical page [Pools.dram_pages + p]. *)
let attach ?(tracer = Trace.null) ~(vmm : Vmm.t) ~(device : Pcm.Device.t) () : t =
  let t =
    {
      vmm;
      device;
      queue = [];
      page_copies = 0;
      upcalls = 0;
      restores = 0;
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
   (Sec. 3.2.3); DRAM is the last resort when the perfect pool is dry,
   and with neither left the page stays inaccessible. *)
let copy_to_perfect (t : t) (p : Vmm.process) ~(virt : int) ~(phys : int) ~(device_page : int) :
    unit =
  let pools = Vmm.pools t.vmm in
  let target =
    match Swap.swap_in pools ~policy:Swap.To_perfect ~src_map:(Pools.failures pools phys) with
    | Some _ as dest -> dest
    | None -> ( match Pools.alloc_dram pools with -1 -> None | frame -> Some frame)
  in
  match target with
  | None -> ()
  | Some new_phys ->
      (* Model the data movement by reading every usable line (a real OS
         would copy the bytes into the new physical frame). *)
      for line = 0 to lines_per_page - 1 do
        let l = (device_page * lines_per_page) + line in
        if Pcm.Device.line_usable t.device l then ignore (Pcm.Device.read t.device l)
      done;
      let old_phys = Vmm.translate p ~virt in
      Vmm.remap t.vmm p ~virt ~new_phys;
      Vmm.record_swap t.vmm;
      t.page_copies <- t.page_copies + 1;
      if Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "os_page_copy"
          ~args:[ ("old_phys", float_of_int old_phys); ("new_phys", float_of_int new_phys) ]

(* Resolve one newly unusable logical line. *)
let resolve_line (t : t) ~(line : int) ~(data : Bytes.t option) : unit =
  let pools = Vmm.pools t.vmm in
  let device_page = line / lines_per_page in
  let line_in_page = line mod lines_per_page in
  let phys = Pools.dram_pages pools + device_page in
  (* 1. prevent further access before the buffer entry disappears *)
  let owner =
    match Vmm.reverse_translate t.vmm ~phys with
    | None -> None
    | Some (pid, virt) ->
        let p = Option.get (Vmm.find_process t.vmm pid) in
        Vmm.set_protection p ~virt Vmm.No_access;
        Some (p, virt)
  in
  (* 2. update the failure table and pools *)
  ignore (Pools.mark_line_failed pools ~page:phys ~line:line_in_page);
  (* 3. resolve *)
  match owner with
  | None -> ()
  | Some (p, virt) -> (
      match p.Vmm.failure_handler with
      | Some handler ->
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_osal "os_upcall"
              ~args:[ ("line", float_of_int line); ("virt", float_of_int virt) ];
          handler ~virt_page:virt ~line:line_in_page ~data;
          Vmm.set_protection p ~virt Vmm.Read_write;
          t.upcalls <- t.upcalls + 1
      | None -> copy_to_perfect t p ~virt ~phys ~device_page)

(** Service the interrupt: handle every pending failure event, oldest
    first. *)
let service (t : t) : unit =
  let rec drain () =
    match t.queue with
    | [] -> ()
    | { addr; unusable } :: rest ->
        t.queue <- rest;
        (* recover the preserved data, clearing the buffer entry (this
           may un-stall the device) *)
        let data = Pcm.Device.drain_failure t.device addr in
        (* no buffered payload + the address retiring itself = a pipeline
           reservation (e.g. a start-gap enable evacuating its gap line),
           not a wear failure: same resolution path, tracked apart *)
        if data = None && List.mem addr unusable && Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_osal "os_line_evacuate"
            ~args:[ ("line", float_of_int addr) ];
        (* the failing address itself: if clustering re-backed it with a
           working line, restore the in-flight data in place *)
        if (not (List.mem addr unusable)) && Pcm.Device.line_usable t.device addr then begin
          (match data with
          | Some d -> ignore (Pcm.Device.write t.device addr d)
          | None -> ());
          t.restores <- t.restores + 1;
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_osal "os_data_restore"
              ~args:[ ("line", float_of_int addr) ]
        end;
        List.iter
          (fun line -> resolve_line t ~line ~data:(if line = addr then data else None))
          unusable;
        drain ()
  in
  if t.queue <> [] then
    if Trace.armed t.tracer then Trace.with_span t.tracer ~tid:Trace.tid_osal "irq_service" drain
    else drain ()

let upcalls (t : t) : int = t.upcalls

let page_copies (t : t) : int = t.page_copies

let restores (t : t) : int = t.restores
