(* The full hardware/OS path: a wearable PCM device, the failure buffer,
   the clustering redirection maps, and the OS interrupt handler with a
   failure-aware process.

     dune exec examples/failing_device.exe

   This example does not use the GC at all — it shows the substrate the
   runtime sits on: writes wear lines out; the device preserves in-flight
   data in the failure buffer; clustering hardware redirects failed lines
   to region ends; the OS drains the buffer, restores data, and publishes
   clustered failure maps. *)

module Pcm = Holes_pcm
module Osal = Holes_osal

let () =
  print_endline "== wearing out a clustered PCM device ==";
  let device =
    Pcm.Device.create
      ~config:
        {
          Pcm.Device.pages = 8;
          wear = { Pcm.Wear.mean_endurance = 400.0; sigma = 0.3; ecp_entries = 2; ecp_extension = 0.15 };
          clustering = Some 2;
          buffer_capacity = 16;
          caram = None;
          wear_level = None;
        }
      ~seed:5 ()
  in
  let vmm = Osal.Vmm.create ~dram_pages:4 ~pcm_pages:8 () in
  let handler = Osal.Interrupts.attach ~vmm ~device () in
  let proc = Osal.Vmm.spawn vmm in
  (match Osal.Vmm.mmap_imperfect vmm proc ~pages:8 with
  | Ok _ -> ()
  | Error `Out_of_memory -> failwith "mmap failed");
  let relocations = ref 0 in
  Osal.Vmm.register_failure_handler proc (fun ~virt_page:_ ~line:_ ~data:_ ->
      incr relocations);

  (* hammer the device with skewed write traffic until failures pile up *)
  let rng = Holes_stdx.Xrng.of_seed 9 in
  let zipf = Holes_stdx.Dist.zipf_sampler ~n:(Pcm.Device.nlines device) ~s:0.8 in
  let payload i = Bytes.make Pcm.Geometry.line_bytes (Char.chr (65 + (i mod 26))) in
  let writes = ref 0 and failures = ref 0 and stalls = ref 0 in
  while List.length (Pcm.Device.unusable_lines device) < 64 && !writes < 2_000_000 do
    let line = zipf rng - 1 in
    (match Pcm.Device.write device line (payload !writes) with
    | Pcm.Device.Stored | Pcm.Device.Unusable -> ()
    | Pcm.Device.Write_failed -> incr failures
    | Pcm.Device.Stalled ->
        (* the buffer hit its watermark: the OS must service the interrupt *)
        incr stalls;
        Osal.Interrupts.service handler);
    if Osal.Interrupts.has_pending handler && !writes mod 64 = 0 then
      Osal.Interrupts.service handler;
    incr writes
  done;
  Osal.Interrupts.service handler;

  let stats = Pcm.Device.stats device in
  Printf.printf "writes issued:        %d\n" stats.Pcm.Device.writes;
  Printf.printf "line failures:        %d\n" stats.Pcm.Device.failures;
  Printf.printf "buffer stalls:        %d\n" !stalls;
  Printf.printf "OS data restores:     %d (clustering re-backed the address)\n"
    (Osal.Interrupts.restores handler);
  Printf.printf "runtime up-calls:     %d\n" (Osal.Interrupts.upcalls handler);
  Printf.printf "unusable lines now:   %d\n" (List.length (Pcm.Device.unusable_lines device));

  (* show the clustering: per page, how many lines the OS marked failed,
     and the failure table's RLE footprint *)
  let table = Osal.Vmm.failure_table vmm in
  print_string "failed lines per page:";
  for p = 0 to 7 do
    Printf.printf " %d" (Osal.Failure_table.failed_lines table ~page:p)
  done;
  print_newline ();
  Printf.printf "failure table: %d raw bits, %d RLE bits (%.1fx compression)\n"
    (Osal.Failure_table.raw_bits table) (Osal.Failure_table.rle_bits table)
    (float_of_int (Osal.Failure_table.raw_bits table)
    /. float_of_int (max 1 (Osal.Failure_table.rle_bits table)));
  (* clustered failure maps are contiguous runs at region ends *)
  let map = Osal.Failure_table.get table ~page:0 in
  Format.printf "page 0 failure bitmap: %a@." Holes_stdx.Bitset.pp map
