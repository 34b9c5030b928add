(* The host's memory speed, read by a fixed reference kernel.

   On a shared host the simulator's speed drifts with what the other
   tenants do to the memory system: in one four-minute stretch, passes of
   the same cells took from 1.08 to 2.12 CPU seconds, in phases of
   seconds to minutes, while a pure arithmetic loop stayed within 3%.  No
   statistic taken within one run removes a phase that covers it.  This
   kernel slows down with the simulator: random read-modify-writes over a
   4 MB table, sampled between cells, tracked the pass times at a
   correlation of 0.98, and pass times divided by their samples spread
   5.8% where the raw times spread 19.4%.

   The kernel is frozen here, outside the library, so no change to the
   simulator moves it.  Each sample first sweeps the table once, untimed,
   so that what the previous cell left in the caches does not change its
   time. *)

let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19)
let () = Bigarray.Array1.fill table 0
let accesses = 50_000
let pos = ref 1

(* CPU seconds one sample takes on the host the reference was read on,
   at its median speed while the benchmark was calibrated.  A sample's
   time divided into this is the host's speed relative to that. *)
let reference_s = 0.85e-3

(* One sample: its CPU time in seconds. *)
let sample () : float =
  let mask = Bigarray.Array1.dim table - 1 in
  let s = ref 0 in
  for i = 0 to mask do
    s := !s + Bigarray.Array1.unsafe_get table i
  done;
  let t0 = Clock.cpu_ns () in
  for _ = 1 to accesses do
    pos := ((!pos * 1103515245) + 12345) land mask;
    s := !s + Bigarray.Array1.unsafe_get table !pos;
    Bigarray.Array1.unsafe_set table !pos !s
  done;
  float_of_int (Clock.cpu_ns () - t0) *. 1e-9

(* CPU time measured between samples, and the same time at the
   reference speed. *)
type t = { mutable last_s : float; mutable cpu_s : float; mutable at_reference_s : float }

(* Start measuring: takes the first sample. *)
let start () : t = { last_s = sample (); cpu_s = 0.0; at_reference_s = 0.0 }

(* Count [cpu_s] CPU seconds measured since the last sample: takes the
   next sample, and brings them to the reference speed at the mean of
   the samples on either side, so that a phase that begins in the middle
   of a pass slows only the parts of it that ran in the phase. *)
let add (t : t) (cpu_s : float) : unit =
  let s = sample () in
  t.cpu_s <- t.cpu_s +. cpu_s;
  t.at_reference_s <- t.at_reference_s +. (cpu_s *. reference_s /. ((t.last_s +. s) /. 2.0));
  t.last_s <- s

(* The host's speed over the time counted, relative to the reference
   (above 1: faster). *)
let factor (t : t) : float = if t.cpu_s = 0.0 then 1.0 else t.at_reference_s /. t.cpu_s
