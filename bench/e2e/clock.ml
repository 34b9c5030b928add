(* The host clocks in nanoseconds (allocation-free, no OCaml runtime
   interaction), and the process's peak memory.

   [now_ns] is wall time (CLOCK_MONOTONIC).  [cpu_ns] is the calling
   thread's CPU time (CLOCK_THREAD_CPUTIME_ID): on a virtual machine whose
   kernel accounts steal time, it leaves out the time the host ran other
   guests on this CPU, which comes in phases of many seconds and, measured
   on the wall clock, slowed whole passes by up to a third. *)

external now_ns : unit -> (int[@untagged])
  = "holes_bench_now_ns" "holes_bench_now_ns_untagged"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged])
  = "holes_bench_cpu_ns" "holes_bench_cpu_ns_untagged"
[@@noalloc]

let seconds_since (t0 : int) : float = float_of_int (now_ns () - t0) *. 1e-9

(* Time [f ()] in wall seconds, returning its result too. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Time [f ()] in CPU seconds of the calling thread. *)
let cpu_timed (f : unit -> 'a) : 'a * float =
  let t0 = cpu_ns () in
  let r = f () in
  (r, float_of_int (cpu_ns () - t0) *. 1e-9)

external peak_rss_kb : unit -> int = "holes_bench_peak_rss_kb"

(* Peak resident set size of this process, in MB. *)
let peak_rss_mb () : float =
  match peak_rss_kb () with
  | kb when kb < 0 -> failwith "getrusage failed"
  | kb -> float_of_int kb /. 1024.0
