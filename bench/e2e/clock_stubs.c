/* Nanosecond clocks for timing calls into the simulator from outside.
   Unix.gettimeofday is microsecond-grained, too coarse for the per-call
   sums the traced run accumulates (a fast Vm.alloc takes a few hundred
   ns).  The monotonic clock gives wall time; the thread CPU clock gives
   the time this thread actually ran, which on a virtual machine excludes
   the time the host took the CPU away (steal).  Also the process's peak
   resident set size. */

#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

static intnat clock_ns(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat holes_bench_now_ns_untagged(value unit)
{
  (void)unit;
  return clock_ns(CLOCK_MONOTONIC);
}

value holes_bench_now_ns(value unit)
{
  return Val_long(holes_bench_now_ns_untagged(unit));
}

intnat holes_bench_cpu_ns_untagged(value unit)
{
  (void)unit;
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

value holes_bench_cpu_ns(value unit)
{
  return Val_long(holes_bench_cpu_ns_untagged(unit));
}

/* Peak resident set size of this process in KiB (ru_maxrss on Linux). */
value holes_bench_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
