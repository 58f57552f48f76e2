/* Move a process onto one vCPU: sched_setaffinity(2) for OCaml. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}
