/* wait4(2) for the benchmark: the exit status of one child together with
   its peak resident set size, which Unix.waitpid does not report. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, ru_maxrss in KiB); a child killed by signal s reports
   128 + s, as a shell does. */
value benchv2_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    errno = err;
    caml_failwith("wait4 failed");
  }
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
