/* wait4(2) for the benchmark: the child's exit status together with its
   peak resident set size (ru_maxrss), which OCaml's Unix library does
   not expose.  ru_maxrss also covers the child's own reaped children. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 pid nohang -> (pid', kind, code, maxrss_kb)
   pid' = 0 when [nohang] and the child is still running.
   kind: 0 exited with status [code], 1 killed by signal [code]. */
CAMLprim value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int err;
  int opts = Bool_val(vnohang) ? WNOHANG : 0;
  memset(&ru, 0, sizeof ru);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, opts, &ru);
    err = errno;
    caml_leave_blocking_section();
    if (r >= 0 || err != EINTR) break;
    /* run OCaml signal handlers (they may raise) before waiting again */
    caml_process_pending_actions();
  }
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1, Val_int(r > 0 && WIFSIGNALED(status) ? 1 : 0));
  Store_field(res, 2,
              Val_int(r > 0 && WIFSIGNALED(status) ? WTERMSIG(status)
                                                   : WEXITSTATUS(status)));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
