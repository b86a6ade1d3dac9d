(** C emitter: post-regalloc IR -> one self-contained C translation unit.

    The emitted program is a transliteration of {!Rp_exec.Interp} running
    over {!Rp_exec.Precomp}'s dense form: one C function per IR function
    ([static val fn_<idx>_<name>(i64 nargs, val *args)]), labels as [goto]
    targets, registers as [val] locals, and a growable object array
    mirroring {!Rp_exec.Memory}'s base-indexed heap.  Every placement
    decision that affects observable counts is copied from the
    interpreter, statement for statement:

    - one [TICK] per executed instruction, one per block terminator,
      checking fuel after the increment and polling the deadline every
      4096 operations; a limit reaches the trailer as its kind and count
      ([status limit fuel N], [depth N] or [stop N]), which {!Native}
      turns into the interpreter's {!Rp_exec.Interp.limit};
    - loads/stores counted {e before} the access is checked (a trapping
      access still counts, exactly as [count_load] precedes [Memory.load]);
    - calls enter with depth-check-then-arity-check, frame objects are
      allocated in declaration order and released in the same order, so
      base numbering — observable through trap messages — is identical;
    - a pointer access checks its base, then the tag set ([rt_check_ts]),
      then liveness and bounds ([rt_checked]): the order of
      {!Rp_exec.Memory}'s one-lookup [load]/[store].  Release drops an
      object's cells and keeps its tag, as [Memory.release] does, and
      [free] traps on a dead base before a non-heap one, reading a
      per-tag heap bit ([g_isheap]; synthetic heap ids are heap);
    - operand coercions evaluate right-to-left ([as_int b] before
      [as_int a]), matching OCaml's evaluation order, so when both
      operands are bad the {e same} operand produces the trap message;
    - OCaml's 63-bit boxed-int semantics are reproduced with 64-bit
      arithmetic followed by a sign-extending renormalization ([norm63]),
      including [lsl]/[asr] shift-count masking and [int_of_float]'s
      x86-64 overflow behaviour.

    Tag sets compile to static bitsets over emit-time tag ids.  Heap tags
    the analyses never reified (the interpreter creates them lazily at
    the first [malloc] of a site) get synthetic ids past the end of every
    bitset, which makes their membership [false] — the same answer the
    interpreter's fresh ids produce — without mutating the program. *)

open Rp_ir
module P = Rp_exec.Precomp
module V = Rp_exec.Value

let version = "rpcc-cgen/5"

let mangle idx name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      in
      if not ok then Bytes.set b i '_')
    b;
  Printf.sprintf "fn_%d_%s" idx (Bytes.to_string b)

(** Escape [s] as the body of a C string literal. *)
let c_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 || Char.code c > 126 ->
        Buffer.add_string b (Printf.sprintf "\\%03o" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let bpf = Printf.bprintf

(* ------------------------------------------------------------------ *)
(* Emit-time context                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  prog : Program.t;
  dp : P.dprog;
  ntags : int;  (** static tag-table size; bitsets cover ids [0, ntags) *)
  mutable synth : (int * string) list;  (** synthetic heap tags (rev) *)
  mutable nsynth : int;
  site_tag : (int, int) Hashtbl.t;  (** call site -> tag id *)
  fun_ids : (string, int) Hashtbl.t;  (** interned Loadfp names *)
  mutable fun_names : string list;  (** rev, index = id *)
  mutable nfuns : int;
  ts_ids : (string, int) Hashtbl.t;  (** tagset fingerprint -> ts index *)
  mutable tagsets : (int list * string) list;  (** rev: ids, pp string *)
  mutable nts : int;
}

let intern_fun ctx n =
  match Hashtbl.find_opt ctx.fun_ids n with
  | Some i -> i
  | None ->
    let i = ctx.nfuns in
    Hashtbl.replace ctx.fun_ids n i;
    ctx.fun_names <- n :: ctx.fun_names;
    ctx.nfuns <- i + 1;
    i

(** The tag id objects allocated at [site] carry: the reified heap tag if
    one exists, else a synthetic id past every bitset. *)
let site_tag_id ctx site =
  match Hashtbl.find_opt ctx.site_tag site with
  | Some id -> id
  | None ->
    let id =
      match Hashtbl.find_opt ctx.prog.Program.heap_site_tags site with
      | Some (t : Tag.t) -> t.Tag.id
      | None ->
        let id = ctx.ntags + ctx.nsynth in
        ctx.synth <- (id, Printf.sprintf "heap@%d" site) :: ctx.synth;
        ctx.nsynth <- ctx.nsynth + 1;
        id
    in
    Hashtbl.replace ctx.site_tag site id;
    id

let tagset_id ctx (ts : Tagset.t) =
  let ids = List.map (fun (t : Tag.t) -> t.Tag.id) (Tagset.elements ts) in
  let ids = List.sort_uniq compare ids in
  let fp = String.concat "," (List.map string_of_int ids) in
  match Hashtbl.find_opt ctx.ts_ids fp with
  | Some i -> i
  | None ->
    let i = ctx.nts in
    Hashtbl.replace ctx.ts_ids fp i;
    ctx.tagsets <- (ids, Fmt.str "%a" Tagset.pp ts) :: ctx.tagsets;
    ctx.nts <- i + 1;
    i

(** Pre-register everything that needs a stable id before any code is
    emitted (tables are printed before function bodies). *)
let scan ctx =
  Array.iter
    (fun (g : P.dfunc) ->
      Array.iter
        (fun (b : P.dblock) ->
          Array.iter
            (fun i ->
              match i with
              | P.Dloadfp (_, n) -> ignore (intern_fun ctx n)
              | P.Dloadg (_, _, ts) | P.Dstoreg (_, _, ts) ->
                if not (Tagset.is_univ ts) then ignore (tagset_id ctx ts)
              | P.Dcall c -> ignore (site_tag_id ctx c.P.csite)
              | _ -> ())
            b.P.dinstrs)
        g.P.dblocks)
    ctx.dp.P.dfuncs

(* ------------------------------------------------------------------ *)
(* The fixed runtime                                                   *)
(* ------------------------------------------------------------------ *)

let c_header =
  {|#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdarg.h>
#include <math.h>
#include <unistd.h>
#include <time.h>
#include <sys/resource.h>

typedef long long i64;
typedef unsigned long long u64;

/* The hot helpers must dissolve into the emitted bodies: forcing the
   inline lets the C compiler propagate value kinds through the tagged
   [val] struct and drop the dynamic dispatch on monomorphic paths. */
#define RT_INL static inline __attribute__((always_inline))

enum { K_UNDEF = 0, K_INT = 1, K_FLT = 2, K_PTR = 3, K_FUN = 4 };
typedef struct { i64 a; i64 b; double f; unsigned char k; } val;
typedef struct { val *cells; i64 size; i64 tag; unsigned char live; } obj;

static obj *g_objs; static i64 g_nobjs, g_cap;
static i64 g_ops, g_loads, g_stores;
static i64 g_checksum = 0x1505, g_outlen;
static i64 g_fuel, g_maxdepth, g_depth, g_rng = 12345;
static int g_has_deadline;
static double g_t0, g_budget;
static const char *g_trailer_path;
static char g_obuf[1 << 16];

static void rt_trap(const char *fmt, ...) __attribute__((noreturn, format(printf, 1, 2)));
static void rt_limit(const char *kind, i64 n) __attribute__((noreturn));
static void rt_invalid(const char *fmt, ...) __attribute__((noreturn, format(printf, 1, 2)));
static void rt_badload(val v) __attribute__((noreturn));
static void rt_badstore(val v) __attribute__((noreturn));
static void rt_badcall(val v) __attribute__((noreturn));
static void rt_val_str(char *dst, size_t n, val v);
static void rt_trailer(const char *status, const char *msg, const val *ret);
static val rt_builtin(int bid, i64 site, i64 nargs, val *args);
static val rt_call_name(i64 fid, i64 site, i64 nargs, val *args);
static i64 rt_site_tag(i64 s);
RT_INL i64 rt_gbase(i64 id);
|}

let runtime_prelude =
  {|
RT_INL val vundef(void) { val v; v.k = K_UNDEF; v.a = 0; v.b = 0; v.f = 0.0; return v; }
RT_INL val vint(i64 n) { val v; v.k = K_INT; v.a = n; v.b = 0; v.f = 0.0; return v; }
RT_INL val vflt(double f) { val v; v.k = K_FLT; v.a = 0; v.b = 0; v.f = f; return v; }
RT_INL val vptr(i64 b, i64 o) { val v; v.k = K_PTR; v.a = b; v.b = o; v.f = 0.0; return v; }
RT_INL val vfun(i64 id) { val v; v.k = K_FUN; v.a = id; v.b = 0; v.f = 0.0; return v; }

RT_INL double rt_bits(u64 b) { double d; memcpy(&d, &b, 8); return d; }

/* OCaml's 63-bit boxed int: keep bit 62 as the sign, discard bit 63. */
RT_INL i64 norm63(i64 x) { u64 u = (u64)x << 1; return (i64)u >> 1; }

/* the monotonic clock, as the interpreter's deadline and the harness's
   timers read it: a system clock step moves neither */
static double rt_now(void) {
  struct timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static void rt_val_str(char *dst, size_t n, val v) {
  switch (v.k) {
  case K_INT: snprintf(dst, n, "%lld", v.a); break;
  case K_FLT: snprintf(dst, n, "%g", v.f); break;
  case K_PTR: snprintf(dst, n, "<%lld:+%lld>", v.a, v.b); break;
  case K_FUN: snprintf(dst, n, "@%s", g_funname[v.a]); break;
  default: snprintf(dst, n, "undef"); break;
  }
}

static void __attribute__((noreturn)) rt_fail(const char *status, const char *fmt, va_list ap) {
  char buf[768];
  vsnprintf(buf, sizeof buf, fmt, ap);
  fflush(stdout);
  rt_trailer(status, buf, 0);
  exit(0);
}

static void rt_trap(const char *fmt, ...) {
  va_list ap; va_start(ap, fmt); rt_fail("trap", fmt, ap);
}
static void rt_limit(const char *kind, i64 n) {
  char status[64];
  snprintf(status, sizeof status, "limit %s %lld", kind, n);
  rt_trailer(status, 0, 0);
  exit(0);
}
static void rt_invalid(const char *fmt, ...) {
  va_list ap; va_start(ap, fmt); rt_fail("invalid", fmt, ap);
}
static void rt_badload(val v) {
  char s[192]; rt_val_str(s, sizeof s, v);
  rt_trap("Load through non-pointer %s", s);
}
static void rt_badstore(val v) {
  char s[192]; rt_val_str(s, sizeof s, v);
  rt_trap("Store through non-pointer %s", s);
}
static void rt_badcall(val v) {
  char s[192]; rt_val_str(s, sizeof s, v);
  rt_trap("indirect call through %s", s);
}

static void rt_emit(const char *s, size_t n) {
  fwrite(s, 1, n, stdout);
  for (size_t i = 0; i < n; i++)
    g_checksum = (i64)((((u64)(g_checksum ^ (i64)(unsigned char)s[i]))
                        * 16777619ULL) & 0x3FFFFFFFFFFFFFFULL);
  g_outlen += (i64)n;
}

/* ---- memory ---------------------------------------------------- */

static i64 rt_alloc(i64 tag, i64 size) {
  if (size < 0) size = 0;
  if (g_nobjs == g_cap) {
    g_cap = g_cap ? g_cap * 2 : 256;
    g_objs = (obj *)realloc(g_objs, (size_t)g_cap * sizeof(obj));
    if (!g_objs) _exit(9);
  }
  obj *o = &g_objs[g_nobjs++];
  o->cells = (val *)calloc(size ? (size_t)size : 1, sizeof(val));
  if (!o->cells) _exit(9);
  o->size = size; o->tag = tag; o->live = 1;
  return g_nobjs; /* bases are 1-based, dense, in allocation order */
}

static obj *rt_find(i64 b) {
  if (b < 1 || b > g_nobjs) rt_trap("access to invalid base %lld", b);
  return &g_objs[b - 1];
}

static void rt_release(i64 b) {
  obj *o = rt_find(b);
  o->live = 0;
  free(o->cells); o->cells = 0;
}

/* free(): the base must be live and name a heap tag (synthetic heap
   ids lie past the table, so they are heap by construction) */
static void rt_free(i64 b) {
  obj *o = rt_find(b);
  if (!o->live) rt_trap("double free of '%s'", g_tagname[o->tag]);
  if (o->tag < NTS_BITS && !g_isheap[o->tag])
    rt_trap("free of a non-heap object '%s'", g_tagname[o->tag]);
  rt_release(b);
}

static obj *rt_checked(i64 b, i64 off) {
  obj *o = rt_find(b);
  if (!o->live) rt_trap("access to dead object '%s'", g_tagname[o->tag]);
  if (off < 0 || off >= o->size)
    rt_trap("out-of-bounds access to '%s' (offset %lld, size %lld)",
            g_tagname[o->tag], off, o->size);
  return o;
}

RT_INL val rt_load(i64 b, i64 off) { return rt_checked(b, off)->cells[off]; }
RT_INL void rt_store(i64 b, i64 off, val v) { rt_checked(b, off)->cells[off] = v; }

RT_INL i64 rt_gbase(i64 id) {
  i64 b = g_gbase[id];
  if (b < 0) rt_trap("no storage for global tag '%s'", g_tagname[id]);
  return b;
}

static void rt_check_ts(i64 base, const u64 *ts, const char *op, const char *pps) {
  obj *o = rt_find(base);
  i64 id = o->tag;
  int member = id >= 0 && id < NTS_BITS && ((ts[id >> 6] >> (id & 63)) & 1);
  if (!member)
    rt_trap("tag-set violation in %s: object '%s' not in static tag set %s",
            op, g_tagname[id], pps);
}

/* ---- value operators (coercions evaluate right-to-left) --------- */

RT_INL i64 rt_as_int(val v) {
  if (v.k == K_INT) return v.a;
  if (v.k == K_UNDEF) rt_trap("use of an undefined value as an integer");
  { char s[192]; rt_val_str(s, sizeof s, v);
    rt_trap("expected an integer, got %s", s); }
}

RT_INL double rt_as_flt(val v) {
  if (v.k == K_FLT) return v.f;
  if (v.k == K_UNDEF) rt_trap("use of an undefined value as a float");
  { char s[192]; rt_val_str(s, sizeof s, v);
    rt_trap("expected a float, got %s", s); }
}

RT_INL int rt_truthy(val v) {
  if (v.k == K_INT) return v.a != 0;
  if (v.k == K_PTR) return 1;
  if (v.k == K_UNDEF) rt_trap("branch on an undefined value");
  { char s[192]; rt_val_str(s, sizeof s, v);
    rt_trap("branch on a non-integer value %s", s); }
}

RT_INL val rt_add(val a, val b) {
  if (a.k == K_PTR && b.k == K_INT)
    return vptr(a.a, norm63((i64)((u64)a.b + (u64)b.a)));
  if (a.k == K_INT && b.k == K_PTR)
    return vptr(b.a, norm63((i64)((u64)b.b + (u64)a.a)));
  { i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
    return vint(norm63((i64)((u64)ya + (u64)yb))); }
}

RT_INL val rt_sub(val a, val b) {
  if (a.k == K_PTR && b.k == K_INT)
    return vptr(a.a, norm63((i64)((u64)a.b - (u64)b.a)));
  if (a.k == K_PTR && b.k == K_PTR) {
    if (a.a == b.a) return vint(norm63((i64)((u64)a.b - (u64)b.b)));
    rt_trap("subtraction of pointers into different objects");
  }
  { i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
    return vint(norm63((i64)((u64)ya - (u64)yb))); }
}

RT_INL val rt_mul(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
  return vint(norm63((i64)((u64)ya * (u64)yb)));
}

RT_INL val rt_div(val a, val b) {
  i64 d = rt_as_int(b);
  if (d == 0) rt_trap("integer division by zero");
  { i64 ya = rt_as_int(a); return vint(norm63(ya / d)); }
}

RT_INL val rt_rem(val a, val b) {
  i64 d = rt_as_int(b);
  if (d == 0) rt_trap("integer remainder by zero");
  { i64 ya = rt_as_int(a); return vint(norm63(ya % d)); }
}

/* OCaml lsl/asr on x86-64: the shift count is masked to 6 bits. */
RT_INL val rt_shl(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
  return vint(norm63((i64)((u64)ya << ((u64)yb & 63))));
}
RT_INL val rt_shr(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
  return vint(ya >> ((u64)yb & 63));
}
RT_INL val rt_band(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a); return vint(ya & yb);
}
RT_INL val rt_bor(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a); return vint(ya | yb);
}
RT_INL val rt_bxor(val a, val b) {
  i64 yb = rt_as_int(b); i64 ya = rt_as_int(a); return vint(ya ^ yb);
}

RT_INL val rt_icmp(val a, val b, int op) {
  static const char *names[] = { "<", "<=", ">", ">=" };
  if (a.k == K_PTR || b.k == K_PTR) {
    if (a.k == K_PTR && b.k == K_PTR) {
      if (a.a == b.a) {
        i64 x = a.b, y = b.b;
        switch (op) {
        case 0: return vint(x < y);
        case 1: return vint(x <= y);
        case 2: return vint(x > y);
        default: return vint(x >= y);
        }
      }
      rt_trap("%s on pointers into different objects", names[op]);
    }
    rt_trap("invalid pointer comparison under %s", names[op]);
  }
  { i64 yb = rt_as_int(b); i64 ya = rt_as_int(a);
    switch (op) {
    case 0: return vint(ya < yb);
    case 1: return vint(ya <= yb);
    case 2: return vint(ya > yb);
    default: return vint(ya >= yb);
    } }
}

RT_INL int rt_ptr_eq(val a, val b) {
  if (a.k == K_PTR && b.k == K_PTR) return a.a == b.a && a.b == b.b;
  if ((a.k == K_PTR && b.k == K_INT && b.a == 0)
      || (a.k == K_INT && a.a == 0 && b.k == K_PTR)) return 0;
  if (a.k == K_FUN && b.k == K_FUN) return a.a == b.a;
  if ((a.k == K_FUN && b.k == K_INT && b.a == 0)
      || (a.k == K_INT && a.a == 0 && b.k == K_FUN)) return 0;
  { char s1[192], s2[192];
    rt_val_str(s1, sizeof s1, a); rt_val_str(s2, sizeof s2, b);
    rt_trap("invalid pointer comparison %s == %s", s1, s2); }
}

RT_INL val rt_eq(val a, val b) {
  if (a.k == K_PTR || a.k == K_FUN || b.k == K_PTR || b.k == K_FUN)
    return vint(rt_ptr_eq(a, b));
  { i64 yb = rt_as_int(b); i64 ya = rt_as_int(a); return vint(ya == yb); }
}
RT_INL val rt_ne(val a, val b) {
  if (a.k == K_PTR || a.k == K_FUN || b.k == K_PTR || b.k == K_FUN)
    return vint(!rt_ptr_eq(a, b));
  { i64 yb = rt_as_int(b); i64 ya = rt_as_int(a); return vint(ya != yb); }
}

RT_INL val rt_fadd(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vflt(fa + fb);
}
RT_INL val rt_fsub(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vflt(fa - fb);
}
RT_INL val rt_fmul(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vflt(fa * fb);
}
RT_INL val rt_fdiv(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vflt(fa / fb);
}
RT_INL val rt_flt(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa < fb);
}
RT_INL val rt_fle(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa <= fb);
}
RT_INL val rt_fgt(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa > fb);
}
RT_INL val rt_fge(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa >= fb);
}
RT_INL val rt_feq(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa == fb);
}
RT_INL val rt_fne(val a, val b) {
  double fb = rt_as_flt(b); double fa = rt_as_flt(a); return vint(fa != fb);
}

RT_INL val rt_neg(val v) {
  return vint(norm63((i64)(0ULL - (u64)rt_as_int(v))));
}
RT_INL val rt_fneg(val v) { return vflt(-rt_as_flt(v)); }
RT_INL val rt_lnot(val v) { return vint(!rt_truthy(v)); }
RT_INL val rt_bnot(val v) { return vint(norm63(~rt_as_int(v))); }
RT_INL val rt_i2f(val v) { return vflt((double)rt_as_int(v)); }

/* int_of_float on x86-64: cvttsd2si's INT64_MIN on overflow/NaN, then the
   OCaml tag drops bit 63 — i.e. norm63 of the truncation result. */
RT_INL val rt_f2i(val v) {
  double d = rt_as_flt(v);
  i64 x;
  if (d != d || d >= 9223372036854775808.0 || d < -9223372036854775808.0)
    x = (i64)(-9223372036854775807LL - 1);
  else x = (i64)d;
  return vint(norm63(x));
}

#define TICK(fi) do { g_ops++; g_fops[fi]++; \
  if (__builtin_expect(g_ops > g_fuel, 0)) rt_limit("fuel", g_fuel); \
  if (__builtin_expect((g_ops & 4095) == 0, 0) && g_has_deadline \
      && rt_now() - g_t0 > g_budget) rt_limit("stop", g_ops); } while (0)
#define CLOAD(fi) (g_loads++, g_floads[fi]++)
#define CSTORE(fi) (g_stores++, g_fstores[fi]++)
|}

let trailer_runtime =
  {|
static void rt_trailer(const char *status, const char *msg, const val *ret) {
  fflush(stdout);
  FILE *t = fopen(g_trailer_path, "w");
  if (!t) _exit(9);
  fprintf(t, "rpcc-native/1\n");
  fprintf(t, "status %s\n", status);
  if (msg) fprintf(t, "msg %s\n", msg);
  if (ret) {
    switch (ret->k) {
    case K_INT: fprintf(t, "ret int %lld\n", ret->a); break;
    case K_FLT: { u64 b; memcpy(&b, &ret->f, 8);
      fprintf(t, "ret flt %016llx\n", b); } break;
    case K_PTR: fprintf(t, "ret ptr %lld %lld\n", ret->a, ret->b); break;
    case K_FUN: fprintf(t, "ret fun %s\n", g_funname[ret->a]); break;
    default: fprintf(t, "ret undef\n"); break;
    }
  }
  fprintf(t, "checksum %lld\n", g_checksum);
  fprintf(t, "ops %lld\n", g_ops);
  fprintf(t, "loads %lld\n", g_loads);
  fprintf(t, "stores %lld\n", g_stores);
  fprintf(t, "outlen %lld\n", g_outlen);
  fprintf(t, "elapsed_ns %lld\n", (i64)((rt_now() - g_t0) * 1e9));
  for (int i = 0; i < NFUNCS; i++)
    fprintf(t, "func %lld %lld %lld %s\n",
            g_fops[i], g_floads[i], g_fstores[i], g_irname[i]);
  fprintf(t, "end\n");
  fflush(t);
  fclose(t);
}
|}

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

(** The C body of builtin case [name]; must cover every name in
    {!Rp_minic.Builtins.signatures} so divergence from the interpreter's
    builtin table is an emit-time failure, never a silent difference. *)
let builtin_case name =
  match name with
  | "malloc" ->
    {|    if (nargs != 1) break;
    { i64 size = rt_as_int(args[0]);
      if (size < 0) rt_trap("malloc of negative size %lld", size);
      { i64 b = rt_alloc(rt_site_tag(site), size);
        obj *o = &g_objs[b - 1];
        for (i64 i = 0; i < o->size; i++) o->cells[i] = vint(0);
        return vptr(b, 0); } }|}
  | "free" ->
    {|    if (nargs != 1) break;
    { val v = args[0];
      if (v.k == K_PTR && v.b == 0) { rt_free(v.a); return vundef(); }
      if (v.k == K_INT && v.a == 0) return vundef();
      { char s[192]; rt_val_str(s, sizeof s, v);
        rt_trap("free of a non-base pointer %s", s); } }|}
  | "print_int" ->
    {|    if (nargs != 1) break;
    { char b[32]; int n = snprintf(b, sizeof b, "%lld", rt_as_int(args[0]));
      rt_emit(b, (size_t)n); rt_emit("\n", 1); return vundef(); }|}
  | "print_float" ->
    {|    if (nargs != 1) break;
    { char b[48]; int n = snprintf(b, sizeof b, "%.6g", rt_as_flt(args[0]));
      rt_emit(b, (size_t)n); rt_emit("\n", 1); return vundef(); }|}
  | "print_char" ->
    {|    if (nargs != 1) break;
    { char c = (char)(rt_as_int(args[0]) & 0xff);
      rt_emit(&c, 1); return vundef(); }|}
  | "rand" ->
    {|    if (nargs != 0) break;
    g_rng = (i64)(((u64)g_rng * 1103515245ULL + 12345ULL) & 0x3FFFFFFFULL);
    return vint((g_rng >> 8) & 0x7FFF);|}
  | "srand" ->
    {|    if (nargs != 1) break;
    g_rng = rt_as_int(args[0]) & 0x3FFFFFFF;
    return vundef();|}
  | "pow" ->
    {|    if (nargs != 2) break;
    { double y = rt_as_flt(args[1]); double x = rt_as_flt(args[0]);
      return vflt(pow(x, y)); }|}
  | "sqrt" -> "    if (nargs != 1) break;\n    return vflt(sqrt(rt_as_flt(args[0])));"
  | "sin" -> "    if (nargs != 1) break;\n    return vflt(sin(rt_as_flt(args[0])));"
  | "cos" -> "    if (nargs != 1) break;\n    return vflt(cos(rt_as_flt(args[0])));"
  | "exp" -> "    if (nargs != 1) break;\n    return vflt(exp(rt_as_flt(args[0])));"
  | "log" -> "    if (nargs != 1) break;\n    return vflt(log(rt_as_flt(args[0])));"
  | "fabs" -> "    if (nargs != 1) break;\n    return vflt(fabs(rt_as_flt(args[0])));"
  | "abs" ->
    {|    if (nargs != 1) break;
    { i64 n = rt_as_int(args[0]);
      return vint(n < 0 ? norm63((i64)(0ULL - (u64)n)) : n); }|}
  | n -> failwith ("Cgen: builtin without a C body: " ^ n)

let builtin_names = List.map fst Rp_minic.Builtins.signatures

let builtin_id name =
  let rec find i = function
    | [] -> failwith ("Cgen: unknown builtin " ^ name)
    | n :: _ when n = name -> i
    | _ :: tl -> find (i + 1) tl
  in
  find 0 builtin_names

let emit_builtins buf =
  bpf buf "static const char *g_bname[] = {";
  List.iter (fun n -> bpf buf " \"%s\"," (c_escape n)) builtin_names;
  bpf buf " };\n\n";
  bpf buf "static val rt_builtin(int bid, i64 site, i64 nargs, val *args) {\n";
  bpf buf "  (void)site; (void)args;\n";
  bpf buf "  switch (bid) {\n";
  List.iteri
    (fun i n -> bpf buf "  case %d: /* %s */\n%s\n    break;\n" i n
        (builtin_case n))
    builtin_names;
  bpf buf "  default: break;\n  }\n";
  bpf buf
    "  rt_trap(\"bad builtin call: %%s/%%lld\", g_bname[bid], nargs);\n}\n\n"

(* ------------------------------------------------------------------ *)
(* Function bodies                                                     *)
(* ------------------------------------------------------------------ *)

let fname (g : P.dfunc) = mangle g.P.didx g.P.dname

let goto_code (_g : P.dfunc) l =
  if l >= 0 then Printf.sprintf "goto L%d;" l
  else Printf.sprintf "goto BAD%d;" (-1 - l)

(** Base expression for a resolved scalar operand, or the trap statement
    the interpreter would raise on first execution. *)
let base_of ctx = function
  | P.Rframe i -> Ok (Printf.sprintf "fr%d" i)
  | P.Rglobal (t : Tag.t) ->
    ignore ctx;
    Ok (Printf.sprintf "rt_gbase(%d)" t.Tag.id)
  | P.Rnoframe (t : Tag.t) ->
    Error
      (Printf.sprintf "rt_trap(\"no frame storage for tag '%%s'\", \"%s\");"
         (c_escape t.Tag.name))
  | P.Rheap (t : Tag.t) ->
    Error
      (Printf.sprintf "rt_trap(\"direct access to heap tag '%%s'\", \"%s\");"
         (c_escape t.Tag.name))

let binop_fn : Instr.binop -> string = function
  | Instr.Add -> "rt_add"
  | Instr.Sub -> "rt_sub"
  | Instr.Mul -> "rt_mul"
  | Instr.Div -> "rt_div"
  | Instr.Rem -> "rt_rem"
  | Instr.Shl -> "rt_shl"
  | Instr.Shr -> "rt_shr"
  | Instr.Band -> "rt_band"
  | Instr.Bor -> "rt_bor"
  | Instr.Bxor -> "rt_bxor"
  | Instr.Lt -> "RT_LT"
  | Instr.Le -> "RT_LE"
  | Instr.Gt -> "RT_GT"
  | Instr.Ge -> "RT_GE"
  | Instr.Eq -> "rt_eq"
  | Instr.Ne -> "rt_ne"
  | Instr.Fadd -> "rt_fadd"
  | Instr.Fsub -> "rt_fsub"
  | Instr.Fmul -> "rt_fmul"
  | Instr.Fdiv -> "rt_fdiv"
  | Instr.Flt -> "rt_flt"
  | Instr.Fle -> "rt_fle"
  | Instr.Fgt -> "rt_fgt"
  | Instr.Fge -> "rt_fge"
  | Instr.Feq -> "rt_feq"
  | Instr.Fne -> "rt_fne"

let unop_fn : Instr.unop -> string = function
  | Instr.Neg -> "rt_neg"
  | Instr.Lnot -> "rt_lnot"
  | Instr.Bnot -> "rt_bnot"
  | Instr.Fneg -> "rt_fneg"
  | Instr.I2f -> "rt_i2f"
  | Instr.F2i -> "rt_f2i"

let emit_call ctx buf fi (c : P.dcall) =
  ignore fi;
  let n = Array.length c.P.cargs in
  bpf buf "  { ";
  if n > 0 then begin
    bpf buf "val ca[%d]; " n;
    Array.iteri (fun i r -> bpf buf "ca[%d] = r%d; " i r) c.P.cargs
  end
  else bpf buf "val *ca = 0; ";
  bpf buf "val rv; ";
  (match c.P.ctarget with
  | P.Dslot g -> bpf buf "rv = %s(%d, ca); " (fname g) n
  | P.Dbuiltin name ->
    bpf buf "rv = rt_builtin(%d, %d, %d, ca); " (builtin_id name) c.P.csite n
  | P.Dunknown name ->
    bpf buf
      "rv = vundef(); (void)ca; rt_trap(\"call to unknown function '%%s'\", \
       \"%s\"); "
      (c_escape name)
  | P.Dindirect r ->
    bpf buf
      "if (r%d.k == K_FUN) rv = rt_call_name(r%d.a, %d, %d, ca); else { rv \
       = vundef(); rt_badcall(r%d); } "
      r r c.P.csite n r);
  (if c.P.cret >= 0 then bpf buf "r%d = rv; " c.P.cret
   else bpf buf "(void)rv; ");
  ignore ctx;
  bpf buf "}\n"

let emit_instr ctx buf fi (i : P.dinstr) =
  bpf buf "  TICK(%d);\n" fi;
  match i with
  | P.Dloadi (d, V.Vint n) -> bpf buf "  r%d = vint(%LdLL);\n" d (Int64.of_int n)
  | P.Dloadi (d, V.Vflt f) ->
    bpf buf "  r%d = vflt(rt_bits(0x%LxULL));\n" d (Int64.bits_of_float f)
  | P.Dloadi _ -> failwith "Cgen: non-constant Dloadi"
  | P.Dloada (d, tr) -> (
    match base_of ctx tr with
    | Ok e -> bpf buf "  r%d = vptr(%s, 0);\n" d e
    | Error trap -> bpf buf "  %s\n" trap)
  | P.Dloadfp (d, n) -> bpf buf "  r%d = vfun(%d);\n" d (intern_fun ctx n)
  | P.Dunop (op, d, s) -> bpf buf "  r%d = %s(r%d);\n" d (unop_fn op) s
  | P.Dbinop (op, d, s1, s2) -> (
    match binop_fn op with
    | "RT_LT" -> bpf buf "  r%d = rt_icmp(r%d, r%d, 0);\n" d s1 s2
    | "RT_LE" -> bpf buf "  r%d = rt_icmp(r%d, r%d, 1);\n" d s1 s2
    | "RT_GT" -> bpf buf "  r%d = rt_icmp(r%d, r%d, 2);\n" d s1 s2
    | "RT_GE" -> bpf buf "  r%d = rt_icmp(r%d, r%d, 3);\n" d s1 s2
    | fn -> bpf buf "  r%d = %s(r%d, r%d);\n" d fn s1 s2)
  | P.Dcopy (d, s) -> bpf buf "  r%d = r%d;\n" d s
  | P.Dload_tag (d, tr) -> (
    bpf buf "  CLOAD(%d);\n" fi;
    match base_of ctx tr with
    | Ok e -> bpf buf "  r%d = rt_load(%s, 0);\n" d e
    | Error trap -> bpf buf "  %s\n" trap)
  | P.Dstore_tag (tr, s) -> (
    bpf buf "  CSTORE(%d);\n" fi;
    match base_of ctx tr with
    | Ok e -> bpf buf "  rt_store(%s, 0, r%d);\n" e s
    | Error trap -> bpf buf "  %s\n" trap)
  | P.Dloadg (d, a, ts) ->
    bpf buf "  CLOAD(%d);\n" fi;
    bpf buf "  if (r%d.k == K_PTR) { " a;
    if not (Tagset.is_univ ts) then
      bpf buf "rt_check_ts(r%d.a, ts_%d, \"Load\", ts_pp_%d); " a
        (tagset_id ctx ts) (tagset_id ctx ts);
    bpf buf "r%d = rt_load(r%d.a, r%d.b); } else rt_badload(r%d);\n" d a a a
  | P.Dstoreg (a, s, ts) ->
    bpf buf "  CSTORE(%d);\n" fi;
    bpf buf "  if (r%d.k == K_PTR) { " a;
    if not (Tagset.is_univ ts) then
      bpf buf "rt_check_ts(r%d.a, ts_%d, \"Store\", ts_pp_%d); " a
        (tagset_id ctx ts) (tagset_id ctx ts);
    bpf buf "rt_store(r%d.a, r%d.b, r%d); } else rt_badstore(r%d);\n" a a s a
  | P.Dcall c -> emit_call ctx buf fi c
  | P.Dtrap msg -> bpf buf "  rt_trap(\"%%s\", \"%s\");\n" (c_escape msg)

let emit_func ctx buf (g : P.dfunc) =
  let fi = g.P.didx in
  bpf buf "static val %s(i64 nargs, val *args) {\n" (fname g);
  bpf buf "  (void)args;\n";
  bpf buf "  if (++g_depth > g_maxdepth) rt_limit(\"depth\", g_maxdepth);\n";
  bpf buf "  if (nargs != %d) rt_trap(\"arity mismatch calling %%s\", \"%s\");\n"
    g.P.darity (c_escape g.P.dname);
  for r = 0 to g.P.dnreg - 1 do
    bpf buf "  val r%d = vundef(); (void)r%d;\n" r r
  done;
  Array.iteri (fun i p -> bpf buf "  r%d = args[%d];\n" p i) g.P.dparams;
  Array.iteri
    (fun i (t : Tag.t) ->
      bpf buf "  i64 fr%d = rt_alloc(%d, %d); (void)fr%d;\n" i t.Tag.id
        t.Tag.size i)
    g.P.dlocals;
  bpf buf "  val rret = vundef();\n";
  bpf buf "  %s\n" (goto_code g g.P.dentry);
  Array.iteri
    (fun bi (b : P.dblock) ->
      bpf buf "L%d:\n" bi;
      Array.iter (emit_instr ctx buf fi) b.P.dinstrs;
      bpf buf "  TICK(%d);\n" fi;
      match b.P.dterm with
      | P.Djump l -> bpf buf "  %s\n" (goto_code g l)
      | P.Dcbr (r, a, bb) ->
        bpf buf "  if (rt_truthy(r%d)) { %s } else { %s }\n" r
          (goto_code g a) (goto_code g bb)
      | P.Dret r ->
        if r < 0 then bpf buf "  goto Lepi;\n"
        else bpf buf "  rret = r%d; goto Lepi;\n" r)
    g.P.dblocks;
  Array.iteri
    (fun i lbl ->
      bpf buf "BAD%d:\n  rt_invalid(\"%%s\", \"%s\");\n" i
        (c_escape ("Func.block: no block " ^ lbl)))
    g.P.dbad;
  bpf buf "Lepi:\n";
  Array.iteri (fun i _ -> bpf buf "  rt_release(fr%d);\n" i) g.P.dlocals;
  bpf buf "  g_depth--;\n  return rret;\n}\n\n"

(* ------------------------------------------------------------------ *)
(* Whole program                                                       *)
(* ------------------------------------------------------------------ *)

let emit (prog : Program.t) : string =
  let dp = P.of_program prog in
  let ntags = Tag.Table.count prog.Program.tags in
  let ctx =
    {
      prog;
      dp;
      ntags;
      synth = [];
      nsynth = 0;
      site_tag = Hashtbl.create 32;
      fun_ids = Hashtbl.create 16;
      fun_names = [];
      nfuns = 0;
      ts_ids = Hashtbl.create 32;
      tagsets = [];
      nts = 0;
    }
  in
  scan ctx;
  let nfuncs = Array.length dp.P.dfuncs in
  let buf = Buffer.create (1 lsl 16) in
  bpf buf "/* generated by %s — do not edit */\n" version;
  Buffer.add_string buf c_header;
  (* sizes next: the fixed runtime references them *)
  bpf buf "#define NFUNCS %d\n" nfuncs;
  bpf buf "#define NTS_BITS %d\n" ntags;
  bpf buf "static i64 g_fops[%d], g_floads[%d], g_fstores[%d];\n"
    (max nfuncs 1) (max nfuncs 1) (max nfuncs 1);
  bpf buf "static i64 g_gbase[%d];\n" (max ntags 1);
  (* tag names: table order, then synthetic heap tags *)
  bpf buf "static const char *g_tagname[] = {\n";
  for id = 0 to ntags - 1 do
    bpf buf "  \"%s\",\n" (c_escape (Tag.Table.get prog.Program.tags id).Tag.name)
  done;
  List.iter
    (fun (_, n) -> bpf buf "  \"%s\",\n" (c_escape n))
    (List.rev ctx.synth);
  bpf buf "  \"\"\n};\n";
  (* per-tag heap bit, table order, for free()'s storage check *)
  bpf buf "static const unsigned char g_isheap[] = {";
  for id = 0 to ntags - 1 do
    bpf buf " %d,"
      (match (Tag.Table.get prog.Program.tags id).Tag.storage with
      | Tag.Heap _ -> 1
      | _ -> 0)
  done;
  bpf buf " 0 };\n";
  (* interned function-pointer names *)
  bpf buf "static const char *g_funname[] = {\n";
  List.iter (fun n -> bpf buf "  \"%s\",\n" (c_escape n)) (List.rev ctx.fun_names);
  bpf buf "  \"\"\n};\n";
  (* IR function names, didx order, for the trailer *)
  bpf buf "static const char *g_irname[] = {\n";
  Array.iter
    (fun (g : P.dfunc) -> bpf buf "  \"%s\",\n" (c_escape g.P.dname))
    dp.P.dfuncs;
  bpf buf "  \"\"\n};\n";
  (* call-site -> heap tag id *)
  let sites = Hashtbl.fold (fun s id acc -> (s, id) :: acc) ctx.site_tag [] in
  let max_site = List.fold_left (fun m (s, _) -> max m s) (-1) sites in
  bpf buf "static const i64 g_site_tag[] = {";
  for s = 0 to max_site do
    bpf buf " %dLL,"
      (match List.assoc_opt s sites with Some id -> id | None -> -1)
  done;
  bpf buf " -1LL };\n";
  bpf buf
    "static i64 rt_site_tag(i64 s) {\n\
    \  if (s < 0 || s > %dLL) _exit(9);\n\
    \  { i64 id = g_site_tag[s]; if (id < 0) _exit(9); return id; }\n}\n\n"
    max_site;
  Buffer.add_string buf runtime_prelude;
  Buffer.add_string buf trailer_runtime;
  (* tag-set bitsets + their pretty-printed forms for violation messages *)
  let words = max 1 ((ntags + 63) / 64) in
  List.iteri
    (fun i (ids, pps) ->
      let w = Array.make words 0L in
      List.iter
        (fun id ->
          if id >= 0 && id < ntags then
            w.(id / 64) <-
              Int64.logor w.(id / 64) (Int64.shift_left 1L (id mod 64)))
        ids;
      bpf buf "static const u64 ts_%d[%d] = {" i words;
      Array.iter (fun x -> bpf buf " 0x%LxULL," x) w;
      bpf buf " };\n";
      bpf buf "static const char *ts_pp_%d = \"%s\";\n" i (c_escape pps))
    (List.rev ctx.tagsets);
  Buffer.add_char buf '\n';
  (* forward declarations, then builtins, then indirect dispatch *)
  Array.iter
    (fun (g : P.dfunc) ->
      bpf buf "static val %s(i64 nargs, val *args);\n" (fname g))
    dp.P.dfuncs;
  Buffer.add_char buf '\n';
  emit_builtins buf;
  bpf buf "static val rt_call_name(i64 fid, i64 site, i64 nargs, val *args) {\n";
  bpf buf "  (void)site;\n  switch (fid) {\n";
  List.iteri
    (fun id n ->
      match Hashtbl.find_opt dp.P.by_name n with
      | Some g -> bpf buf "  case %d: return %s(nargs, args);\n" id (fname g)
      | None ->
        if Rp_minic.Builtins.is_builtin n then
          bpf buf "  case %d: return rt_builtin(%d, site, nargs, args);\n" id
            (builtin_id n))
    (List.rev ctx.fun_names);
  bpf buf "  default: break;\n  }\n";
  bpf buf "  rt_trap(\"call to unknown function '%%s'\", g_funname[fid]);\n}\n\n";
  (* function bodies *)
  Array.iter (emit_func ctx buf) dp.P.dfuncs;
  (* main: argv = trailer fuel maxdepth budget *)
  bpf buf "int main(int argc, char **argv) {\n";
  bpf buf "  if (argc != 5) { fprintf(stderr, \"bad argv\\n\"); return 9; }\n";
  (* deep IR recursion lives on the C stack (the interpreter's frames
     lived on the OCaml heap), so lift the soft stack limit up front *)
  bpf buf
    "  { struct rlimit rl;\n\
    \    if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != rl.rlim_max)\n\
    \      { rl.rlim_cur = rl.rlim_max; setrlimit(RLIMIT_STACK, &rl); } }\n";
  bpf buf "  g_trailer_path = argv[1];\n";
  bpf buf "  g_fuel = strtoll(argv[2], 0, 10);\n";
  bpf buf "  g_maxdepth = strtoll(argv[3], 0, 10);\n";
  bpf buf "  g_budget = strtod(argv[4], 0);\n";
  bpf buf "  g_has_deadline = g_budget > 0;\n";
  bpf buf "  g_t0 = rt_now();\n";
  bpf buf "  setvbuf(stdout, g_obuf, _IOFBF, sizeof g_obuf);\n";
  bpf buf "  for (int i = 0; i < %d; i++) g_gbase[i] = -1;\n" (max ntags 1);
  (* globals: allocation order defines base numbering; init stores are
     direct cell writes, uncounted, exactly like Interp.run's prologue *)
  List.iter
    (fun ((t : Tag.t), init) ->
      bpf buf "  { i64 b = rt_alloc(%d, %d); obj *o = &g_objs[b - 1]; (void)o;\n"
        t.Tag.id t.Tag.size;
      bpf buf "    g_gbase[%d] = b;\n" t.Tag.id;
      (match init with
      | Program.Init_zero (Instr.Cint n) ->
        bpf buf "    for (i64 i = 0; i < %dLL; i++) o->cells[i] = vint(%LdLL);\n"
          t.Tag.size (Int64.of_int n)
      | Program.Init_zero (Instr.Cflt f) ->
        bpf buf
          "    for (i64 i = 0; i < %dLL; i++) o->cells[i] = \
           vflt(rt_bits(0x%LxULL));\n"
          t.Tag.size (Int64.bits_of_float f)
      | Program.Init_words ws ->
        let size = max t.Tag.size 0 in
        List.iteri
          (fun i c ->
            if i < size then
              match c with
              | Instr.Cint n ->
                bpf buf "    o->cells[%d] = vint(%LdLL);\n" i (Int64.of_int n)
              | Instr.Cflt f ->
                bpf buf "    o->cells[%d] = vflt(rt_bits(0x%LxULL));\n" i
                  (Int64.bits_of_float f)
            else if i = size then
              (* faithful to Array.set out of bounds in Memory.init_words *)
              bpf buf "    rt_invalid(\"%%s\", \"index out of bounds\");\n")
          ws);
      bpf buf "  }\n")
    prog.Program.globals;
  (match dp.P.dmain with
  | Some g ->
    bpf buf "  { val r = %s(0, (val *)0);\n" (fname g);
    bpf buf "    rt_trailer(\"ok\", 0, &r); }\n"
  | None ->
    bpf buf "  rt_invalid(\"%%s\", \"%s\");\n"
      (c_escape ("Program.func: no function " ^ dp.P.dmain_name)));
  bpf buf "  return 0;\n}\n";
  Buffer.contents buf
