(** Runtime values of the IL interpreter.

    The machine is word-oriented and dynamically checked: using an undefined
    value in arithmetic, mixing types under an operator, or comparing
    pointers into different objects raises {!Runtime_error} instead of
    producing garbage.  The null pointer is the integer 0.

    Values are immutable and never compared by physical equality, so the
    operators return shared values where they can: the two booleans, and
    integer results in [[0, 1024)]. *)

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type t =
  | Vint of int
  | Vflt of float
  | Vptr of int * int  (** (base, word offset) *)
  | Vfun of string  (** function pointer *)
  | Vundef  (** uninitialized; may be copied/stored but not computed with *)

let pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vflt f -> Fmt.pf ppf "%g" f
  | Vptr (b, o) -> Fmt.pf ppf "<%d:+%d>" b o
  | Vfun f -> Fmt.pf ppf "@%s" f
  | Vundef -> Fmt.string ppf "undef"

let as_int = function
  | Vint n -> n
  | Vundef -> error "use of an undefined value as an integer"
  | v -> error "expected an integer, got %a" pp v

let as_flt = function
  | Vflt f -> f
  | Vundef -> error "use of an undefined value as a float"
  | v -> error "expected a float, got %a" pp v

let truthy = function
  | Vint n -> n <> 0
  | Vptr _ -> true
  | Vundef -> error "branch on an undefined value"
  | v -> error "branch on a non-integer value %a" pp v

(* both arms are constants, allocated once: a comparison allocates nothing *)
let of_bool b = if b then Vint 1 else Vint 0

let of_const = function
  | Rp_ir.Instr.Cint n -> Vint n
  | Rp_ir.Instr.Cflt f -> Vflt f

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

(* One function per operator, each trying the common int/int (or
   float/float) case first.  Every other case falls through to the
   general rule, whose checks and error messages define the semantics;
   the fast case returns what the general rule would. *)

let neg = function Vint n -> Vint (-n) | v -> Vint (-as_int v)
let fneg = function Vflt f -> Vflt (-.f) | v -> Vflt (-.as_flt v)
let lnot_ v = of_bool (not (truthy v))
let bnot = function Vint n -> Vint (lnot n) | v -> Vint (lnot (as_int v))
let i2f = function
  | Vint n -> Vflt (float_of_int n)
  | v -> Vflt (float_of_int (as_int v))

let f2i = function
  | Vflt f -> Vint (int_of_float f)
  | v -> Vint (int_of_float (as_flt v))

(** The function computing [op]: match on the operator once, then apply
    the result to every operand. *)
let unop (op : Rp_ir.Instr.unop) : t -> t =
  match op with
  | Rp_ir.Instr.Neg -> neg
  | Rp_ir.Instr.Fneg -> fneg
  | Rp_ir.Instr.Lnot -> lnot_
  | Rp_ir.Instr.Bnot -> bnot
  | Rp_ir.Instr.I2f -> i2f
  | Rp_ir.Instr.F2i -> f2i

let ptr_eq a b =
  match (a, b) with
  | Vptr (b1, o1), Vptr (b2, o2) -> b1 = b2 && o1 = o2
  | Vptr _, Vint 0 | Vint 0, Vptr _ -> false
  | Vfun f, Vfun g -> f = g
  | Vfun _, Vint 0 | Vint 0, Vfun _ -> false
  | _ -> error "invalid pointer comparison %a == %a" pp a pp b

let ptr_cmp name cmp a b =
  match (a, b) with
  | Vptr (b1, o1), Vptr (b2, o2) when b1 = b2 -> of_bool (cmp o1 o2)
  | Vptr _, Vptr _ -> error "%s on pointers into different objects" name
  | _ -> error "invalid pointer comparison under %s" name

(* an integer result in [0, 1024) comes from this table, not a fresh block *)
let small = Array.init 1024 (fun n -> Vint n)

let[@inline] of_int n =
  if n land -1024 = 0 then Array.unsafe_get small n else Vint n

let add a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x + y)
  | Vptr (ba, oa), Vint n -> Vptr (ba, oa + n)
  | Vint n, Vptr (bb, ob) -> Vptr (bb, ob + n)
  | _ -> Vint (as_int a + as_int b)

let sub a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x - y)
  | Vptr (ba, oa), Vint n -> Vptr (ba, oa - n)
  | Vptr (ba, oa), Vptr (bb, ob) ->
    if ba = bb then Vint (oa - ob)
    else error "subtraction of pointers into different objects"
  | _ -> Vint (as_int a - as_int b)

let mul a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x * y)
  | _ -> Vint (as_int a * as_int b)

let div a b =
  match (a, b) with
  | Vint x, Vint y when y <> 0 -> of_int (x / y)
  | _ ->
    let d = as_int b in
    if d = 0 then error "integer division by zero" else Vint (as_int a / d)

let rem a b =
  match (a, b) with
  | Vint x, Vint y when y <> 0 -> of_int (x mod y)
  | _ ->
    let d = as_int b in
    if d = 0 then error "integer remainder by zero" else Vint (as_int a mod d)

let shl a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x lsl y)
  | _ -> Vint (as_int a lsl as_int b)

let shr a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x asr y)
  | _ -> Vint (as_int a asr as_int b)

let band a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x land y)
  | _ -> Vint (as_int a land as_int b)

let bor a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x lor y)
  | _ -> Vint (as_int a lor as_int b)

let bxor a b =
  match (a, b) with
  | Vint x, Vint y -> of_int (x lxor y)
  | _ -> Vint (as_int a lxor as_int b)

let lt a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x < y)
  | Vptr _, _ | _, Vptr _ -> ptr_cmp "<" ( < ) a b
  | _ -> of_bool (as_int a < as_int b)

let le a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x <= y)
  | Vptr _, _ | _, Vptr _ -> ptr_cmp "<=" ( <= ) a b
  | _ -> of_bool (as_int a <= as_int b)

let gt a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x > y)
  | Vptr _, _ | _, Vptr _ -> ptr_cmp ">" ( > ) a b
  | _ -> of_bool (as_int a > as_int b)

let ge a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x >= y)
  | Vptr _, _ | _, Vptr _ -> ptr_cmp ">=" ( >= ) a b
  | _ -> of_bool (as_int a >= as_int b)

let eq a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x = y)
  | (Vptr _ | Vfun _), _ | _, (Vptr _ | Vfun _) -> of_bool (ptr_eq a b)
  | _ -> of_bool (as_int a = as_int b)

let ne a b =
  match (a, b) with
  | Vint x, Vint y -> of_bool (x <> y)
  | (Vptr _ | Vfun _), _ | _, (Vptr _ | Vfun _) -> of_bool (not (ptr_eq a b))
  | _ -> of_bool (as_int a <> as_int b)

let fadd a b =
  match (a, b) with
  | Vflt x, Vflt y -> Vflt (x +. y)
  | _ -> Vflt (as_flt a +. as_flt b)

let fsub a b =
  match (a, b) with
  | Vflt x, Vflt y -> Vflt (x -. y)
  | _ -> Vflt (as_flt a -. as_flt b)

let fmul a b =
  match (a, b) with
  | Vflt x, Vflt y -> Vflt (x *. y)
  | _ -> Vflt (as_flt a *. as_flt b)

let fdiv a b =
  match (a, b) with
  | Vflt x, Vflt y -> Vflt (x /. y)
  | _ -> Vflt (as_flt a /. as_flt b)

let flt a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x < y)
  | _ -> of_bool (as_flt a < as_flt b)

let fle a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x <= y)
  | _ -> of_bool (as_flt a <= as_flt b)

let fgt a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x > y)
  | _ -> of_bool (as_flt a > as_flt b)

let fge a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x >= y)
  | _ -> of_bool (as_flt a >= as_flt b)

let feq a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x = y)
  | _ -> of_bool (as_flt a = as_flt b)

let fne a b =
  match (a, b) with
  | Vflt x, Vflt y -> of_bool (x <> y)
  | _ -> of_bool (as_flt a <> as_flt b)

(** The function computing [op]: match on the operator once, then apply
    the result to every operand pair. *)
let binop (op : Rp_ir.Instr.binop) : t -> t -> t =
  let module I = Rp_ir.Instr in
  match op with
  | I.Add -> add
  | I.Sub -> sub
  | I.Mul -> mul
  | I.Div -> div
  | I.Rem -> rem
  | I.Shl -> shl
  | I.Shr -> shr
  | I.Band -> band
  | I.Bor -> bor
  | I.Bxor -> bxor
  | I.Lt -> lt
  | I.Le -> le
  | I.Gt -> gt
  | I.Ge -> ge
  | I.Eq -> eq
  | I.Ne -> ne
  | I.Fadd -> fadd
  | I.Fsub -> fsub
  | I.Fmul -> fmul
  | I.Fdiv -> fdiv
  | I.Flt -> flt
  | I.Fle -> fle
  | I.Fgt -> fgt
  | I.Fge -> fge
  | I.Feq -> feq
  | I.Fne -> fne
