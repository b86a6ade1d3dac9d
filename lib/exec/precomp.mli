(** Precompiled dense program form, read by both executors (the
    interpreter's closure compiler and {!Cgen}): label-indexed block
    arrays, instruction arrays, resolved call targets with [int array]
    arguments and precomputed arities, frame-slot-resolved scalar
    operands.  Faithful to the list-walking interpreter: anything that
    only failed when executed still only fails when executed, with the
    identical exception.  See the implementation header for the full
    contract. *)

open Rp_ir

type tagref =
  | Rglobal of Tag.t
  | Rframe of int
  | Rnoframe of Tag.t
  | Rheap of Tag.t

type dtarget =
  | Dslot of dfunc
  | Dbuiltin of string
  | Dunknown of string
  | Dindirect of int

and dcall = {
  ctarget : dtarget;
  cargs : int array;
  cret : int;  (** -1 for none *)
  csite : int;
}

and dinstr =
  | Dloadi of int * Value.t
  | Dloada of int * tagref
  | Dloadfp of int * string
  | Dunop of Instr.unop * int * int
  | Dbinop of Instr.binop * int * int * int
  | Dcopy of int * int
  | Dload_tag of int * tagref
  | Dstore_tag of tagref * int
  | Dloadg of int * int * Tagset.t
  | Dstoreg of int * int * Tagset.t
  | Dcall of dcall
  | Dtrap of string

and dterm =
  | Djump of int
  | Dcbr of int * int * int
  | Dret of int  (** -1 for none *)

and dblock = { dinstrs : dinstr array; dterm : dterm }

and dfunc = {
  dname : string;
  didx : int;
  dparams : int array;
  darity : int;
  dnreg : int;
  dlocals : Tag.t array;
  mutable dentry : int;
  mutable dblocks : dblock array;
  mutable dbad : string array;
}

type dprog = {
  dfuncs : dfunc array;
  by_name : (string, dfunc) Hashtbl.t;
  dmain : dfunc option;
  dmain_name : string;
}

val of_program : Program.t -> dprog
(** Compile.  Pure. *)
