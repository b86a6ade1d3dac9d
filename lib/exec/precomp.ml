(** The interpreter's precompiled program form.

    {!Rp_ir.Program.t} is a pass-friendly representation: blocks live in a
    label-keyed hashtable, instruction sequences are lists, call arguments
    are lists, and every branch transition or call pays a lookup.  The
    executors want the opposite trade-off, so each function is compiled
    {e once} into a dense, fully resolved form, which
    {!Rp_exec.Interp} turns into closures and {!Cgen} into C:

    - blocks become an array indexed by a precomputed label index, so a
      branch is an integer jump instead of a [Func.block] hashtable probe;
    - instruction lists become arrays (sequential access, no pointer
      chasing);
    - call argument lists become [int array]s, arities are precomputed
      (the list interpreter paid two [List.length] per call), and direct
      call targets are resolved to their callee's slot up front — which
      also gives each activation its per-function dynamic-count record
      without a hashtable probe per call;
    - constants are converted to runtime {!Value.t}s at compile time;
    - scalar memory operands are resolved to frame slots or global tags,
      so a frame access is an array index instead of a hashtable probe.

    Resolution is {e lazy-faithful}: anything the list interpreter only
    diagnosed when an instruction actually executed — a branch to a
    missing block, a reference to a tag with no storage, a phi that
    survived SSA destruction, a call to an unknown function — compiles to
    a form that raises the {e identical} exception at execution time, and
    never at compile time.  Dynamic counts, traps, and output are
    bit-identical to the list interpreter by construction.

    Every execution compiles afresh ({!Rp_exec.Interp.run} and {!Cgen}
    both call {!of_program}): a program is run once per compile, so a
    cache of compiled forms would never hit. *)

open Rp_ir

(** A scalar memory operand (sLoad/sStore/addr-of), resolved against the
    owning function's frame layout. *)
type tagref =
  | Rglobal of Tag.t  (** global storage: index the run's global-base table *)
  | Rframe of int  (** this function's frame, slot index *)
  | Rnoframe of Tag.t
      (** Local/Spill storage not in this function's frame — faithful to
          the list interpreter, this errors only if executed *)
  | Rheap of Tag.t  (** direct access to heap storage: error if executed *)

type dtarget =
  | Dslot of dfunc  (** direct call, resolved to the callee's slot *)
  | Dbuiltin of string
  | Dunknown of string  (** direct call to a name that is neither *)
  | Dindirect of int  (** call through a function pointer in this register *)

and dcall = {
  ctarget : dtarget;
  cargs : int array;
  cret : int;  (** destination register, or -1 for none *)
  csite : int;  (** call-site id (names the heap site for [malloc]) *)
}

and dinstr =
  | Dloadi of int * Value.t  (** constant pre-converted to a runtime value *)
  | Dloada of int * tagref
  | Dloadfp of int * string
  | Dunop of Instr.unop * int * int
  | Dbinop of Instr.binop * int * int * int
  | Dcopy of int * int
  | Dload_tag of int * tagref  (** Loadc and Loads: identical execution *)
  | Dstore_tag of tagref * int
  | Dloadg of int * int * Tagset.t
  | Dstoreg of int * int * Tagset.t
  | Dcall of dcall
  | Dtrap of string  (** an instruction that traps if executed (phi) *)

(** Block successors are label {e indices}: [>= 0] indexes [dblocks];
    a negative value [v] names the missing label [dbad.(-1 - v)] and
    reproduces [Func.block]'s [Invalid_argument] when the edge is taken. *)
and dterm =
  | Djump of int
  | Dcbr of int * int * int
  | Dret of int  (** returned register, or -1 for none *)

and dblock = { dinstrs : dinstr array; dterm : dterm }

and dfunc = {
  dname : string;
  didx : int;  (** slot in {!dprog.dfuncs}; indexes per-run count arrays *)
  dparams : int array;
  darity : int;
  dnreg : int;  (** register file size, >= 1 *)
  dlocals : Tag.t array;  (** frame layout: one fresh object per activation *)
  mutable dentry : int;  (** entry label index (negative if missing) *)
  mutable dblocks : dblock array;  (** filled in phase 2 (calls link here) *)
  mutable dbad : string array;
      (** missing labels, addressed by negative indices *)
}

type dprog = {
  dfuncs : dfunc array;  (** in [Program.func_order] order *)
  by_name : (string, dfunc) Hashtbl.t;
  dmain : dfunc option;  (** [None] reproduces [Program.func]'s error *)
  dmain_name : string;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile_func_shell idx (f : Func.t) : dfunc =
  {
    dname = f.Func.name;
    didx = idx;
    dparams = Array.of_list f.Func.params;
    darity = List.length f.Func.params;
    dnreg = max f.Func.nreg 1;
    dlocals = Array.of_list f.Func.local_tags;
    dentry = 0;
    dblocks = [||];
    dbad = [||];
  }

(** Compile [f]'s body into [df], in place (calls elsewhere in the program
    already hold [df] as their [Dslot]).  [lookup] resolves direct callee
    names program-wide. *)
let compile_body (lookup : string -> dtarget) (f : Func.t) (df : dfunc) : unit
    =
  (* every block the list interpreter could reach: layout order first,
     then any stragglers present in the table but missing from the order
     list (sorted by label for determinism) *)
  let labels =
    let in_order = Hashtbl.create 16 in
    List.iter (fun l -> Hashtbl.replace in_order l ()) f.Func.order;
    let extra =
      Hashtbl.fold
        (fun l _ acc -> if Hashtbl.mem in_order l then acc else l :: acc)
        f.Func.blocks []
      |> List.sort String.compare
    in
    Array.of_list (List.filter (Hashtbl.mem f.Func.blocks) f.Func.order @ extra)
  in
  let index = Hashtbl.create (Array.length labels * 2) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let bad = ref [] and nbad = ref 0 in
  let resolve_label l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
      (* executing this edge must raise exactly [Func.block]'s error *)
      bad := l :: !bad;
      incr nbad;
      - !nbad
  in
  let local_slot = Hashtbl.create 8 in
  Array.iteri
    (fun i (t : Tag.t) -> Hashtbl.replace local_slot t.Tag.id i)
    df.dlocals;
  let resolve_tag (t : Tag.t) =
    match t.Tag.storage with
    | Tag.Global -> Rglobal t
    | Tag.Local _ | Tag.Spill _ -> (
      match Hashtbl.find_opt local_slot t.Tag.id with
      | Some i -> Rframe i
      | None -> Rnoframe t)
    | Tag.Heap _ -> Rheap t
  in
  let compile_instr (i : Instr.t) : dinstr =
    match i with
    | Instr.Loadi (d, c) -> Dloadi (d, Value.of_const c)
    | Instr.Loada (d, t) -> Dloada (d, resolve_tag t)
    | Instr.Loadfp (d, n) -> Dloadfp (d, n)
    | Instr.Unop (op, d, s) -> Dunop (op, d, s)
    | Instr.Binop (op, d, s1, s2) -> Dbinop (op, d, s1, s2)
    | Instr.Copy (d, s) -> Dcopy (d, s)
    | Instr.Loadc (d, t) | Instr.Loads (d, t) -> Dload_tag (d, resolve_tag t)
    | Instr.Stores (t, s) -> Dstore_tag (resolve_tag t, s)
    | Instr.Loadg (d, a, tags) -> Dloadg (d, a, tags)
    | Instr.Storeg (a, s, tags) -> Dstoreg (a, s, tags)
    | Instr.Call c ->
      let ctarget =
        match c.Instr.target with
        | Instr.Direct n -> lookup n
        | Instr.Indirect r -> Dindirect r
      in
      Dcall
        {
          ctarget;
          cargs = Array.of_list c.Instr.args;
          cret = (match c.Instr.ret with Some r -> r | None -> -1);
          csite = c.Instr.site;
        }
    | Instr.Phi _ -> Dtrap "phi instruction reached the interpreter"
  in
  let compile_term (t : Instr.term) : dterm =
    match t with
    | Instr.Jump l -> Djump (resolve_label l)
    | Instr.Cbr (r, a, b) -> Dcbr (r, resolve_label a, resolve_label b)
    | Instr.Ret None -> Dret (-1)
    | Instr.Ret (Some r) -> Dret r
  in
  let dblocks =
    Array.map
      (fun l ->
        let b = Hashtbl.find f.Func.blocks l in
        {
          dinstrs = Array.of_list (List.map compile_instr b.Block.instrs);
          dterm = compile_term b.Block.term;
        })
      labels
  in
  df.dblocks <- dblocks;
  df.dentry <- resolve_label f.Func.entry;
  df.dbad <- Array.of_list (List.rev !bad)

(** Compile a whole program.  Pure: no caching, no mutation of [p]. *)
let of_program (p : Program.t) : dprog =
  let funcs = Program.funcs p in
  let shells = List.mapi compile_func_shell funcs in
  let by_name = Hashtbl.create (List.length shells * 2) in
  List.iter (fun df -> Hashtbl.replace by_name df.dname df) shells;
  let lookup n =
    (* same resolution order as the list interpreter: program functions
       shadow builtins; anything else errors at the call *)
    match Hashtbl.find_opt by_name n with
    | Some df -> Dslot df
    | None ->
      if Rp_minic.Builtins.is_builtin n then Dbuiltin n else Dunknown n
  in
  List.iter2 (compile_body lookup) funcs shells;
  let dfuncs = Array.of_list shells in
  {
    dfuncs;
    by_name;
    dmain = Hashtbl.find_opt by_name p.Program.main;
    dmain_name = p.Program.main;
  }
