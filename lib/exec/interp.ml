(** The instrumented IL interpreter.

    Executes a whole program from [main], producing its output, an output
    checksum, and dynamic operation counts — "each version was instrumented
    to record the total number of operations executed, stores executed, and
    loads executed" (§5).  Counts are kept for the whole program and per
    function.

    Classification (DESIGN.md §6): every executed instruction and terminator
    is one operation; loads are cLoad/sLoad/Load; stores are sStore/Store;
    iLoad and address materialization are plain operations.

    With [check_tags] enabled (the default), every pointer-based access is
    dynamically checked against its static tag set: the tag naming the
    object actually touched must belong to the operation's tag set.  This
    turns every program run into a soundness test for the MOD/REF and
    points-to analyses.

    The execution core runs on {!Precomp}'s dense form — blocks as a
    label-indexed array, instructions as arrays, calls resolved to callee
    slots with precomputed arities — compiled once at the start of each
    run, so the hot loop performs no hashtable probes and no list
    traversals.  Counts, output, and trap behaviour are bit-identical to
    the original list-walking interpreter. *)

open Rp_ir
module P = Precomp

type counts = {
  mutable ops : int;
  mutable loads : int;
  mutable stores : int;
}

let zero_counts () = { ops = 0; loads = 0; stores = 0 }

let add_counts a b =
  a.ops <- a.ops + b.ops;
  a.loads <- a.loads + b.loads;
  a.stores <- a.stores + b.stores

type result = {
  ret : Value.t;  (** main's return value *)
  output : string;
  checksum : int;  (** FNV-1a over the output bytes *)
  total : counts;
  per_func : (string * counts) list;  (** sorted by function name *)
}

exception Error = Value.Runtime_error

exception Resource_limit of string
(** Fuel exhaustion or call-stack overflow: the program exceeded an
    interpreter resource limit rather than performing an erroneous
    operation.  Kept distinct from {!Error} so drivers can report it with
    its own exit code and translation-validation oracles can treat a
    bounded run as inconclusive instead of a miscompile. *)

let resource_limit fmt = Fmt.kstr (fun s -> raise (Resource_limit s)) fmt

(* The prefix of every cooperative-abort message: this interpreter's, the
   native backend's compiled-in copy, and the daemon's fuzz-batch stop *)
let is_external_stop m = String.starts_with ~prefix:"external stop" m

type state = {
  prog : Program.t;
  dprog : P.dprog;
  mem : Memory.t;
  gbase : int array;  (** tag id -> base for globals; -1 = no storage *)
  mutable rng : int;
  out : Buffer.t;
  mutable checksum : int;
  total : counts;
  fcounts : counts array;  (** per-function counts, indexed by [didx] *)
  fuel : int;
  check_tags : bool;
  max_depth : int;
  mutable depth : int;
  should_stop : unit -> bool;
      (** polled every 4096 operations; [true] aborts the run with
          {!Resource_limit} (wall-clock budgets for fuzz reducers) *)
}

let fnv_byte cs b = (cs lxor b) * 16777619 land 0x3FFFFFFFFFFFFFF

let emit_str st s =
  Buffer.add_string st.out s;
  String.iter (fun c -> st.checksum <- fnv_byte st.checksum (Char.code c)) s

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let call_builtin st name (args : Value.t list) site : Value.t =
  match (name, args) with
  | "malloc", [ n ] ->
    let size = Value.as_int n in
    if size < 0 then Value.error "malloc of negative size %d" size;
    let tag = Program.heap_tag st.prog site in
    Value.Vptr (Memory.alloc st.mem ~tag ~size ~fill:(Value.Vint 0), 0)
  | "free", [ Value.Vptr (b, 0) ] ->
    Memory.free st.mem b;
    Value.Vundef
  | "free", [ Value.Vint 0 ] -> Value.Vundef
  | "free", [ v ] -> Value.error "free of a non-base pointer %a" Value.pp v
  | "print_int", [ v ] ->
    emit_str st (string_of_int (Value.as_int v));
    emit_str st "\n";
    Value.Vundef
  | "print_float", [ v ] ->
    emit_str st (Printf.sprintf "%.6g" (Value.as_flt v));
    emit_str st "\n";
    Value.Vundef
  | "print_char", [ v ] ->
    emit_str st (String.make 1 (Char.chr (Value.as_int v land 0xff)));
    Value.Vundef
  | "rand", [] ->
    st.rng <- (st.rng * 1103515245) + 12345;
    st.rng <- st.rng land 0x3FFFFFFF;
    Value.Vint ((st.rng lsr 8) land 0x7FFF)
  | "srand", [ v ] ->
    st.rng <- Value.as_int v land 0x3FFFFFFF;
    Value.Vundef
  | "pow", [ a; b ] -> Value.Vflt (Float.pow (Value.as_flt a) (Value.as_flt b))
  | "sqrt", [ a ] -> Value.Vflt (sqrt (Value.as_flt a))
  | "sin", [ a ] -> Value.Vflt (sin (Value.as_flt a))
  | "cos", [ a ] -> Value.Vflt (cos (Value.as_flt a))
  | "exp", [ a ] -> Value.Vflt (exp (Value.as_flt a))
  | "log", [ a ] -> Value.Vflt (log (Value.as_flt a))
  | "fabs", [ a ] -> Value.Vflt (Float.abs (Value.as_flt a))
  | "abs", [ a ] -> Value.Vint (abs (Value.as_int a))
  | _ ->
    Value.error "bad builtin call: %s/%d" name (List.length args)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(** Resolve the base of a scalar memory operand in the current frame. *)
let tag_base st (frame : int array) (tr : P.tagref) =
  match tr with
  | P.Rframe i -> Array.unsafe_get frame i
  | P.Rglobal t ->
    let id = t.Tag.id in
    let b = if id < Array.length st.gbase then st.gbase.(id) else -1 in
    if b >= 0 then b
    else Value.error "no storage for global tag '%s'" t.Tag.name
  | P.Rnoframe t -> Value.error "no frame storage for tag '%s'" t.Tag.name
  | P.Rheap t -> Value.error "direct access to heap tag '%s'" t.Tag.name

(** The tag set a pointer access is checked against: ⊤ (no check) when
    tag checking is off. *)
let[@inline] checked st (tags : Tagset.t) =
  if st.check_tags then tags else Tagset.univ

let[@inline] tick st (fc : counts) =
  let t = st.total in
  t.ops <- t.ops + 1;
  fc.ops <- fc.ops + 1;
  if t.ops > st.fuel then
    resource_limit "fuel exhausted (%d operations)" st.fuel;
  if t.ops land 4095 = 0 && st.should_stop () then
    resource_limit "external stop after %d operations" t.ops

let[@inline] count_load st (fc : counts) =
  st.total.loads <- st.total.loads + 1;
  fc.loads <- fc.loads + 1

let[@inline] count_store st (fc : counts) =
  st.total.stores <- st.total.stores + 1;
  fc.stores <- fc.stores + 1

(** Enter [g] with arguments taken from the caller's registers through the
    call's precompiled [int array] ([main] enters with two empty arrays).
    Order of effects matches the list interpreter exactly: depth check,
    then arity check, then frame allocation, then the block loop. *)
let rec exec_dfunc st (g : P.dfunc) (caller_regs : Value.t array)
    (dargs : int array) : Value.t =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    resource_limit "call stack overflow (max depth %d)" st.max_depth;
  if Array.length dargs <> g.P.darity then
    Value.error "arity mismatch calling %s" g.P.dname;
  let regs = Array.make g.P.dnreg Value.Vundef in
  let params = g.P.dparams in
  for i = 0 to g.P.darity - 1 do
    regs.(params.(i)) <- caller_regs.(dargs.(i))
  done;
  (* frame: one fresh object per local tag, in declaration order *)
  let nlocals = Array.length g.P.dlocals in
  let frame = Array.make nlocals 0 in
  for i = 0 to nlocals - 1 do
    let t = g.P.dlocals.(i) in
    frame.(i) <-
      Memory.alloc st.mem ~tag:t ~size:t.Tag.size ~fill:Value.Vundef
  done;
  let fc = st.fcounts.(g.P.didx) in
  let ret = run_block st g regs frame fc g.P.dentry in
  (* pop the frame: locals die here, catching dangling pointers *)
  for i = 0 to nlocals - 1 do
    Memory.release st.mem frame.(i)
  done;
  st.depth <- st.depth - 1;
  ret

and run_block st (g : P.dfunc) regs frame fc (bi : int) : Value.t =
  if bi < 0 then
    (* faithful to [Func.block] on a missing label *)
    invalid_arg ("Func.block: no block " ^ g.P.dbad.(-1 - bi));
  let b = g.P.dblocks.(bi) in
  let ins = b.P.dinstrs in
  for k = 0 to Array.length ins - 1 do
    exec_instr st regs frame fc (Array.unsafe_get ins k)
  done;
  tick st fc;
  (* terminator *)
  match b.P.dterm with
  | P.Djump l -> run_block st g regs frame fc l
  | P.Dcbr (r, a, bb) ->
    run_block st g regs frame fc (if Value.truthy regs.(r) then a else bb)
  | P.Dret r -> if r < 0 then Value.Vundef else regs.(r)

and exec_instr st (regs : Value.t array) frame fc (i : P.dinstr) : unit =
  tick st fc;
  match i with
  | P.Dloadi (d, v) -> regs.(d) <- v
  | P.Dloada (d, tr) -> regs.(d) <- Value.Vptr (tag_base st frame tr, 0)
  | P.Dloadfp (d, n) -> regs.(d) <- Value.Vfun n
  | P.Dunop (op, d, s) -> regs.(d) <- Value.unop op regs.(s)
  | P.Dbinop (op, d, s1, s2) ->
    regs.(d) <- Value.binop op regs.(s1) regs.(s2)
  | P.Dcopy (d, s) -> regs.(d) <- regs.(s)
  | P.Dload_tag (d, tr) ->
    count_load st fc;
    regs.(d) <- Memory.load st.mem Tagset.univ (tag_base st frame tr) 0
  | P.Dstore_tag (tr, s) ->
    count_store st fc;
    Memory.store st.mem Tagset.univ (tag_base st frame tr) 0 regs.(s)
  | P.Dloadg (d, a, tags) -> (
    count_load st fc;
    match regs.(a) with
    | Value.Vptr (b, o) -> regs.(d) <- Memory.load st.mem (checked st tags) b o
    | v -> Value.error "Load through non-pointer %a" Value.pp v)
  | P.Dstoreg (a, s, tags) -> (
    count_store st fc;
    match regs.(a) with
    | Value.Vptr (b, o) -> Memory.store st.mem (checked st tags) b o regs.(s)
    | v -> Value.error "Store through non-pointer %a" Value.pp v)
  | P.Dcall c -> exec_call st regs c
  | P.Dtrap msg -> raise (Value.Runtime_error msg)

and exec_call st (regs : Value.t array) (c : P.dcall) : unit =
  let rv =
    match c.P.ctarget with
    | P.Dslot g -> exec_dfunc st g regs c.P.cargs
    | P.Dbuiltin name -> call_builtin st name (argv st regs c) c.P.csite
    | P.Dunknown name -> Value.error "call to unknown function '%s'" name
    | P.Dindirect r -> (
      match regs.(r) with
      | Value.Vfun n -> (
        match Hashtbl.find_opt st.dprog.P.by_name n with
        | Some g -> exec_dfunc st g regs c.P.cargs
        | None ->
          if Rp_minic.Builtins.is_builtin n then
            call_builtin st n (argv st regs c) c.P.csite
          else Value.error "call to unknown function '%s'" n)
      | v -> Value.error "indirect call through %a" Value.pp v)
  in
  if c.P.cret >= 0 then regs.(c.P.cret) <- rv

(** Argument values for a builtin call (builtins take lists; program
    functions copy registers directly and never build this). *)
and argv _st (regs : Value.t array) (c : P.dcall) : Value.t list =
  Array.to_list (Array.map (fun r -> regs.(r)) c.P.cargs)

(** Run [main] and return outputs plus dynamic counts. *)
let run ?(fuel = 400_000_000) ?(check_tags = true) ?(max_depth = 100_000)
    ?(seed = 12345) ?(should_stop = fun () -> false) ?deadline
    (prog : Program.t) : result =
  let should_stop =
    match deadline with
    | None -> should_stop
    | Some budget ->
      let t0 = Rp_support.Clock.now () in
      fun () -> should_stop () || Rp_support.Clock.now () -. t0 > budget
  in
  let dprog = P.of_program prog in
  let st =
    {
      prog;
      dprog;
      mem = Memory.create ();
      gbase = Array.make (Tag.Table.count prog.Program.tags) (-1);
      rng = seed land 0x3FFFFFFF;
      out = Buffer.create 256;
      checksum = 0x1505;
      total = zero_counts ();
      fcounts = Array.map (fun _ -> zero_counts ()) dprog.P.dfuncs;
      fuel;
      check_tags;
      max_depth;
      depth = 0;
      should_stop;
    }
  in
  (* allocate and initialize globals *)
  List.iter
    (fun ((t : Tag.t), init) ->
      let fill, words =
        match init with
        | Program.Init_zero zero -> (Value.of_const zero, [])
        | Program.Init_words ws -> (Value.Vundef, ws)
      in
      let b = Memory.alloc st.mem ~tag:t ~size:t.Tag.size ~fill in
      if t.Tag.id < Array.length st.gbase then st.gbase.(t.Tag.id) <- b;
      Memory.init_words st.mem b words)
    st.prog.Program.globals;
  let main_df =
    match dprog.P.dmain with
    | Some g -> g
    | None -> invalid_arg ("Program.func: no function " ^ dprog.P.dmain_name)
  in
  let ret = exec_dfunc st main_df [||] [||] in
  let per_func =
    Array.to_list dprog.P.dfuncs
    |> List.filter_map (fun (g : P.dfunc) ->
           let c = st.fcounts.(g.P.didx) in
           (* a function that was entered ticked at least once *)
           if c.ops = 0 then None else Some (g.P.dname, c))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    ret;
    output = Buffer.contents st.out;
    checksum = st.checksum;
    total = st.total;
    per_func;
  }
