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

    Each run compiles {!Precomp}'s dense form into OCaml closures once,
    after the globals are allocated.  Every instruction becomes a closure
    with its operator, operands, builtin, global base and tag-check setting
    fixed, so executing it dispatches on nothing.  A block's instructions
    are cut into {e segments}, each ending just after a call or at the
    block's end; the last one also carries the terminator.  A segment that
    can neither run out of fuel nor reach a 4096-operation [should_stop]
    poll is charged its ops, loads and stores in one step, up front;
    any other runs one operation at a time with the per-op tick, so fuel
    and the poll fire on exactly the operation they would if every
    operation were counted singly.  Nothing but a completed result and
    the two limit messages reads the counts, and a trap drops them (see
    DESIGN.md §6d). *)

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
  mem : Memory.t;
  mutable rng : int;
  out : Buffer.t;
  mutable checksum : int;
  total : counts;
  fuel : int;
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
(* The compiled form                                                   *)
(* ------------------------------------------------------------------ *)

type code = Value.t array -> int array -> Value.t
(** Code from some point of a function body to its return: it runs
    against an activation's registers and frame, and gives the function's
    result.  Each instruction's closure ends by tail-calling the code
    after it, so a body runs as a chain of jumps. *)

type cfunc = {
  name : string;
  arity : int;
  params : int array;
  nreg : int;
  locals : Tag.t array;  (** frame layout: one fresh object per activation *)
  fc : counts;  (** this function's counts *)
  mutable body : code;
      (** its entry block, set once every function has a record (calls
          link here) *)
}

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] tick st (fc : counts) =
  let t = st.total in
  t.ops <- t.ops + 1;
  fc.ops <- fc.ops + 1;
  if t.ops > st.fuel then
    resource_limit "fuel exhausted (%d operations)" st.fuel;
  if t.ops land 4095 = 0 && st.should_stop () then
    resource_limit "external stop after %d operations" t.ops

(** Enter [cf] with arguments taken from the caller's registers [args]
    ([main] enters with two empty arrays): depth check, then arity check,
    then frame allocation, then the body. *)
let invoke st cf (caller : Value.t array) (args : int array) : Value.t =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    resource_limit "call stack overflow (max depth %d)" st.max_depth;
  if Array.length args <> cf.arity then
    Value.error "arity mismatch calling %s" cf.name;
  let regs = Array.make cf.nreg Value.Vundef in
  let params = cf.params in
  for i = 0 to cf.arity - 1 do
    regs.(params.(i)) <- caller.(args.(i))
  done;
  (* frame: one fresh object per local tag, in declaration order *)
  let locals = cf.locals in
  let nlocals = Array.length locals in
  let frame = Array.make nlocals 0 in
  for i = 0 to nlocals - 1 do
    let t = locals.(i) in
    frame.(i) <-
      Memory.alloc st.mem ~tag:t ~size:t.Tag.size ~fill:Value.Vundef
  done;
  let ret = cf.body regs frame in
  (* pop the frame: locals die here, catching dangling pointers *)
  for i = 0 to nlocals - 1 do
    Memory.release st.mem frame.(i)
  done;
  st.depth <- st.depth - 1;
  ret

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(** A builtin resolved against its argument registers: the function
    reads the arguments, performs the call and returns its value. *)
let builtin st name site (args : int array) : Value.t array -> Value.t =
  let arity = Array.length args in
  let a0 = if arity > 0 then args.(0) else -1 in
  match (name, arity) with
  | "malloc", 1 ->
    fun regs ->
      let size = Value.as_int regs.(a0) in
      if size < 0 then Value.error "malloc of negative size %d" size;
      let tag = Program.heap_tag st.prog site in
      Value.Vptr (Memory.alloc st.mem ~tag ~size ~fill:(Value.Vint 0), 0)
  | "free", 1 -> (
    fun regs ->
      match regs.(a0) with
      | Value.Vptr (b, 0) ->
        Memory.free st.mem b;
        Value.Vundef
      | Value.Vint 0 -> Value.Vundef
      | v -> Value.error "free of a non-base pointer %a" Value.pp v)
  | "print_int", 1 ->
    fun regs ->
      emit_str st (string_of_int (Value.as_int regs.(a0)));
      emit_str st "\n";
      Value.Vundef
  | "print_float", 1 ->
    fun regs ->
      emit_str st (Printf.sprintf "%.6g" (Value.as_flt regs.(a0)));
      emit_str st "\n";
      Value.Vundef
  | "print_char", 1 ->
    fun regs ->
      emit_str st
        (String.make 1 (Char.chr (Value.as_int regs.(a0) land 0xff)));
      Value.Vundef
  | "rand", 0 ->
    fun _ ->
      st.rng <- (st.rng * 1103515245) + 12345;
      st.rng <- st.rng land 0x3FFFFFFF;
      Value.Vint ((st.rng lsr 8) land 0x7FFF)
  | "srand", 1 ->
    fun regs ->
      st.rng <- Value.as_int regs.(a0) land 0x3FFFFFFF;
      Value.Vundef
  | "pow", 2 ->
    let a1 = args.(1) in
    fun regs ->
      let a = regs.(a0) and b = regs.(a1) in
      Value.Vflt (Float.pow (Value.as_flt a) (Value.as_flt b))
  | "sqrt", 1 -> fun regs -> Value.Vflt (sqrt (Value.as_flt regs.(a0)))
  | "sin", 1 -> fun regs -> Value.Vflt (sin (Value.as_flt regs.(a0)))
  | "cos", 1 -> fun regs -> Value.Vflt (cos (Value.as_flt regs.(a0)))
  | "exp", 1 -> fun regs -> Value.Vflt (exp (Value.as_flt regs.(a0)))
  | "log", 1 -> fun regs -> Value.Vflt (log (Value.as_flt regs.(a0)))
  | "fabs", 1 ->
    fun regs -> Value.Vflt (Float.abs (Value.as_flt regs.(a0)))
  | "abs", 1 -> fun regs -> Value.Vint (abs (Value.as_int regs.(a0)))
  | _ -> fun _ -> Value.error "bad builtin call: %s/%d" name arity

(* The whole program's functions, while their bodies are compiled. *)
type env = {
  st : state;
  dp : P.dprog;
  cfs : cfunc array;  (** indexed like [dp.dfuncs] *)
  gbase : int array;  (** a global's base by tag id; -1: no storage *)
  check_tags : bool;
}

let compile_call env (c : P.dcall) (next : code) : code =
  let st = env.st and args = c.P.cargs and ret = c.P.cret in
  let finish (call : Value.t array -> Value.t) : code =
    if ret >= 0 then fun regs frame ->
      regs.(ret) <- call regs;
      next regs frame
    else fun regs frame ->
      ignore (call regs);
      next regs frame
  in
  match c.P.ctarget with
  | P.Dslot g ->
    let cf = env.cfs.(g.P.didx) in
    finish (fun regs -> invoke st cf regs args)
  | P.Dbuiltin name -> finish (builtin st name c.P.csite args)
  | P.Dunknown name ->
    finish (fun _ -> Value.error "call to unknown function '%s'" name)
  | P.Dindirect r ->
    finish (fun regs ->
        match regs.(r) with
        | Value.Vfun n -> (
          match Hashtbl.find_opt env.dp.P.by_name n with
          | Some g -> invoke st env.cfs.(g.P.didx) regs args
          | None ->
            if Rp_minic.Builtins.is_builtin n then
              builtin st n c.P.csite args regs
            else Value.error "call to unknown function '%s'" n)
        | v -> Value.error "indirect call through %a" Value.pp v)

(* Where a scalar memory operand lives, once the globals have bases. *)
type place = Frame of int | Base of int | Fails of string

let place gbase (tr : P.tagref) =
  match tr with
  | P.Rframe k -> Frame k
  | P.Rglobal t ->
    let id = t.Tag.id in
    let b = if id < Array.length gbase then gbase.(id) else -1 in
    if b >= 0 then Base b
    else Fails (Fmt.str "no storage for global tag '%s'" t.Tag.name)
  | P.Rnoframe t -> Fails (Fmt.str "no frame storage for tag '%s'" t.Tag.name)
  | P.Rheap t -> Fails (Fmt.str "direct access to heap tag '%s'" t.Tag.name)

let fails msg : code = fun _ _ -> raise (Value.Runtime_error msg)

let instr_regs = function
  | P.Dloadi (d, _) | P.Dloada (d, _) | P.Dloadfp (d, _) | P.Dload_tag (d, _)
    ->
    [ d ]
  | P.Dunop (_, d, s) | P.Dcopy (d, s) | P.Dloadg (d, s, _) -> [ d; s ]
  | P.Dbinop (_, d, s1, s2) -> [ d; s1; s2 ]
  | P.Dstore_tag (_, s) -> [ s ]
  | P.Dstoreg (a, s, _) -> [ a; s ]
  | P.Dcall c ->
    (match c.P.ctarget with P.Dindirect r -> [ r ] | _ -> [])
    @ (if c.P.cret >= 0 then [ c.P.cret ] else [])
    @ Array.to_list c.P.cargs
  | P.Dtrap _ -> []

(** One instruction of a function with [nreg] registers, followed by
    [next].  Its closure reads registers unchecked, so an instruction
    naming a register outside the file (which validated IL never does)
    compiles to the bounds error a checked access raises. *)
let compile_instr env nreg (i : P.dinstr) (next : code) : code =
  let mem = env.st.mem in
  if List.exists (fun r -> r < 0 || r >= nreg) (instr_regs i) then fun _ _ ->
    invalid_arg "index out of bounds"
  else
    match i with
    | P.Dloadi (d, v) ->
      fun regs frame ->
        Array.unsafe_set regs d v;
        next regs frame
    | P.Dloada (d, tr) -> (
      match place env.gbase tr with
      | Frame k ->
        fun regs frame ->
          Array.unsafe_set regs d (Value.Vptr (Array.unsafe_get frame k, 0));
          next regs frame
      | Base b ->
        let v = Value.Vptr (b, 0) in
        fun regs frame ->
          Array.unsafe_set regs d v;
          next regs frame
      | Fails msg -> fails msg)
    | P.Dloadfp (d, n) ->
      let v = Value.Vfun n in
      fun regs frame ->
        Array.unsafe_set regs d v;
        next regs frame
    | P.Dunop (op, d, s) ->
      let f = Value.unop op in
      fun regs frame ->
        Array.unsafe_set regs d (f (Array.unsafe_get regs s));
        next regs frame
    | P.Dbinop (op, d, s1, s2) ->
      let f = Value.binop op in
      fun regs frame ->
        Array.unsafe_set regs d
          (f (Array.unsafe_get regs s1) (Array.unsafe_get regs s2));
        next regs frame
    | P.Dcopy (d, s) ->
      fun regs frame ->
        Array.unsafe_set regs d (Array.unsafe_get regs s);
        next regs frame
    | P.Dload_tag (d, tr) -> (
      match place env.gbase tr with
      | Frame k ->
        fun regs frame ->
          Array.unsafe_set regs d
            (Memory.load mem Tagset.univ (Array.unsafe_get frame k) 0);
          next regs frame
      | Base b ->
        fun regs frame ->
          Array.unsafe_set regs d (Memory.load mem Tagset.univ b 0);
          next regs frame
      | Fails msg -> fails msg)
    | P.Dstore_tag (tr, s) -> (
      match place env.gbase tr with
      | Frame k ->
        fun regs frame ->
          Memory.store mem Tagset.univ (Array.unsafe_get frame k) 0
            (Array.unsafe_get regs s);
          next regs frame
      | Base b ->
        fun regs frame ->
          Memory.store mem Tagset.univ b 0 (Array.unsafe_get regs s);
          next regs frame
      | Fails msg -> fails msg)
    | P.Dloadg (d, a, tags) ->
      let tags = if env.check_tags then tags else Tagset.univ in
      fun regs frame ->
        (match Array.unsafe_get regs a with
        | Value.Vptr (b, o) ->
          Array.unsafe_set regs d (Memory.load mem tags b o)
        | v -> Value.error "Load through non-pointer %a" Value.pp v);
        next regs frame
    | P.Dstoreg (a, s, tags) ->
      let tags = if env.check_tags then tags else Tagset.univ in
      fun regs frame ->
        (match Array.unsafe_get regs a with
        | Value.Vptr (b, o) ->
          Memory.store mem tags b o (Array.unsafe_get regs s)
        | v -> Value.error "Store through non-pointer %a" Value.pp v);
        next regs frame
    | P.Dcall c -> compile_call env c next
    | P.Dtrap msg -> fails msg

(* faithful to [Func.block] on a missing label *)
let bad_label (g : P.dfunc) l =
  invalid_arg ("Func.block: no block " ^ g.P.dbad.(-1 - l))

(** A terminator; [blocks] holds every block's code once compiled. *)
let compile_term g nreg (blocks : code array) (t : P.dterm) : code =
  match t with
  | P.Djump l when l >= 0 ->
    fun regs frame -> (Array.unsafe_get blocks l) regs frame
  | P.Djump l -> fun _ _ -> bad_label g l
  | P.Dcbr (r, _, _) when r < 0 || r >= nreg ->
    fun _ _ -> invalid_arg "index out of bounds"
  | P.Dcbr (r, a, b) ->
    fun regs frame ->
      let l = if Value.truthy (Array.unsafe_get regs r) then a else b in
      if l >= 0 then (Array.unsafe_get blocks l) regs frame else bad_label g l
  | P.Dret r when r < 0 -> fun _ _ -> Value.Vundef
  | P.Dret r -> fun regs _ -> regs.(r)

(* A block's instructions as runs that end just after each call, then the
   (possibly empty) rest, which carries the terminator. *)
let segments (ins : P.dinstr array) : P.dinstr list list =
  let done_, cur =
    Array.fold_left
      (fun (done_, cur) i ->
        match i with
        | P.Dcall _ -> (List.rev (i :: cur) :: done_, [])
        | _ -> (done_, i :: cur))
      ([], []) ins
  in
  List.rev (List.rev cur :: done_)

let halt : code = fun _ _ -> Value.Vundef

(** A segment's entry: charge all of it and run [fast] when no operation
    in it can exhaust fuel or land on a poll, otherwise run its
    instructions one at a time, each charged just before it runs, and the
    terminator's charge last; then go on to [after]. *)
let charge st (fc : counts) (ins : P.dinstr list) ~last (single : code list)
    (fast : code) (after : code) : code =
  let acct =
    Array.of_list
      (List.map
         (function
           | P.Dload_tag _ | P.Dloadg _ -> 1
           | P.Dstore_tag _ | P.Dstoreg _ -> 2
           | _ -> 0)
         ins)
  in
  let single = Array.of_list single in
  let count k =
    Array.fold_left (fun n a -> if a = k then n + 1 else n) 0 acct
  in
  let n = Array.length acct + if last then 1 else 0 in
  let loads = count 1 and stores = count 2 in
  let per_op regs frame =
    for k = 0 to Array.length single - 1 do
      tick st fc;
      (match Array.unsafe_get acct k with
      | 1 ->
        st.total.loads <- st.total.loads + 1;
        fc.loads <- fc.loads + 1
      | 2 ->
        st.total.stores <- st.total.stores + 1;
        fc.stores <- fc.stores + 1
      | _ -> ());
      ignore ((Array.unsafe_get single k) regs frame)
    done;
    if last then tick st fc;
    after regs frame
  in
  let t = st.total in
  fun regs frame ->
    let ops = t.ops in
    if ops + n <= st.fuel && (ops land 4095) + n < 4096 then begin
      t.ops <- ops + n;
      fc.ops <- fc.ops + n;
      t.loads <- t.loads + loads;
      fc.loads <- fc.loads + loads;
      t.stores <- t.stores + stores;
      fc.stores <- fc.stores + stores;
      fast regs frame
    end
    else per_op regs frame

(* A block-final operator whose result the [cbr] tests, as one closure:
   it still writes the register, then branches on the value. *)
let fuse nreg (blocks : code array) (i : P.dinstr) (t : P.dterm) =
  match (i, t) with
  | P.Dbinop (op, d, s1, s2), P.Dcbr (r, a, b)
    when r = d && a >= 0 && b >= 0
         && List.for_all (fun r -> r >= 0 && r < nreg) [ d; s1; s2 ] ->
    let f = Value.binop op in
    Some
      (fun regs frame ->
        let v = f (Array.unsafe_get regs s1) (Array.unsafe_get regs s2) in
        Array.unsafe_set regs d v;
        (Array.unsafe_get blocks (if Value.truthy v then a else b)) regs frame)
  | _ -> None

let compile_block env g cf (blocks : code array) (b : P.dblock) : code =
  let instr = compile_instr env cf.nreg in
  let segs = segments b.P.dinstrs in
  let nsegs = List.length segs in
  let term = compile_term g cf.nreg blocks b.P.dterm in
  (* the fast path of the last segment, fused with the terminator when
     it can be; the one-at-a-time path keeps them apart *)
  let last_fast ins =
    match List.rev ins with
    | i :: rest -> (
      match fuse cf.nreg blocks i b.P.dterm with
      | Some k -> List.fold_right instr (List.rev rest) k
      | None -> List.fold_right instr ins term)
    | [] -> term
  in
  (* from the last segment back, each one's [after] is the next's entry *)
  snd
    (List.fold_right
       (fun ins (k, after) ->
         let last = k = nsegs - 1 in
         let fast =
           if last then last_fast ins else List.fold_right instr ins after
         in
         let single = List.map (fun i -> instr i halt) ins in
         (k - 1, charge env.st cf.fc ins ~last single fast after))
       segs
       (nsegs - 1, term))

(** Compile every function of [dp]. *)
let compile st ~check_tags gbase (dp : P.dprog) : cfunc array =
  let cfs =
    Array.map
      (fun (g : P.dfunc) ->
        {
          name = g.P.dname;
          arity = g.P.darity;
          params = g.P.dparams;
          nreg = g.P.dnreg;
          locals = g.P.dlocals;
          fc = zero_counts ();
          body = halt;
        })
      dp.P.dfuncs
  in
  let env = { st; dp; cfs; gbase; check_tags } in
  Array.iter2
    (fun (g : P.dfunc) cf ->
      let blocks = Array.make (Array.length g.P.dblocks) halt in
      Array.iteri
        (fun k b -> blocks.(k) <- compile_block env g cf blocks b)
        g.P.dblocks;
      let entry = g.P.dentry in
      cf.body <-
        (if entry >= 0 then blocks.(entry) else fun _ _ -> bad_label g entry))
    dp.P.dfuncs cfs;
  cfs

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
      mem = Memory.create ();
      rng = seed land 0x3FFFFFFF;
      out = Buffer.create 256;
      checksum = 0x1505;
      total = zero_counts ();
      fuel;
      max_depth;
      depth = 0;
      should_stop;
    }
  in
  (* allocate and initialize globals *)
  let gbase = Array.make (Tag.Table.count prog.Program.tags) (-1) in
  List.iter
    (fun ((t : Tag.t), init) ->
      let fill, words =
        match init with
        | Program.Init_zero zero -> (Value.of_const zero, [])
        | Program.Init_words ws -> (Value.Vundef, ws)
      in
      let b = Memory.alloc st.mem ~tag:t ~size:t.Tag.size ~fill in
      if t.Tag.id < Array.length gbase then gbase.(t.Tag.id) <- b;
      Memory.init_words st.mem b words)
    prog.Program.globals;
  let cfs = compile st ~check_tags gbase dprog in
  let main =
    match dprog.P.dmain with
    | Some g -> cfs.(g.P.didx)
    | None -> invalid_arg ("Program.func: no function " ^ dprog.P.dmain_name)
  in
  let ret = invoke st main [||] [||] in
  let per_func =
    Array.to_list cfs
    |> List.filter_map (fun cf ->
           (* a function that was entered ran at least one operation *)
           if cf.fc.ops = 0 then None else Some (cf.name, cf.fc))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    ret;
    output = Buffer.contents st.out;
    checksum = st.checksum;
    total = st.total;
    per_func;
  }
