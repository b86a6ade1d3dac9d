(** Structural well-formedness checks for IL, run by the test-suite after
    every pass and available to the driver under a debug flag.  Returns a
    list of human-readable violations; the empty list means the function is
    well formed. *)

let check_func (f : Func.t) =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  (* block table and order agree *)
  let order_set = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem order_set l then err "%s: label %s repeated in order" f.Func.name l;
      Hashtbl.replace order_set l ();
      if not (Func.mem_block f l) then
        err "%s: order mentions missing block %s" f.Func.name l)
    f.Func.order;
  Hashtbl.iter
    (fun l _ ->
      if not (Hashtbl.mem order_set l) then
        err "%s: block %s missing from order" f.Func.name l)
    f.Func.blocks;
  if not (Func.mem_block f f.Func.entry) then
    err "%s: entry block %s missing" f.Func.name f.Func.entry;
  List.iter
    (fun r ->
      if r < 0 || r >= f.Func.nreg then
        err "%s: parameter r%d out of range (nreg=%d)" f.Func.name r
          f.Func.nreg)
    f.Func.params;
  (* per-block checks *)
  Func.iter_blocks
    (fun (b : Block.t) ->
      List.iter
        (fun s ->
          if not (Func.mem_block f s) then
            err "%s/%s: terminator targets missing block %s" f.Func.name
              b.Block.label s)
        (Block.succs b);
      (* registers in range *)
      let chk_reg r =
        if r < 0 || r >= f.Func.nreg then
          err "%s/%s: register r%d out of range (nreg=%d)" f.Func.name
            b.Block.label r f.Func.nreg
      in
      List.iter
        (fun i ->
          List.iter chk_reg (Instr.defs i);
          List.iter chk_reg (Instr.uses i))
        b.Block.instrs;
      List.iter chk_reg (Instr.term_uses b.Block.term);
      (* phis must be a prefix of the block *)
      let seen_nonphi = ref false in
      List.iter
        (fun i ->
          if Instr.is_phi i then begin
            if !seen_nonphi then
              err "%s/%s: phi after non-phi instruction" f.Func.name
                b.Block.label
          end
          else seen_nonphi := true)
        b.Block.instrs)
    f;
  List.rev !errs

let check_program (p : Program.t) =
  let errs = List.concat_map check_func (Program.funcs p) in
  let errs =
    if Program.func_opt p p.Program.main = None then
      Fmt.str "program: main function %s missing" p.Program.main :: errs
    else errs
  in
  errs

exception Invalid of string * string
(** [(context, report)] — the context names the pipeline stage (or input
    source) whose output failed validation, so drivers can report which
    pass broke the IL instead of a bare failure. *)

(** Raise {!Invalid} with a readable report if the program is ill-formed.
    [ctx] names the producer of the IL being checked. *)
let assert_ok ?(ctx = "program") p =
  match check_program p with
  | [] -> ()
  | errs ->
    raise (Invalid (ctx, String.concat "\n" ("IL validation failed:" :: errs)))
