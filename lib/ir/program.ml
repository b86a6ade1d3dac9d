(** Whole programs: the tag registry, global variables with initializers,
    and the function table. *)

type init =
  | Init_zero of Instr.const
      (** zero-filled object; the payload is the element's zero value
          ([Cint 0] or [Cflt 0.]), so the runtime can type the cells *)
  | Init_words of Instr.const list  (** explicit word-by-word initializer *)

type t = {
  tags : Tag.Table.t;
  mutable globals : (Tag.t * init) list;  (** in declaration order *)
  funcs : (string, Func.t) Hashtbl.t;
  mutable func_order : string list;
  mutable main : string;
  sites : Rp_support.Idgen.t;  (** call-site id generator *)
  heap_site_tags : (int, Tag.t) Hashtbl.t;
      (** one tag per allocating call site ("a single name for each
          call-site that can generate a new heap address") *)
}

let create () =
  {
    tags = Tag.Table.create ();
    globals = [];
    funcs = Hashtbl.create 16;
    func_order = [];
    main = "main";
    sites = Rp_support.Idgen.create ();
    heap_site_tags = Hashtbl.create 16;
  }

(** The tag naming all heap memory allocated at call site [site]; created on
    first request. *)
let heap_tag p site =
  match Hashtbl.find_opt p.heap_site_tags site with
  | Some t -> t
  | None ->
    let t =
      Tag.Table.fresh p.tags
        ~name:(Printf.sprintf "heap@%d" site)
        ~storage:(Tag.Heap site) ~size:0 ~is_scalar:false ()
    in
    Hashtbl.replace p.heap_site_tags site t;
    t

let add_func p (f : Func.t) =
  if Hashtbl.mem p.funcs f.name then
    invalid_arg ("Program.add_func: duplicate function " ^ f.name);
  Hashtbl.replace p.funcs f.name f;
  p.func_order <- p.func_order @ [ f.name ]

let func p name =
  match Hashtbl.find_opt p.funcs name with
  | Some f -> f
  | None -> invalid_arg ("Program.func: no function " ^ name)

let func_opt p name = Hashtbl.find_opt p.funcs name
let funcs p = List.map (func p) p.func_order
let iter_funcs fn p = List.iter fn (funcs p)

let fresh_site p = Rp_support.Idgen.fresh p.sites

let add_global p tag init =
  p.globals <- p.globals @ [ (tag, init) ]

let global_tags p = List.map fst p.globals

(** Total static instruction count (the paper's C, "code size"). *)
let size p =
  List.fold_left (fun n f -> n + Func.instr_count f) 0 (funcs p)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (pass isolation)                                 *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_tag_count : int;
  snap_sites : int;
  snap_globals : (Tag.t * init) list;
  snap_func_order : string list;
  snap_funcs : (string * Func.t) list;  (** deep copies, in order *)
  snap_main : string;
  snap_heap : (int * Tag.t) list;
}

(** Capture the program's current state.  Function bodies are deep-copied
    ({!Func.copy}); instructions are immutable and shared, so the snapshot
    stays intact while passes rewrite block instruction lists in place.
    Cost is O(blocks), not O(instructions). *)
let snapshot (p : t) : snapshot =
  {
    snap_tag_count = Tag.Table.count p.tags;
    snap_sites = Rp_support.Idgen.peek p.sites;
    snap_globals = p.globals;
    snap_func_order = p.func_order;
    snap_funcs = List.map (fun (f : Func.t) -> (f.Func.name, Func.copy f)) (funcs p);
    snap_main = p.main;
    snap_heap = Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.heap_site_tags [];
  }

(** Roll [p] back to [s], in place (callers hold the [t] reference, so the
    record itself must survive).  Tags and call-site ids allocated after
    the snapshot are forgotten; a snapshot must be restored at most once
    (its function copies are installed directly, not re-copied). *)
let restore (p : t) (s : snapshot) : unit =
  Tag.Table.truncate p.tags s.snap_tag_count;
  Rp_support.Idgen.reset p.sites s.snap_sites;
  p.globals <- s.snap_globals;
  p.func_order <- s.snap_func_order;
  p.main <- s.snap_main;
  Hashtbl.reset p.funcs;
  List.iter (fun (n, f) -> Hashtbl.replace p.funcs n f) s.snap_funcs;
  Hashtbl.reset p.heap_site_tags;
  List.iter (fun (k, v) -> Hashtbl.replace p.heap_site_tags k v) s.snap_heap

let pp ppf p =
  let pp_global ppf (t, init) =
    match init with
    | Init_zero _ -> Fmt.pf ppf "global %a : %d words" Tag.pp_full t t.Tag.size
    | Init_words ws ->
      Fmt.pf ppf "global %a = {%a}" Tag.pp_full t
        Fmt.(list ~sep:(any ", ") Instr.pp_const)
        ws
  in
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:cut pp_global)
    p.globals
    Fmt.(list ~sep:(cut ++ cut) Func.pp)
    (funcs p)
