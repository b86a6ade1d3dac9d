(** Word-addressed object memory.

    Every memory object — a global, one activation of an address-taken
    local or spill slot, or one heap allocation — occupies a distinct
    {e base}.  An address is a (base, offset) pair, so out-of-bounds,
    cross-object, use-after-free, double-free, and dangling-frame
    accesses are detected rather than silently absorbed.  Each base
    remembers the {!Rp_ir.Tag.t} that names it, which lets the
    interpreter dynamically verify that the static tag sets
    over-approximate the accesses that actually happen.

    Bases are dense from 1, in allocation order, and never reused, so the
    object table is a growable array indexed by [base - 1]: finding an
    object is a range check and an array read, the same layout as the C
    runtime [Rp_backend.Cgen] emits ([rt_alloc]/[rt_find]).  Releasing
    an object drops its cells and keeps its tag, as [rt_release] does: a
    dead base still names its tag in trap messages and tag-set checks,
    and costs one small record. *)

open Rp_ir

type obj = {
  mutable cells : Value.t array;
  tag : Tag.t;
  mutable live : bool;
}

type t = {
  mutable objs : obj array;  (** [objs.(b - 1)] is base [b], for [b <= n] *)
  mutable n : int;
}

let create () = { objs = [||]; n = 0 }

(** Allocate a fresh object of [size] words named by [tag], every cell
    holding [fill]. *)
let alloc mem ~(tag : Tag.t) ~size ~fill : int =
  let o = { cells = Array.make (max size 0) fill; tag; live = true } in
  let n = mem.n in
  if n = Array.length mem.objs then begin
    (* the new object doubles as the filler: the table holds no dummy *)
    let objs = Array.make (max 256 (2 * n)) o in
    Array.blit mem.objs 0 objs 0 n;
    mem.objs <- objs
  end;
  Array.unsafe_set mem.objs n o;
  mem.n <- n + 1;
  n + 1

let find mem b =
  if b < 1 || b > mem.n then Value.error "access to invalid base %d" b;
  Array.unsafe_get mem.objs (b - 1)

(** Release an object at frame pop.  Later accesses fail. *)
let release mem b =
  let o = find mem b in
  o.live <- false;
  o.cells <- [||]

(** Release a heap object ([free]): the base must be live and name a heap
    tag. *)
let free mem b =
  let o = find mem b in
  if not o.live then Value.error "double free of '%s'" o.tag.Tag.name;
  (match o.tag.Tag.storage with
  | Tag.Heap _ -> ()
  | _ -> Value.error "free of a non-heap object '%s'" o.tag.Tag.name);
  release mem b

(* The one lookup behind every access, checking in the order the C
   runtime's [rt_check_ts] then [rt_checked] do: invalid base, tag set,
   dead object, bounds. *)
let access mem tags op b off =
  let o = find mem b in
  if not (Tagset.mem o.tag tags) then
    Value.error "tag-set violation in %s: object '%s' not in static tag set %a"
      op o.tag.Tag.name Tagset.pp tags;
  if not o.live then Value.error "access to dead object '%s'" o.tag.Tag.name;
  if off < 0 || off >= Array.length o.cells then
    Value.error "out-of-bounds access to '%s' (offset %d, size %d)"
      o.tag.Tag.name off (Array.length o.cells);
  o.cells

let load mem tags b off = Array.unsafe_get (access mem tags "Load" b off) off

let store mem tags b off v =
  Array.unsafe_set (access mem tags "Store" b off) off v

(** Initialize an object's prefix from constants (globals). *)
let init_words mem b words =
  let o = find mem b in
  List.iteri (fun i c -> o.cells.(i) <- Value.of_const c) words
