(** Word-addressed object memory with full error detection.

    Every object — a global, one activation of an addressed local or spill
    slot, or one heap allocation — occupies a distinct base; an address is
    a (base, offset) pair.  Bases are dense from 1, in allocation order,
    and never reused; the table is an array indexed by base, so every
    access costs one range check and one array read.  Each base remembers
    the {!Rp_ir.Tag.t} naming it, alive or dead, enabling the
    interpreter's dynamic tag-set verification. *)

type t

val create : unit -> t

(** Allocate a fresh object whose cells all hold [fill]. *)
val alloc : t -> tag:Rp_ir.Tag.t -> size:int -> fill:Value.t -> int

(** Release an object at frame pop: its cells are dropped, its tag kept,
    and later accesses trap.
    @raise Value.Runtime_error on an unknown base. *)
val release : t -> int -> unit

(** Release a heap object ([free]).
    @raise Value.Runtime_error on an unknown base, then ["double free"]
    on a dead one, then ["free of a non-heap object"] when its tag's
    storage is not [Heap]. *)
val free : t -> int -> unit

(** Checked load/store through base and offset, with one table lookup.
    Traps, in this order, on an unknown base, on an object whose tag is
    not in the tag set (pass {!Rp_ir.Tagset.univ} to skip the check), on
    a dead object, and on an out-of-bounds offset. *)
val load : t -> Rp_ir.Tagset.t -> int -> int -> Value.t

val store : t -> Rp_ir.Tagset.t -> int -> int -> Value.t -> unit

(** Initialize a prefix from constants (global initializers).
    @raise Invalid_argument when the initializer outruns the object. *)
val init_words : t -> int -> Rp_ir.Instr.const list -> unit
