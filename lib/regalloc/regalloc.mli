(** Chaitin–Briggs graph-coloring register allocation: liveness →
    interference → Briggs-conservative coalescing → simplify with
    optimistic push → select → spill-and-retry.  Spill code is emitted as
    tagged scalar memory operations so spills appear in the paper's dynamic
    load/store counts; single-definition constants and addresses are
    rematerialized instead of spilled. *)

open Rp_ir

type stats = {
  mutable spilled_regs : int;  (** live ranges sent to stack slots *)
  mutable remat_regs : int;  (** "spilled" constants recomputed instead *)
  mutable coalesced : int;
  mutable removed_copies : int;
  mutable rounds : int;  (** build/color iterations until success *)
}

val zero_stats : unit -> stats

val min_registers : int
(** The fewest physical registers the allocator can color onto (4). *)

(** Allocate one function onto [k] physical registers (numbered [0..k-1]);
    rewrites instructions, parameters, and [nreg] in place.
    @raise Invalid_argument when [k < min_registers]. *)
val alloc_func : Program.t -> k:int -> Func.t -> stats

(** Allocate every function of the program. *)
val alloc_program : ?k:int -> Program.t -> stats
