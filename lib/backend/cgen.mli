(** C code generation from post-regalloc IR.

    [emit] translates a whole {!Rp_ir.Program.t} — via {!Rp_exec.Precomp}'s
    dense, lazily-faithful form — into one self-contained C translation
    unit: one C function per IR function, labels as [goto] targets,
    registers as locals, and a word-addressed object memory mirroring
    {!Rp_exec.Memory}.  The dynamic [ops]/[loads]/[stores] counters, the
    FNV-1a output checksum, and every runtime trap message are compiled
    into the emitted code, placed exactly where {!Rp_exec.Interp} places
    them, so a native run is bit-identical to an interpreted run: same
    output bytes, same checksum, same total and per-function counts, same
    trap/limit messages on erroneous or resource-bounded programs.

    The emitted program takes six argv parameters —
    [trailer-path fuel max-depth seed check-tags deadline-budget] — so one
    compiled binary serves every runtime parameterization (the binary
    cache key never includes fuel or seed).  It writes raw program output
    to stdout and a fixed-format result trailer ({!Native.parse_trailer})
    to the trailer path, always exiting 0 for controlled terminations;
    any other exit is infrastructure failure, which the runner quarantines
    rather than ever reporting a wrong answer. *)

val version : string
(** Emitter version stamp; part of the compiled-binary cache key, so any
    change to the emitted code invalidates cached binaries. *)

val mangle : int -> string -> string
(** [mangle idx name] is the C identifier used for IR function [name]
    occupying precompiled slot [idx]: a ["fn_<idx>_"] prefix followed by
    [name] with every character outside [A-Za-z0-9_] replaced by ['_'].
    The index prefix alone guarantees uniqueness and keeps C keywords and
    empty names harmless; the sanitized name is only for readability of
    the emitted code. *)

val emit : Rp_ir.Program.t -> string
(** The complete C source for [prog].  Pure: compiles the program via
    {!Rp_exec.Precomp.of_program} and never mutates
    [prog] (heap tags for call sites the analyses never reified are given
    synthetic out-of-table ids, which keeps their tag-set membership
    [false] exactly as the interpreter's lazily created tags would be). *)
