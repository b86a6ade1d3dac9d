(** A crash-tolerant content-addressed store.

    The [rpcc serve] daemon's warm path: each answer — one [run] object
    holding the stats document and the interpreter result — is stored
    under a key derived from the {e content} that produced it (source
    text, configuration fingerprint, pipeline pass version), so identical
    traffic skips the pipeline entirely and a SIGKILL'd daemon restarts
    warm.  The native backend keeps its compiled binaries ([native-bin])
    in a store of the same kind, whose root it makes private to its user
    before opening it ([Rp_backend.Native.default_cache_dir]).

    Robustness contract:
    - {b Atomic writes.}  {!put} writes to a temp file in the store,
      [fsync]s, then [rename]s into place — a reader (or a crash) never
      observes a half-written entry under its final name.
    - {b Verified reads.}  Every object carries a header with its kind,
      payload CRC-32, and length; {!get} verifies all three and treats
      any mismatch — truncation, bit flip, wrong kind — as a miss.
    - {b Quarantine, never a wrong answer.}  A corrupt entry is moved to
      the store's [quarantine/] directory (preserved for forensics) and
      counted; the caller recomputes.  Corruption can cost a cache hit,
      never correctness.

    Counters are atomic; domains may hit one store concurrently.
    Entries are immutable by construction (same key + kind ⇒ same
    bytes), so concurrent writers racing on one entry are benign: the
    last rename wins with identical content. *)

type t

val open_ : string -> t
(** Open (creating if needed) a store rooted at the directory.  Temp
    files orphaned by a crash mid-{!put} are reaped; a temp file whose
    writer process is still alive (another process's in-flight put on a
    shared store) is left alone. *)

val root : t -> string

val mkdir_p : string -> unit
(** Create a directory (mode 0755) and any missing parents. *)

val key : string list -> string
(** Collision-resistant hex key of the (order-sensitive,
    length-delimited) parts. *)

val put : t -> key:string -> kind:string -> string -> unit
(** Store the payload under (key, kind), atomically.  [kind] must be a
    short [[a-z0-9_-]] label ("run", "native-bin"). *)

val get : t -> key:string -> kind:string -> string option
(** The verified payload, or [None] on a miss.  A present-but-corrupt
    entry is quarantined (moved aside, counted) and reported as a miss. *)

type stats = { hits : int; misses : int; puts : int; quarantined : int }

val stats : t -> stats

val stats_json : t -> Json.t
(** [{"hits": _, "misses": _, "puts": _, "quarantined": _}] — the cache
    section of [rpcc serve]'s health document. *)
