(** Append-only, fsync-on-record, CRC-protected line-JSON journal.

    One record per line, written with [O_APPEND] and [fsync]ed before
    {!record} returns, so every acknowledged record survives a crash or
    SIGKILL of the process.  The campaign runner ([Rp_cli.run_campaign],
    behind [rpcc gen-fuzz], [rpcc fuzz] and [bench --json]) and the [rpcc
    serve] daemon write one record per unit of work and re-read the file
    when a campaign is rerun on its [--journal] / on a warm restart, to
    skip work already done.

    Writers are thread-safe: worker domains may {!record} concurrently
    (records are serialized under an internal lock, never interleaved).

    {b Record format.}  Each line is a wrapper
    [{"crc32": "xxxxxxxx", "r": <record>}]: the CRC-32 of the record's
    compact serialization travels with it, so a bit flip or torn write
    {e anywhere} in the file — not just a truncated final line — is
    detected on load and the damaged record is skipped (and surfaced via
    [on_skip]) instead of being parsed as garbage.  A line that is not a
    wrapper is corrupt like any other. *)

type writer

val create : string -> writer
(** Open [path] for appending, creating it if missing.  A final line
    without its newline (a record torn by a kill, which {!load} ignores)
    is cut off first, so the next record starts a line of its own. *)

val record : writer -> Json.t -> unit
(** Append one record as a single CRC-wrapped JSON line and [fsync].
    Raises [Invalid_argument] if the writer is closed. *)

val close : writer -> unit
(** Idempotent. *)

val load : ?on_skip:(line:int -> string -> unit) -> string -> Json.t list
(** Parse every line of [path] in order, returning the unwrapped payload
    records.  A missing file is an empty journal.  An unparseable
    {e final} line (the record being written when the process died) is
    dropped silently; any other corrupt line — an unparseable interior
    line, a line that is not a wrapper, or a record whose CRC does not
    match — is skipped and reported through [on_skip] (1-based line
    number and reason), so callers can count a [journal_skipped]
    telemetry event rather than crash or resume from garbage. *)
