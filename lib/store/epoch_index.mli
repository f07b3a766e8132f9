(** The persistent epoch index: one append-only file of checksummed entries,
    one per checkpoint epoch. An entry records everything needed to
    materialize or diff its epoch without replaying the segment chain:

    - the ordered list of chunk keys whose bodies concatenate to the
      epoch's segment body;
    - a {e directory delta}: for every object record written in this epoch,
      the record id and its position ([chunk index in this entry] ×
      [byte offset within the chunk]). Folding directory deltas
      newest-wins from the nearest full epoch yields the per-object
      directory of any epoch.

    Wire layout of one entry:
    {v
    magic   fixed32  "ICKX"
    version byte
    epoch   varint
    kind    byte     0 = full, 1 = incremental (as Segment)
    nroots  varint   then that many root-id varints
    nchunks varint   then that many chunk-key varints
    ndir    varint   then ndir triples (id, chunk, off) of varints
    crc     fixed32  CRC-32 of everything above
    v}

    Appending an entry (write + sync) is the {e commit point} of an epoch:
    chunks are appended to the pack first, so a crash between the two
    leaves orphaned chunks (reclaimed by the next GC) but never a
    committed epoch with missing data. A torn tail is truncated on load. *)

open Ickpt_core

type dir_entry = {
  d_id : int;  (** object record id *)
  d_chunk : int;  (** index into the entry's [chunks] list *)
  d_off : int;  (** byte offset of the record within that chunk *)
}

type entry = {
  epoch : int;
  kind : Segment.kind;
  roots : int list;
  chunks : int list;  (** chunk keys, in body order *)
  dir : dir_entry list;  (** directory delta, in record write order *)
}

val encode : entry -> string

val decode : string -> pos:int -> entry * int
(** The entry at [pos] and the offset after it.
    @raise Ickpt_stream.In_stream.Corrupt on anything short of an intact
    entry. *)

val load : Vfs.t -> string -> entry list * int
(** Every intact entry (file order) and the byte offset of the first
    undecodable one — the safe truncation point. A missing file is the
    empty index. Performs no writes; the caller decides whether to
    truncate. *)

val append : Vfs.t -> string -> entry -> unit
(** Append one entry and sync — the epoch's commit point. *)

val write_staged : Vfs.t -> path:string -> entry list -> string
(** Write a fresh index holding exactly [entries] to the staging path
    ({!Ickpt_core.Storage.temp_of}[ ~path]), sync it, and return that
    path. Used by GC; the caller commits by renaming over [path]. *)

(** {1 Multiplexed (per-shard) index}

    The multi-tenant service stores many tenants' epoch entries in one
    per-shard file, interleaved in commit order. The wire format is the
    plain entry with magic ["ICKM"] and a tenant-id varint between the
    version byte and the payload; per-tenant commit-point ordering is the
    file order restricted to that tenant. A batch append is {e one} write
    and {e one} sync — the group-commit point shared by every entry in the
    batch — so a torn tail cuts whole entries off the end and every
    tenant's surviving entries remain a committed prefix (the pack is
    synced before the index batch, as for the plain store). *)

type mux_entry = { m_tenant : int; m_entry : entry }

val encode_mux : mux_entry -> string

val decode_mux : string -> pos:int -> mux_entry * int
(** As {!decode}, for a multiplexed entry. *)

val load_mux : Vfs.t -> string -> mux_entry list * int
(** Every intact multiplexed entry (file order) and the byte offset of the
    first undecodable one. A missing file is the empty index. Performs no
    writes. *)

val append_mux_batch : Vfs.t -> string -> mux_entry list -> unit
(** Append the batch in one writer session and one sync — the group-commit
    point of every epoch in it. The empty batch performs no I/O. *)
