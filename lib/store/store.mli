(** The content-addressed checkpoint store: a {!Pack} of deduplicated
    chunks plus an {!Epoch_index}, opened as one unit.

    A store at [path] owns two files, [path ^ ".pack"] and [path ^ ".idx"].
    Appending a segment (an {e epoch}) splits its body into record-aligned
    chunks ({!Chunk}), writes only the chunks not already stored, then
    commits the epoch by appending its index entry:

    + pack: append new chunks, sync;
    + index: append the entry, sync  —  the {e commit point}.

    A crash between the two leaves orphaned chunks (space, not
    correctness — the next {!gc} reclaims them); a crash inside either
    append leaves a torn tail that reopening truncates. So after a crash
    at {e any} byte of {e any} operation the store reopens to a committed
    epoch prefix — the extension of invariant I7 exercised by
    [Ickpt_faultsim.Sweep.store].

    Staging an epoch, validating the index on open, {!check} and the
    resume suffix are the {!Commit} core, shared with the multi-tenant
    service; this module owns the plain one-chain [.idx] layout, retention
    and diff.

    {!gc} rewrites both files through staged temps and commits by renaming
    the {e index first}: every chunk referenced by the old index is also in
    the old pack (a superset of the new one), so whichever index is current
    after a crash, its chunks resolve.

    Chunk keys are 63-bit content hashes; a key hit during dedup is
    verified byte-for-byte against the stored chunk, so a hash collision
    never silently corrupts an epoch — the chunk is stored under a salted
    rehash ({!Chunk.salted_key}) instead, the append succeeds, and the
    event is recorded ({!collisions}) for the caller to surface (the CLI
    reports it as a finding in the JSON envelope). *)

open Ickpt_runtime
open Ickpt_core

type t

exception Error of string
(** Semantic store failure: out-of-order epoch, baseless incremental,
    unknown epoch, hash collision. Frame-level corruption is {e not} an
    exception — it is truncated away on open. *)

val pack_path : string -> string
val index_path : string -> string

val open_ :
  ?vfs:Vfs.t -> ?records_per_chunk:int -> Schema.t -> path:string -> t
(** Open (creating if missing) the store rooted at [path]. Stale staged
    temps from a crashed {!gc} are swept, torn file tails truncated, and
    the index validated against the pack — entries from the first
    inconsistency onwards are dropped (defensively; crash-consistent use
    never produces them). *)

val path : t -> string
val schema : t -> Schema.t

(** {1 Appending} *)

type append_stats = {
  chunks_total : int;  (** chunks the segment split into *)
  chunks_new : int;  (** how many were not already stored *)
  chunks_salted : int;  (** of the new ones, how many hit a hash collision
                            and were stored under a salted rehash *)
  bytes_logical : int;  (** segment body bytes *)
  bytes_written : int;  (** physical bytes appended (pack + index) *)
}

val append_segment : t -> Segment.t -> append_stats
(** Store one segment as the next epoch. Its [seq] must be [latest + 1] —
    or, on an empty store, any non-negative value provided the segment is
    full. Durable (both files synced) when this returns. A hash collision
    does not fail the append: the chunk is stored under a salted rehash
    and the event recorded ({!collisions}).
    @raise Error on kind/sequence violations. *)

type collision = Commit.collision = {
  col_epoch : int;  (** epoch whose append hit the collision *)
  col_content_key : int;  (** the chunk's true content key, already taken *)
  col_stored_key : int;  (** the salted key the chunk was stored under *)
  col_attempt : int;  (** which rung of the salt ladder (>= 1) *)
}

val collisions : t -> collision list
(** Collisions hit by appends {e this session}, oldest first. (Collisions
    survive on disk as salted chunks — see {!salted_chunks} — but the
    pairing with the epoch that hit them is session-local.) *)

val salted_chunks : t -> (int * int) list
(** [(stored key, salt attempt)] for every chunk in the pack stored under
    a salted rehash — detectable from bytes alone, so it survives reopen. *)

(** {1 Reading} *)

val epochs : t -> int list
(** Committed epoch numbers, ascending (contiguous). *)

val latest_epoch : t -> int option
val kind_of_epoch : t -> int -> Segment.kind
val roots_of_epoch : t -> int -> int list

val entry_at : t -> int -> Epoch_index.entry
(** The raw index entry committed at [epoch] (kind, roots, chunk keys,
    directory delta). @raise Error on an unknown epoch. *)

val segment_of_epoch : t -> int -> Segment.t
(** Reassemble the exact segment committed at [epoch] (chunks concatenate
    to the original body). @raise Error on an unknown epoch. *)

val restore : t -> epoch:int -> Heap.t * Model.obj list
(** Materialize the heap as of [epoch] in O(live records at that epoch):
    fold the per-object directories from the nearest full epoch at or
    before [epoch] (never the whole chain), then decode exactly one record
    per live object, reading each needed chunk once.
    @raise Error on an unknown epoch;
    @raise Restore.Error on semantic corruption. *)

val diff : t -> int -> int -> Diff.change list
(** [diff t a b] — the changes from epoch [a] to epoch [b], computed in
    O(changed directory entries): records whose directory pointers
    (chunk key, offset) agree are equal by content-addressing and are
    never decoded. Output order and contents match {!Diff.segments}. *)

(** {1 Space} *)

type retention =
  | Keep_all
  | Keep_last of int  (** keep the newest [n] epochs *)
  | Keep_from of int  (** keep epochs [>= e] *)

type gc_stats = {
  dropped_epochs : int;
  dropped_chunks : int;
  reclaimed_bytes : int;  (** physical pack bytes reclaimed *)
}

val gc : t -> retain:retention -> gc_stats
(** Drop epochs outside the retention window and every chunk no retained
    epoch references. The floor is widened down to the nearest full epoch
    so every retained epoch stays restorable. Crash-safe (staged temps,
    index renamed before pack). *)

val refcounts : t -> (int * int) list
(** [(chunk key, number of referencing epochs)], every stored chunk
    included — orphans (from a crash between pack and index append) have
    count 0. *)

type stats = {
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;  (** sum of segment body sizes over all epochs *)
  physical_bytes : int;  (** pack + index file bytes *)
  dedup_ratio : float;  (** logical over pack bytes; 1.0 when empty *)
}

val stats : t -> stats

val check : t -> string list
(** Integrity check; [[]] means consistent. Verifies epoch contiguity,
    oldest-epoch-is-full, every referenced chunk present with matching
    content hash, directory entries in range, and refcount consistency. *)

(** {1 Manager integration} *)

val manager_sink : t -> Manager.external_sink
(** Plug the store behind {!Manager.create}[ ?sink]: appends become
    epochs, resume replays the suffix from the newest full epoch, and
    [Manager.compact_now] maps to {!gc}[ ~retain:(Keep_last 1)]. *)
