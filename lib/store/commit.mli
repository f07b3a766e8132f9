(** The commit core shared by {!Store} (one chain, one [.idx] file) and
    [Ickpt_service.Service] (many tenants' chains multiplexed over
    per-shard index files): how a split segment becomes a committed
    {!Epoch_index.entry}, which sequences of entries are valid, how each
    entry is checked, and which committed segments rebuild a chain.

    The protocol both callers follow with it: {!stage} every segment of a
    batch against the pack (one [pending] table per batch), append every
    staged [fresh] chunk in one {!Pack.append_batch} (write + sync), then
    append the entries to the index in one synced write — the commit
    point. A crash between the two leaves orphaned chunks, never a
    committed entry with missing data. *)

open Ickpt_core

type collision = {
  col_epoch : int;  (** epoch whose append hit the collision *)
  col_content_key : int;  (** the chunk's true content key, already taken *)
  col_stored_key : int;  (** the salted key the chunk was stored under *)
  col_attempt : int;  (** which rung of the salt ladder (>= 1) *)
}

type staged = {
  entry : Epoch_index.entry;
  fresh : (int * string) list;
      (** [(key, bytes)] of the chunks not yet in the pack, chunk order *)
  collisions : collision list;
      (** fresh chunks stored under a salted rehash, chunk order *)
}

val stage :
  Pack.t ->
  pending:(int, string) Hashtbl.t ->
  kind:Segment.kind ->
  epoch:int ->
  roots:int list ->
  Chunk.t list ->
  staged
(** Resolve the segment's chunks against the pack and [pending] (the
    fresh chunks of earlier segments in the same batch, which this adds
    to) with {!Pack.resolve}, and build the epoch's index entry. Does not
    write. *)

(** How one index file stores entries: the plain per-store file holds one
    chain; the multiplexed per-shard file tags each entry with its
    tenant. *)
type 'a layout = {
  decode : string -> pos:int -> 'a * int;
  encode : 'a -> string;
  chain : 'a -> int;  (** which chain the record belongs to *)
  entry : 'a -> Epoch_index.entry;
}

val plain : Epoch_index.entry layout
val mux : Epoch_index.mux_entry layout

val open_index : Vfs.t -> Pack.t -> string -> 'a layout -> 'a list
(** The committed records of an index file. Truncates a torn tail, then
    keeps the longest valid prefix and truncates the file there: every
    chain starts with a full epoch and continues contiguously, every chunk
    is in the pack, every directory pointer is in range. Crash-consistent
    use never produces an invalid record (the pack is synced before the
    index), so the second cut is defensive. *)

val check :
  Pack.t -> 'a layout -> label:('a -> string) -> 'a list -> string list
(** Integrity check of committed records; [[]] means consistent. Checks
    what {!open_index} validates, plus each chunk's content against its
    key. [label] prefixes every message naming a record (["tenant \"a\" "]
    or [""]). *)

val segment : Pack.t -> Epoch_index.entry -> Segment.t
(** Reassemble the exact segment committed by the entry. *)

val resume : Pack.t -> Epoch_index.entry list -> Segment.t list
(** The segments of one chain's entries (oldest first) from its newest
    full epoch onward — what rebuilds the chain on reopen. *)
