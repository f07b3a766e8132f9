(** The multi-tenant checkpoint service: many independent tenant heaps,
    each with its own {!Ickpt_core.Chain} and epoch numbering, all feeding
    {e one} shared deduplicating {!Ickpt_cas.Pack} — so identical state
    dedups {e across} tenants, which is where content addressing pays.

    A service at [path] owns:
    - [path ^ ".pack"] — the shared chunk pack;
    - [path ^ ".shard<i>.idx"] — one multiplexed epoch index per shard
      ({!Ickpt_cas.Epoch_index.mux_entry}), holding the committed entries
      of every tenant hashed onto that shard, in commit order;
    - [path ^ ".tenants"] — the append-only tenant catalog (id ↔ name);
    - [path ^ ".svc"] — the shard count and chunking parameter, persisted
      because the tenant → shard mapping must be stable across reopens.

    {2 Commit modes and group commit}

    Every committed epoch costs two syncs (pack, then index — the index
    append is the commit point, exactly as in {!Ickpt_cas.Store}). The
    {!commit_mode} decides how many epochs share them:

    - {!Per_epoch}: each checkpoint commits by itself — 2 fsyncs/epoch,
      the {!Ickpt_cas.Store} behavior, the baseline the ablation compares
      against.
    - [Group policy]: checkpoints accumulate in a per-shard pending list;
      whichever appending caller trips the policy's [max_items]/[max_bytes]
      threshold commits the whole batch inline — 2 fsyncs {e per batch},
      amortized over every tenant in it. Deterministic (no threads), so
      the fault simulator sweeps this path byte-by-byte. The policy's
      [linger] is not used: a batch commits only on a threshold or at
      {!flush}.

    A group commit is atomic per batch: the pack chunks of {e all} its
    epochs are synced before the index batch is appended in one write +
    one sync, so a power loss mid-batch truncates whole index entries off
    the tail and every tenant independently recovers to a committed prefix
    of its own epochs — invariant I7, extended; swept by
    [Ickpt_faultsim.Sweep.service]. Staging, shard validation on open,
    {!check} and tenant resume run on the {!Ickpt_cas.Commit} core shared
    with {!Ickpt_cas.Store}; this module owns the per-shard multiplexed
    layout, the catalog and batching.

    Thread-safety: one global lock serializes pack access and commits;
    chunk splitting (the CPU-heavy part) happens outside it on the calling
    domain. Calls on {e one} tenant must not race each other; calls on
    different tenants may come from different domains concurrently. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas

exception Error of string
(** Semantic misuse: tenant-id collision, unknown epoch, use after close. *)

type t

type tenant
(** A handle to one open tenant. Invalidated by {!evict} and {!close}. *)

type commit_mode = Per_epoch | Group of Async_writer.Batch.policy

val pack_path : string -> string
val shard_index_path : string -> int -> string
val catalog_path : string -> string
val meta_path : string -> string

val decode_catalog_entry : string -> pos:int -> (int * string) * int
(** Decode one catalog frame [(id, name)] at [pos], returning it and the
    next offset. @raise Ickpt_stream.In_stream.Corrupt on a bad magic,
    version or CRC. *)

val load_meta : Vfs.t -> string -> (int * int) option
(** The persisted [(shards, records_per_chunk)] of the meta file at the
    given path; [None] when it is missing or fails its CRC. Never
    writes. *)

val tenant_id : string -> int
(** The 63-bit id a tenant name hashes to ({!Ickpt_stream.Hash64}). Two
    distinct names mapping to one id is a collision {!open_tenant}
    refuses. *)

val open_ :
  ?vfs:Vfs.t ->
  ?shards:int ->
  ?records_per_chunk:int ->
  ?policy:Policy.t ->
  ?commit:commit_mode ->
  path:string ->
  unit ->
  t
(** Open (creating if missing) the service rooted at [path]. [shards]
    (default {!Shard.default_count}) and [records_per_chunk] apply to a
    {e new} service; reopening reads both from the meta file and ignores
    the arguments. [policy] (default [Full_every 8]) decides full vs
    incremental per tenant; [commit] defaults to {!Per_epoch}. Reopening
    truncates torn shard-index tails and validates every surviving entry
    (per-tenant contiguity, chunks present), truncating each shard at its
    first invalid entry. *)

val open_tenant : t -> Schema.t -> name:string -> tenant
(** Open (creating or resuming) the tenant called [name]. Resuming
    rebuilds its chain from the suffix of committed epochs starting at the
    newest full one. Returns the existing handle if already open.
    @raise Error if [name]'s id collides with a different existing name. *)

val tenant_name : tenant -> string
val tenant_shard : tenant -> int

val checkpoint : tenant -> Model.obj list -> int
(** Take the next checkpoint of the tenant's heap (kind per the service
    {!Ickpt_core.Policy}) and submit it for commit; returns its epoch.
    Under a group commit mode the epoch may not be durable yet when this
    returns — {!flush} is the durability barrier. *)

val append : tenant -> Segment.t -> int
(** Submit an externally produced segment as the tenant's next epoch
    (validated for kind/sequence by the tenant's chain). *)

val recover : tenant -> (Heap.t * Model.obj list, string) result
(** Rebuild the tenant's state at its newest {e taken} (not necessarily
    yet committed) epoch from the in-memory chain — the reference
    materialization the fault sweep snapshots committed states with. *)

val epochs : tenant -> int list
(** The tenant's {e committed} epochs, ascending. *)

val latest_epoch : tenant -> int option

val restore : tenant -> epoch:int -> Heap.t * Model.obj list
(** Flush, then materialize the tenant's heap as of [epoch] in O(live
    records), reading only this tenant's entries (and the shared pack).
    @raise Error on an epoch the tenant never committed. *)

val flush : t -> unit
(** Commit every pending checkpoint of every tenant. The durability
    barrier for group commit modes. *)

val evict : t -> name:string -> unit
(** Flush, then drop the tenant's in-memory state (chain, entry cache).
    Its committed epochs stay on disk; {!open_tenant} resumes them. The
    old handle must not be used again. *)

val close : t -> unit
(** Flush. Idempotent; the handle (and every tenant handle) must not be
    used after. *)

val tenants : t -> (int * string) list
(** The catalog: every tenant ever opened here, `(id, name)`, oldest
    first — including evicted and not-currently-open ones. *)

type stats = {
  n_tenants : int;  (** catalog size *)
  n_open : int;  (** tenants currently open *)
  n_epochs : int;  (** committed epochs, all tenants *)
  n_chunks : int;  (** chunks in the shared pack *)
  logical_bytes : int;  (** sum of chunk bytes referenced by all epochs *)
  pack_bytes : int;  (** physical pack bytes *)
  dedup_ratio : float;  (** logical over pack bytes; 1.0 when empty *)
  commit_batches : int;  (** group commits this session (2 fsyncs each) *)
  committed_epochs : int;  (** epochs committed this session *)
  collisions : int;  (** hash collisions absorbed this session *)
}

val stats : t -> stats

val collisions : t -> Store.collision list
(** Hash collisions absorbed by commits this session, oldest first; each
    chunk was stored under a salted rehash ({!Ickpt_cas.Chunk.salted_key})
    instead of failing the tenant's append. *)

val drain_latencies : t -> float list
(** Commit latencies (seconds from submission to durable) of epochs
    committed since the last call, unordered; clears the buffer. *)

val check : t -> string list
(** Integrity check over every tenant's committed entries and the shared
    pack; [[]] means consistent. Salted chunks verify like any other. *)
