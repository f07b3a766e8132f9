(** The storage layer's view of the filesystem, as a value.

    Everything {!Storage}, {!Async_writer} and {!Manager} do to stable
    storage goes through one of these records, so a test harness can swap
    the real filesystem for a simulated one that injects crashes and I/O
    errors at any write boundary (see [Ickpt_faultsim.Sim]). The default
    everywhere is {!real}, so existing callers are unaffected.

    The durability contract the storage layer relies on:
    - [writer.write] appends bytes to the open file (visible to subsequent
      reads, but not necessarily durable across a power loss);
    - [writer.sync] is the durability point: everything written so far
      survives a crash once it returns;
    - [rename] atomically replaces the destination — after a crash the
      destination holds either the old or the new content, never a mix. *)

type writer = {
  write : string -> unit;  (** append bytes at the end of the file *)
  sync : unit -> unit;  (** flush and fsync: the durability barrier *)
  close : unit -> unit;  (** release the handle; must not raise *)
}

type t = {
  exists : string -> bool;
  read_file : string -> string;  (** whole contents; raises if missing *)
  open_append : string -> writer;  (** append mode, create if missing *)
  open_trunc : string -> writer;  (** truncate-or-create *)
  truncate : string -> len:int -> unit;  (** cut the file to [len] bytes *)
  rename : src:string -> dst:string -> unit;  (** atomic replace *)
  remove : string -> unit;
}

val real : t
(** The actual filesystem. [sync] flushes the channel and [fsync]s the
    descriptor; [rename] is POSIX [rename(2)] (atomic on one filesystem). *)

val write_durably : writer -> ((string -> unit) -> unit) -> unit
(** [write_durably w f] hands [f] the writer's [write], then syncs and
    closes [w] — closing it on error too. Each call [f] makes is one
    [write]. Durable when this returns. *)

type 'a frames = {
  frames : 'a list;  (** every intact frame, file order *)
  valid_len : int;  (** byte length of the intact prefix *)
  contents : string;  (** the whole file as read ([""] when missing) *)
}

val read_frames : t -> string -> (string -> pos:int -> 'a * int) -> 'a frames
(** Decode frames from offset 0 with [decode] (frame and next offset)
    until the end of the file or the first frame that raises
    {!Ickpt_stream.In_stream.Corrupt} or [Invalid_argument] — a torn or
    corrupt tail. A missing file has no frames. Performs no writes; the
    caller decides whether to truncate at [valid_len]. *)
