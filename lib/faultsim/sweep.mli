(** The crash-consistency sweep: enumerate every power-loss point of a
    deterministic checkpointing run and assert the recovery invariant (I7
    in DESIGN.md) on what survives.

    {e After any crash, reopening recovers committed states only — a
    prefix of the history, never a later state, never garbage —
    recovery neither raises nor fails, and the recovered storage accepts
    further checkpoints that stay readable.}

    A {!target} is one persistence path under test. For each, a
    fault-free reference run records the committed state of every
    checkpoint plus the full op trace; the sweep then re-runs the same
    workload once per (op, byte offset, {!Sim.mode}) crash point and
    checks the survivor with the target's own oracle. Three targets ship:

    - {!log}: the segment log behind [Manager] (sync and async sinks, all
      four policies, with and without compaction, fresh or pre-torn);
    - {!store}: the pack + epoch-index pair of [Ickpt_cas.Store], with a
      mid-run GC;
    - {!service}: the multi-tenant service's inline group commit, three
      tenants over two shards. *)

open Ickpt_core

type target
(** One persistence path under test: a workload, its default number of
    rounds, an oracle and optionally files present before the run. *)

type violation = {
  v_op : int;  (** op index the crash was injected at *)
  v_byte : int;  (** bytes of that op applied before the power loss *)
  v_mode : Sim.mode;
  v_reason : string;
}

type report = {
  r_label : string;  (** the target's label *)
  r_points : int;  (** distinct (op, byte) crash points enumerated *)
  r_runs : int;  (** crash points × modes actually executed *)
  r_violations : violation list;
}

val sweep : ?rounds:int -> ?density:int -> target -> report
(** Sweep one target. [rounds] (default: the target's own, 5 for the log
    and the store, 4 for the service) is the number of mutate-and-
    checkpoint rounds after the base checkpoint; [density] (default 2)
    adds that many evenly spaced interior byte offsets per write op on top
    of the always-tested [{0; 1; len-1; len}]. *)

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** One line (label, points, runs, verdict) plus one per violation. *)

val pp_summary : Format.formatter -> report list -> unit
(** {!pp_report} per report plus a pass/fail tally. *)

(** {1 Targets} *)

type config = {
  label : string;
  async : bool;  (** write segments through {!Async_writer} *)
  policy : Policy.t;
  compact_above : int;  (** as in {!Manager.create} *)
  pre_torn : bool;  (** seed the log with an older chain plus torn garbage *)
}

val config :
  ?async:bool -> ?compact_above:int -> ?pre_torn:bool -> Policy.t -> config
(** Build a log config with a descriptive label. Defaults: sync, no
    compaction, fresh log. *)

val default_configs : config list
(** Sync and async sinks crossed with all four {!Policy} variants, with and
    without auto-compaction, plus two pre-torn resume configs — 18 total. *)

val log : config -> target
(** The segment log under one config. Its oracle: loading and recovering
    yields a state deeply equal to some committed one, and a checkpoint
    appended after recovery reads back. A [pre_torn] config starts from a
    log that already carries a torn tail from an earlier life and sweeps
    from op 0 (resume-after-crash: truncate, then append); the others
    start once the base checkpoint is durable. *)

val store : target
(** The content-addressed store, checkpoints through [Manager.create
    ?sink] and a [Store.gc] after round 3. Its oracle: the store reopens,
    passes [Store.check], every surviving epoch restores to exactly the
    state committed for it, and a post-recovery checkpoint restores. *)

val service : target
(** The multi-tenant service in inline group commit (batches of three):
    "alpha" and "gamma" run byte-identical worlds, so their chunks dedup
    across tenants; "beta" runs value-offset. Its oracle: the service
    reopens and passes [Service.check], every tenant's surviving epochs
    are a prefix [0..n] each restoring to its committed state, and every
    tenant accepts one more restorable checkpoint. *)
