(** Liveness-minimization ablation (BENCH_6): for each example workload
    (plus an all-live control program), incremental checkpoint bytes of
    the unminimized guarded-specialized run vs the minimized run
    ([Engine.infer ~strategy:(Minimized _)]), the tracked shape nodes the
    {!Staticcheck.Live} analysis kept vs dropped, on-disk pack sizes of
    both chains through the content-addressed store, and the
    {!Ickpt_analysis.Elide_oracle.run_live} restore-equivalence verdict
    gating every row. *)

type row = {
  workload : string;
  epochs : int;
  baseline_bytes : int;
  minimized_bytes : int;
  baseline_per_seg : float;
  minimized_per_seg : float;
  reduction : float;
  blocks_total : int;
  blocks_kept : int;
  blocks_dropped : int;
  pack_baseline : int;
  pack_minimized : int;
  live_cells : int;
  resumes : int;
  reads_checked : int;
  oracle_ok : bool;
}

val name : string
val title : string

val measure_all : unit -> row list
(** One row per workload: the four [examples/workloads/*.mc] programs
    and the built-in all-live control. *)

val json : row list -> string
(** The BENCH_6.json document. *)

val pp_table : Format.formatter -> row list -> unit

val checks : row list -> Workload.check list
(** Oracle passes everywhere; >= 10% reduction somewhere; honest zeros
    (no reduction claimed where no block was dropped); the all-live
    control drops nothing; no silently skipped resumes. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
