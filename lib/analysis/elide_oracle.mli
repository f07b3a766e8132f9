(** Differential soundness oracle for static write-barrier elision.

    Two dynamic checks per workload, against the static
    {!Staticcheck.Barrier_elide} facts:

    - {b Byte identity}: the workload runs once fully instrumented and
      once with elision ([Engine.analyze ~elide:true]), in both
      incremental and guarded-specialized modes; the two checkpoint
      chains must be byte-identical segment by segment. A wrong elision
      (a barrier removed from a site the phase does write) silently
      drops the site from incremental checkpoints — exactly the
      divergence this comparison catches.

    - {b Invariant I8 (containment)}: decoding every incremental segment
      of the instrumented run and attributing it to its phase (segments
      are positional: one base, then one per iteration in phase order),
      every dynamically dirtied attribute cell must lie inside the
      phase's static may-write region — static may-write ⊇ dynamic
      dirty set. *)

type violation = {
  phase : string;
  site : string;  (** "se-lists", "bt", "et", or "spine" *)
  sid : int;  (** statement id, [-1] when unattributable (VarRef) *)
  detail : string;
}

type outcome = {
  workload : string;
  identical_incremental : bool;
  identical_specialized : bool;
  identical_cross_mode : bool;
      (** the instrumented incremental chain is byte-identical to the
          instrumented specialized chain — the translation-validated
          equivalence of residual and generic code observed end-to-end
          on the real run *)
  violations : violation list;  (** I8 breaches; empty when sound *)
  segments_checked : int;  (** incremental segments decoded for I8 *)
  dirty_cells : int;  (** dynamically dirty attribute cells observed *)
}

val ok : outcome -> bool

val run : name:string -> Minic.Ast.program -> outcome
(** Four engine runs of the workload (instrumented/elided ×
    incremental/guarded-specialized) plus the segment decode. *)

val run_inferred : name:string -> Minic.Ast.program -> outcome
(** The same differential checks for an {e annotation-free} run
    ({!Engine.infer}): four runs of the bare program under
    inferred shapes and inferred elision plans, byte-identity across
    elision and across modes, and I8 over the {!Wheap} — every
    dynamically dirtied block or scalar of the instrumented incremental
    run must lie inside its phase's inferred may-write region.
    [violation.site] carries the global name, [violation.sid] the first
    cell of the offending block. *)

(** {1 Restore-equivalence oracle for minimized checkpoints}

    Minimized chains ([Engine.infer ~strategy:(Minimized _)]) are not
    byte-identical to unminimized ones by construction, so byte identity
    cannot be their soundness check. {!run_live} verifies the semantic
    contract instead, per epoch of the minimized chain:

    - {b restore}: restoring the chain prefix up to that epoch agrees
      with the unminimized restore on every cell the static
      {!Staticcheck.Live} analysis marks live at the epoch's boundary;
    - {b resume}: a run re-driven to the epoch, switched onto the
      minimized restore, and run to completion produces the reference
      return value and final state (compared on live-or-rewritten
      cells — dead unwritten cells may hold stale restored values);
    - {b containment}: every cell the resumed run reads before writing
      lies inside the boundary's live region — the liveness dual of I8
      (static live ⊇ dynamic read-before-write). *)

type live_failure = {
  lf_epoch : int;  (** 0-based incremental epoch; [-1] = whole-run *)
  lf_kind : string;
      (** ["restore"], ["resume-return"], ["resume-state"],
          ["containment"], or ["chain"] *)
  lf_detail : string;
}

type live_outcome = {
  lw_workload : string;
  lw_seeded : bool;  (** ran with [seed_unsound] *)
  lw_epochs : int;  (** incremental epochs checked *)
  lw_live_cells : int;  (** live cells restore-compared, total *)
  lw_resumes : int;  (** resumed executions completed *)
  lw_reads_checked : int;  (** post-switch reads containment-checked *)
  lw_baseline_bytes : int;  (** incremental bytes, unminimized chain *)
  lw_minimized_bytes : int;  (** incremental bytes, minimized chain *)
  lw_failures : live_failure list;  (** empty when equivalent *)
}

val live_ok : live_outcome -> bool

val run_live :
  ?seed_unsound:bool -> name:string -> Minic.Ast.program -> live_outcome
(** Two engine runs (guarded-specialized baseline; minimized with
    live-extended elision), then per epoch: both prefixes restored and
    compared on live cells, one resumed execution, and the containment
    check. [seed_unsound] sets [seed_dead] in the minimized run —
    one deliberately mis-minimized block that {e must} surface as a
    failure here (no static finding fires), proving this oracle gates.
    @raise Engine.Verification_failed as {!Engine.infer} does. *)

val pp_live : Format.formatter -> live_outcome -> unit

(** {1 Sequential-identity oracle for parallel execution}

    Parallel runs ([Engine.infer ~strategy:(Parallel _)]) promise
    {e byte identity} with the sequential chain: domain-local write logs
    replayed in schedule order produce the same barrier stream whenever
    the units' footprints were really disjoint. Identity alone cannot gate, though —
    an overlap that happens to write the same value keeps the chain
    identical while the run is still racy (the [seed_racy] self-test
    demonstrates exactly this). {!run_par} therefore also intersects the
    footprints each domain {e actually observed} (upward-exposed reads
    and all writes, from the {!Dlog}s), pairwise within every fork
    group — the parallel dual of invariant I8. *)

type par_conflict = {
  pc_mode : string;  (** ["incremental"] or ["specialized"] *)
  pc_group : int;  (** fork instance the two units shared *)
  pc_a : string;  (** unit label, e.g. ["smooth[8,20)"] *)
  pc_b : string;
  pc_detail : string;
}

type par_outcome = {
  pw_workload : string;
  pw_domains : int;
  pw_seeded : bool;  (** the schedule actually injected the racy seed *)
  pw_identical_incremental : bool;
  pw_identical_specialized : bool;
  pw_par_units : int;  (** parallel units executed (incremental run) *)
  pw_par_sweeps : int;  (** sweep fan-outs executed (incremental run) *)
  pw_pairs_checked : int;  (** unit pairs disjointness-checked, both modes *)
  pw_conflicts : par_conflict list;  (** empty when the run was race-free *)
}

val par_ok : par_outcome -> bool

val run_par :
  ?seed_racy:bool ->
  ?domains:int ->
  name:string ->
  Minic.Ast.program ->
  par_outcome
(** Four engine runs ([Sequential] vs [Parallel] over [domains], in
    incremental and guarded-specialized modes; [domains] defaults to 4), chain
    comparison per mode, and the pairwise observed-footprint check over
    both parallel runs' fork groups. [seed_racy] is forwarded to the
    parallel runs; [pw_seeded] reports whether the schedule found
    anything to seed (a workload with no multi-strip sweep cannot be
    seeded). A seeded run must {e not} be [par_ok] — that is the
    self-test that this oracle gates.
    @raise Engine.Verification_failed as {!Engine.infer} does. *)

val pp_par : Format.formatter -> par_outcome -> unit

val builtin_workloads : unit -> (string * Minic.Ast.program) list
(** The generator workloads the test suite and CLI default to:
    the image program and the small program of {!Minic.Gen}. *)

val pp : Format.formatter -> outcome -> unit
