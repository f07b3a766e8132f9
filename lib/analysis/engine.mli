(** The phase driver: runs a program's phases, taking a checkpoint at the
    end of every iteration (paper Section 4.2: "the end of an iteration is
    a natural time at which to take a checkpoint"), with one of three
    checkpointing methods:

    - [Full] — record every object each time (the paper's baseline);
    - [Incremental] — the generic Figure-1 algorithm (one full base
      checkpoint, then modified-only);
    - [Specialized] — phase-specific residual code produced by {!Jspec.Pe}
      from the phase's shapes, compiled to closures.

    Two entry points share one checkpoint step and one round driver:
    {!analyze} runs the paper's engine (SEA → BTA → ETA over the program,
    checkpointing the declared {!Attrs} heap); {!infer} runs the program
    itself annotation-free, checkpointing its globals under inferred
    shapes.

    The driver also measures, per iteration, checkpoint construction time
    and (optionally) pure traversal time — re-running the same routine on
    the now-clean heap with a byte-counting sink, which exercises tests and
    dispatch but records nothing (the "traversal time" row of Table 1). *)

open Ickpt_core

type mode = Full | Incremental | Specialized

val pp_mode : Format.formatter -> mode -> unit

(** How {!infer} executes and checkpoints the program. *)
type strategy =
  | Sequential of mode
  | Minimized of { seed_dead : bool }
      (** Specialized, recording under the minimized shapes
          ([Staticcheck.Auto_spec.ph_min_shapes]: may-write ∩ live, dead
          dirty blocks demoted). Not byte-identical to an unminimized
          chain; its contract is restore-equivalence, checked by
          [Elide_oracle.run_live]. [seed_dead] drops one live block from
          the minimized set — the self-test that oracle must catch. *)
  | Parallel of { mode : mode; domains : int; seed_racy : bool }
      (** Executes an {!Staticcheck.Interfere} schedule over [domains]:
          disjoint iteration strips and phase groups run on their own
          domains against {!Dlog} tracking stores, and the master replays
          the write logs in schedule order, so the chain is
          byte-identical to [Sequential mode] whenever the static
          disjointness proof holds. [seed_racy] widens one strip by a
          cell — the self-test for [Elide_oracle.run_par]. *)

type iteration_stat = {
  bytes : int;  (** checkpoint body size *)
  seconds : float;  (** construction time *)
  traversal_seconds : float option;
  guard_seconds : float;
      (** time validating the specialization class before recording
          ([Specialized] mode with guards on; [0.] otherwise — and [0.]
          again when static elision discharges the whole check) *)
  recorded : int;  (** objects recorded (full/incremental modes only) *)
}

type phase_report = {
  phase : string;  (** "sea", "bta", "eta", or a discovered phase name *)
  iterations : int;
  stats : iteration_stat list;  (** one per iteration, in order *)
  analysis_seconds : float;  (** time in the analysis itself *)
}

(** What the run checkpointed: the analysis engine's own attribute heap
    ({!analyze}), or the program's globals materialized as a {!Wheap}
    under fully inferred shapes ({!infer}). *)
type subject =
  | Engine_heap of Attrs.t
  | Workload_heap of { wheap : Wheap.t; auto : Staticcheck.Auto_spec.t }

module Isch = Staticcheck.Interfere.Schedule

type par_unit = {
  pu_phase : string;  (** discovered phase name *)
  pu_label : string;  (** e.g. ["smooth[8,20)"], or ["phase:loop_a"] *)
  pu_group : int;
      (** fork instance: units sharing it ran concurrently — the scope of
          the oracle's pairwise observed-disjointness check *)
  pu_reads : (string * Staticcheck.Regions.t) list;
      (** upward-exposed reads the unit actually performed *)
  pu_writes : (string * Staticcheck.Regions.t) list;
}

type par_report = {
  par_domains : int;
  par_schedule : Isch.t;  (** the static schedule the run executed *)
  par_units : par_unit list;  (** execution order *)
  par_sweeps : int;  (** sweep fan-outs actually executed *)
}

type report = {
  mode : mode;
  n_stmts : int;
  base_bytes : int;  (** size of the initial full checkpoint *)
  phases : phase_report list;
  chain : Chain.t;
  subject : subject;
  env : Minic.Check.env;
  par : par_report option;  (** present iff the strategy was [Parallel] *)
}

val attrs : report -> Attrs.t
(** The attribute heap of an {!analyze} run.
    @raise Invalid_argument on an {!infer} report. *)

val auto_spec : report -> Staticcheck.Auto_spec.t option
(** The inference result of an {!infer} run; [None] otherwise. *)

val wheap : report -> Wheap.t option

exception Preflight_failed of Staticcheck.Spec_lint.diagnostic list

exception Verification_failed of (string * Staticcheck.Tv.verdict) list
(** Residual checkpoint code failed translation validation (see
    {!Staticcheck.Tv.verify}); carries the failing phases (or
    phase/global pairs) with their verdicts. *)

val preflight : Attrs.t -> Staticcheck.Spec_lint.diagnostic list
(** Spec-lint every phase's declared specialization class against the
    statically inferred one (see {!Staticcheck.Infer}). Empty when the
    declarations are exactly as tight as the inference. *)

val analyze :
  ?mode:mode ->
  ?bta_min:int -> ?eta_min:int ->
  ?measure_traversal:bool ->
  ?guard:bool ->
  ?preflight:bool ->
  ?elide:bool ->
  Minic.Ast.program ->
  report
(** The paper's engine: SEA, BTA and ETA over [program], checkpointing the
    {!Attrs} heap after every iteration. The binding-time division is the
    program's globals named in {!Minic.Gen.static_globals}; SEA runs to
    its fixpoint.

    - [mode] (default [Incremental]).
    - [bta_min], [eta_min]: minimum iteration counts (default 1; the
      paper's configuration is 9 and 3).
    - [measure_traversal] (default false): fill
      [iteration_stat.traversal_seconds].
    - [guard] (default false): every specialized checkpoint validates the
      declarations first, raising {!Jspec.Guard.Violated} on a breach.
    - [preflight] (default false): before any phase runs, spec-lint the
      declarations ({!Preflight_failed} on an unsound one) and
      translation-validate every phase's residual code
      ({!Verification_failed} on a refuted or unsupported shape).
    - [elide] (default false): each phase runs under its
      {!Staticcheck.Barrier_elide} plan — setters for sites the phase
      provably never writes bypass the write barrier, and the guard keeps
      only the checks the analysis could not discharge. Checkpoint bytes
      do not change; {!Elide_oracle} verifies this differentially.

    The chain in the result can be recovered to verify the checkpointed
    analysis state (see the crash-recovery example). *)

val infer :
  ?guard:bool -> ?elide:bool -> ?strategy:strategy -> Minic.Ast.program ->
  report
(** Annotation-free run ({!Staticcheck.Auto_spec}): phases are discovered
    from [main]'s top-level structure, the globals become the
    checkpointable {!Wheap}, shapes and elision plans are inferred per
    phase, and the reference interpreter drives the program — one
    checkpoint per setup phase and per round, plus one after a round
    loop's final guard evaluation. A top-level [return] ends the run after
    checkpointing the partial round.

    Every synthesized checkpointer must pass translation validation first,
    in every mode; {!Verification_failed} is raised otherwise (verified or
    refused, never a silent generic fallback). [guard] validates each root
    against its inferred shape before every specialized checkpoint;
    [elide] uses the inferred per-global {!Staticcheck.Barrier_elide.wplan}s
    (the live-extended ones under [Minimized]). [strategy] defaults to
    [Sequential Incremental]. *)

val rounds :
  Staticcheck.Phase_discover.phase ->
  eval:(Minic.Ast.expr -> int) ->
  exec:(unit -> unit) ->
  halted:bool ref ->
  step:(unit -> unit) ->
  int
(** The one Setup/Round driver behind {!infer} (and the oracles that
    re-drive a program): a [Setup] phase runs [exec] once, then [step]; a
    [Round] phase evaluates its guard with [eval], runs [exec] while it
    holds and calls [step] after every evaluation. An
    {!Minic.Interp.Session.Halted} escaping [exec] sets [halted] and ends
    the phase after that round's [step]; a phase entered with [halted] set
    does nothing. Returns the number of [step] calls. *)

val phase_bytes : phase_report -> int

val phase_ckp_seconds : phase_report -> float

val recover_annotations :
  report -> (int * int * int list * int list) list
(** Recover the chain and read back, for each statement (in sid order),
    the tuple [(bt, et, reads, writes)] — used to validate recovery
    end-to-end. @raise Failure when the chain cannot be recovered. *)
