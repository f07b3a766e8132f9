open Ickpt_core
open Ickpt_harness
module As = Staticcheck.Auto_spec
module Pd = Staticcheck.Phase_discover
module Be = Staticcheck.Barrier_elide
module Session = Minic.Interp.Session

type mode = Full | Incremental | Specialized

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Full -> "full"
    | Incremental -> "incremental"
    | Specialized -> "specialized")

type strategy =
  | Sequential of mode
  | Minimized of { seed_dead : bool }
  | Parallel of { mode : mode; domains : int; seed_racy : bool }

type iteration_stat = {
  bytes : int;
  seconds : float;
  traversal_seconds : float option;
  guard_seconds : float;
  recorded : int;
}

type phase_report = {
  phase : string;
  iterations : int;
  stats : iteration_stat list;
  analysis_seconds : float;
}

type subject =
  | Engine_heap of Attrs.t
  | Workload_heap of { wheap : Wheap.t; auto : As.t }

module Isch = Staticcheck.Interfere.Schedule

type par_unit = {
  pu_phase : string;
  pu_label : string;
  pu_group : int;
  pu_reads : (string * Staticcheck.Regions.t) list;
  pu_writes : (string * Staticcheck.Regions.t) list;
}

type par_report = {
  par_domains : int;
  par_schedule : Isch.t;
  par_units : par_unit list;
  par_sweeps : int;
}

type report = {
  mode : mode;
  n_stmts : int;
  base_bytes : int;
  phases : phase_report list;
  chain : Chain.t;
  subject : subject;
  env : Minic.Check.env;
  par : par_report option;
}

let attrs r =
  match r.subject with
  | Engine_heap a -> a
  | Workload_heap _ ->
      invalid_arg "Engine.attrs: annotation-free run has no attribute heap"

let auto_spec r =
  match r.subject with Workload_heap { auto; _ } -> Some auto | _ -> None

let wheap r =
  match r.subject with Workload_heap { wheap; _ } -> Some wheap | _ -> None

exception Preflight_failed of Staticcheck.Spec_lint.diagnostic list

exception Verification_failed of (string * Staticcheck.Tv.verdict) list

(* The three declared phases in run order, with their static phase model
   and declared specialization class. *)
let declared_phases attrs =
  Staticcheck.Phase_model.
    [ ("sea", Sea, Attrs.sea_shape attrs);
      ("bta", Bta, Attrs.bta_shape attrs);
      ("eta", Eta, Attrs.eta_shape attrs) ]

(* The pre-flight check: every phase's declared specialization class must
   agree with the statically inferred one. Program-independent (the
   shapes are fixed by the Attrs schema), but cheap enough to run per
   engine invocation. *)
let preflight attrs =
  let klasses = Attrs.klasses attrs in
  List.concat_map
    (fun (_, phase, declared) ->
      Staticcheck.Spec_lint.check_phase ~klasses phase ~declared)
    (declared_phases attrs)

(* Translation-validate each phase's residual code against the generic
   algorithm, going through the spec cache both for the plan and for the
   verdict: a shape verified once in this engine run (or shared between
   phases) is not re-verified. *)
let verify_phases ~cache attrs =
  List.filter_map
    (fun (name, _, shape) ->
      let plan = Jspec.Spec_cache.plan cache shape in
      match Jspec.Spec_cache.cached_verdict cache shape plan.Jspec.Pe.body with
      | Some true -> None
      | Some false | None ->
          (* A cached [false] is re-verified: the failure report needs the
             full verdict, and failing analyze runs are not the hot path. *)
          let v = Staticcheck.Tv.verify shape plan in
          Jspec.Spec_cache.set_verdict cache shape plan.Jspec.Pe.body
            (Staticcheck.Tv.ok v);
          if Staticcheck.Tv.ok v then None else Some (name, v))
    (declared_phases attrs)

let phase_bytes p = List.fold_left (fun acc s -> acc + s.bytes) 0 p.stats

let phase_ckp_seconds p =
  List.fold_left (fun acc s -> acc +. s.seconds) 0.0 p.stats

(* ---- the checkpoint step ------------------------------------------------- *)

(* What one phase checkpoints: its roots, the (shape, root) pairs to
   validate before every specialized checkpoint (already pruned by
   elision; empty when guards are off), and its specialized recorder. *)
type target = {
  roots : Ickpt_runtime.Model.obj list;
  guards : (Jspec.Sclass.shape * Ickpt_runtime.Model.obj) list;
  record : Ickpt_stream.Out_stream.t -> unit;
}

(* One checkpoint, returning its stat. Specialized mode records through
   the residual routines and appends the segment itself, so its bytes
   match the generic incremental checkpoint of the same heap. With
   [measure_traversal] the same routine re-runs on the now-clean heap
   into a byte-counting sink. *)
let checkpoint_step ~mode ~measure_traversal ~chain t =
  let traversal f =
    if not measure_traversal then None
    else
      let sink = Ickpt_stream.Out_stream.sink () in
      Some (snd (Clock.time (fun () -> f sink)))
  in
  let generic take walk =
    let (taken : Chain.taken), seconds =
      Clock.time (fun () -> take chain t.roots)
    in
    { bytes = Segment.body_size taken.Chain.segment;
      seconds;
      traversal_seconds = traversal (fun sink -> walk sink t.roots);
      guard_seconds = 0.0;
      recorded = taken.Chain.stats.Checkpointer.recorded }
  in
  match mode with
  | Full -> generic Chain.take_full (Checkpointer.full_many ?stats:None)
  | Incremental ->
      generic Chain.take_incremental (Checkpointer.incremental_many ?stats:None)
  | Specialized ->
      let (), guard_seconds =
        Clock.time (fun () ->
            List.iter
              (fun (shape, root) ->
                match Jspec.Guard.check shape root with
                | [] -> ()
                | v :: _ -> raise (Jspec.Guard.Violated v))
              t.guards)
      in
      let d = Ickpt_stream.Out_stream.create () in
      let (), seconds = Clock.time (fun () -> t.record d) in
      let body = Ickpt_stream.Out_stream.contents d in
      Chain.append chain
        { Segment.kind = Segment.Incremental;
          seq = Chain.next_seq chain;
          roots =
            List.map
              (fun (o : Ickpt_runtime.Model.obj) ->
                o.Ickpt_runtime.Model.info.Ickpt_runtime.Model.id)
              t.roots;
          body };
      { bytes = String.length body;
        seconds;
        traversal_seconds = traversal t.record;
        guard_seconds;
        recorded = -1 }

(* Per-phase bookkeeping: [step] takes one checkpoint and logs its stat;
   [finish] reports the phase, charging to the analysis what is left of
   the phase's wall time once every checkpoint-side second (record,
   guard, traversal) is taken out. *)
let phase_log ~mode ~measure_traversal ~chain target =
  let stats = ref [] in
  let ckp_total = ref 0.0 in
  let step () =
    let stat = checkpoint_step ~mode ~measure_traversal ~chain target in
    ckp_total :=
      !ckp_total +. stat.seconds +. stat.guard_seconds
      +. Option.value ~default:0.0 stat.traversal_seconds;
    stats := stat :: !stats
  in
  let finish ~phase ~iterations ~seconds =
    { phase;
      iterations;
      stats = List.rev !stats;
      analysis_seconds = Float.max 0.0 (seconds -. !ckp_total) }
  in
  (step, finish)

(* ---- declared runs ------------------------------------------------------- *)

let analyze ?(mode = Incremental) ?(bta_min = 1) ?(eta_min = 1)
    ?(measure_traversal = false) ?(guard = false) ?preflight:(gate = false)
    ?(elide = false) program =
  let env = Minic.Check.check program in
  (* The binding-time division: the generator's static globals that this
     program declares. *)
  let division =
    List.filter
      (fun g -> List.mem_assoc g env.Minic.Check.global_ids)
      Minic.Gen.static_globals
  in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count program) in
  let cache = Jspec.Spec_cache.create () in
  if gate then begin
    let ds = preflight attrs in
    if Staticcheck.Spec_lint.has_unsound ds then raise (Preflight_failed ds);
    match verify_phases ~cache attrs with
    | [] -> ()
    | failures -> raise (Verification_failed failures)
  end;
  let chain = Chain.create (Attrs.schema attrs) in
  let roots = Attrs.roots attrs in
  (* Base checkpoint: everything is fresh, so record it all once. *)
  let base = Chain.take_full chain roots in
  (* One phase under its Barrier_elide plan: setters the dirty-region
     analysis proves dead are rerouted around the write barrier and the
     guard is pruned to the checks the analysis could not discharge. The
     planner only elides sites whose may-write region is empty, so this
     cannot change checkpoint bytes — which the elision oracle re-verifies
     differentially on every workload. The plan cache compiles each
     phase shape once, however many iterations run. *)
  let run_phase (name, phase, shape) analysis =
    let plan = if elide then Some (Be.plan ~declared:shape phase) else None in
    let guard_shape =
      match plan with
      | _ when not guard -> None
      | None -> Some shape
      | Some p -> p.Be.guard_shape
    in
    let record =
      match mode with
      | Specialized ->
          let run = Jspec.Spec_cache.runner cache shape in
          fun sink -> List.iter (run sink) roots
      | Full | Incremental -> ignore
    in
    let guards =
      match guard_shape with
      | None -> []
      | Some s -> List.map (fun r -> (s, r)) roots
    in
    let step, finish =
      phase_log ~mode ~measure_traversal ~chain { roots; guards; record }
    in
    let dead s =
      match plan with None -> false | Some p -> List.mem s (Be.elided p)
    in
    Attrs.set_barrier_plan attrs
      { Attrs.lists_elided = dead Be.Lists;
        bt_elided = dead Be.Bt;
        et_elided = dead Be.Et };
    let iterations, seconds =
      Fun.protect
        ~finally:(fun () -> Attrs.set_barrier_plan attrs Attrs.no_elision)
        (fun () ->
          Clock.time (fun () -> analysis ~on_iteration:(fun _ -> step ())))
    in
    finish ~phase:name ~iterations ~seconds
  in
  (* List.map2 applies [run_phase] in list order — SEA before BTA before
     ETA, so the chain's segments follow phase order. *)
  let phases =
    List.map2 run_phase (declared_phases attrs)
      [ (fun ~on_iteration -> Sea.run ~on_iteration env attrs);
        (fun ~on_iteration ->
          Bta_phase.run ~on_iteration ~min_iterations:bta_min ~division env
            attrs);
        (fun ~on_iteration ->
          Eta_phase.run ~on_iteration ~min_iterations:eta_min ~division env
            attrs) ]
  in
  { mode;
    n_stmts = Attrs.n_stmts attrs;
    base_bytes = Segment.body_size base.Chain.segment;
    phases;
    chain;
    subject = Engine_heap attrs;
    env;
    par = None }

(* ---- annotation-free (inferred) runs ------------------------------------- *)

(* Drive one discovered phase: a [Setup] phase executes once and
   checkpoints; a [Round] phase checkpoints after every loop iteration,
   plus once after the final (false) guard evaluation — guard effects
   belong to the round, so they must land in a segment of this phase. A
   top-level [return] ([Session.Halted], caught here) sets [halted]: the
   partial round is still checkpointed, and a phase entered halted runs
   and checkpoints nothing. *)
let rounds (ph : Pd.phase) ~eval ~exec ~halted ~step =
  let exec () = try exec () with Session.Halted _ -> halted := true in
  match ph.Pd.p_kind with
  | _ when !halted -> 0
  | Pd.Setup ->
      exec ();
      step ();
      1
  | Pd.Round { cond } ->
      let rec go n =
        if !halted then n
        else
          let more = eval cond <> 0 in
          if more then exec ();
          step ();
          if more then go (n + 1) else n + 1
      in
      go 0

(* The inference contract is unconditional: verified or refused. The
   gate holds in every mode — even a plain incremental run must not
   execute under shapes whose residual code failed validation. *)
let verify_inferred ~minimize (auto : As.t) =
  let failures =
    List.concat_map
      (fun (pr : As.phase_result) ->
        let gate verdicts =
          List.filter_map
            (fun (g, v) ->
              if Staticcheck.Tv.ok v then None
              else Some (pr.As.ph.Pd.p_name ^ "/" ^ g, v))
            verdicts
        in
        gate pr.As.ph_verdicts
        @ if minimize then gate pr.As.ph_min_verdicts else [])
      auto.As.a_phases
  in
  if failures <> [] then raise (Verification_failed failures)

(* The program itself drives the discovered phases, one checkpoint per
   round. Minimized runs record under the pruned shapes (dirty-but-dead
   blocks demoted) while guards keep validating the original shapes, which
   the dynamic heap actually conforms to.

   A [Parallel] strategy consumes an {!Staticcheck.Interfere} schedule:
   statically disjoint iteration strips (and whole independent phases)
   execute on their own OCaml domains against domain-local {!Dlog}
   tracking stores; the master then replays each unit's write log in
   schedule order — not completion order — through the barriered
   [Wheap.store], so the write-barrier stream, and hence the chain, is
   byte-identical to a sequential run. The observed per-domain footprints
   land in the [par_report] for [Elide_oracle.run_par]'s dynamic
   disjointness check. *)
let infer ?(guard = false) ?(elide = false)
    ?(strategy = Sequential Incremental) program =
  let mode, minimize, seed_dead =
    match strategy with
    | Sequential mode | Parallel { mode; _ } -> (mode, false, false)
    | Minimized { seed_dead } -> (Specialized, true, seed_dead)
  in
  let env = Minic.Check.check program in
  let auto = As.infer ~seed_dead env in
  verify_inferred ~minimize auto;
  let sched =
    match strategy with
    | Parallel { domains; seed_racy; _ } ->
        Some (Staticcheck.Interfere.schedule ~domains ~seed_racy auto)
    | Sequential _ | Minimized _ -> None
  in
  let wheap = Wheap.create auto.As.a_encoding in
  let ws = Wheap.store wheap in
  let chain = Chain.create (Wheap.schema wheap) in
  let roots = Wheap.roots wheap in
  let base = Chain.take_full chain roots in
  let session = Session.start ~store:ws program in
  let halted = ref false in
  (* Open a phase's checkpoint log under its elision set. Minimized runs
     use the live-extended plan: barriers on write-only-before-death
     globals are dead weight. Byte-identity runs keep the may-write-only
     plan. A global whose barrier is elided was proven unwritten, so its
     guard is statically discharged. *)
  let open_phase (pr : As.phase_result) =
    let elided =
      if not elide then []
      else Be.welided (if minimize then pr.As.ph_live_wplan else pr.As.ph_wplan)
    in
    Wheap.set_elided wheap elided;
    let bind shapes =
      List.map (fun (g, shape) -> (shape, Wheap.root_of wheap g)) shapes
    in
    let guards =
      if not guard then []
      else
        bind
          (List.filter (fun (g, _) -> not (List.mem g elided)) pr.As.ph_shapes)
    in
    let record =
      match mode with
      | Specialized ->
          let runs =
            List.map
              (fun (shape, root) ->
                (Jspec.Spec_cache.runner auto.As.a_cache shape, root))
              (bind (if minimize then pr.As.ph_min_shapes else pr.As.ph_shapes))
          in
          fun sink -> List.iter (fun (run, root) -> run sink root) runs
      | Full | Incremental -> ignore
    in
    let step, finish =
      phase_log ~mode ~measure_traversal:false ~chain { roots; guards; record }
    in
    (* A minimized recorder consumes only the flags of the blocks it
       keeps; a demoted block's flag would stay set and trip a later
       phase's (original-shape) guard. Sweep the graph clean: the
       checkpoint just taken is the new baseline. *)
    let step () =
      step ();
      if minimize then Wheap.clear_modified wheap
    in
    let finish ~iterations ~seconds =
      Wheap.set_elided wheap [];
      finish ~phase:pr.As.ph.Pd.p_name ~iterations ~seconds
    in
    (step, finish)
  in
  (* Parallel bookkeeping: every fan-out (one sweep execution, one phase
     group) is a fork instance; the observed footprints of its units are
     what the oracle's dynamic disjointness check compares. *)
  let par_units = ref [] in
  let fork = ref 0 in
  let sweeps_run = ref 0 in
  let record_unit ~phase ~label ~group d =
    par_units :=
      { pu_phase = phase; pu_label = label; pu_group = group;
        pu_reads = Dlog.observed_reads d; pu_writes = Dlog.observed_writes d }
      :: !par_units
  in
  (* One sweep fan-out: strips run their self-contained programs on fresh
     domains against a common snapshot, then the master replays the write
     logs in strip order through the (possibly elision-rerouted) barriered
     store. Strip programs cannot halt (sweep recognition refuses
     returns). *)
  let run_sweep ph_name (sw : Isch.sweep) =
    incr fork;
    incr sweeps_run;
    let fid = !fork in
    let snapshot = Dlog.snapshot_of_wheap wheap in
    let dlogs =
      sw.Isch.sw_strips
      |> List.map (fun (st : Isch.strip) ->
             Domain.spawn (fun () ->
                 let d = Dlog.create snapshot in
                 let s =
                   Session.start ~store:(Dlog.store d) st.Isch.st_program
                 in
                 (match Minic.Ast.find_func st.Isch.st_program "main" with
                 | Some main -> Session.exec_block s main.Minic.Ast.f_body
                 | None -> ());
                 d))
      |> List.map Domain.join
    in
    List.iter2
      (fun (st : Isch.strip) d ->
        record_unit ~phase:ph_name
          ~label:
            (Printf.sprintf "%s[%d,%d)" sw.Isch.sw_func st.Isch.st_lo
               st.Isch.st_hi)
          ~group:fid d;
        Dlog.replay ws ~on_mark:(fun () -> ()) d)
      sw.Isch.sw_strips dlogs
  in
  (* One phase, driven by the master session. With a schedule, a round
     body walks its unit plan — serial statements on the master, sweeps
     fanned out — which is the program-order execution the sequential
     driver performs, minus the strip-internal reordering the schedule
     proved unobservable. *)
  let run_one ((pr : As.phase_result), pso) =
    let ph = pr.As.ph in
    let step, finish = open_phase pr in
    let exec () =
      match pso with
      | Some ps when ps.Isch.ps_units <> [] ->
          List.iter
            (function
              | Isch.Serial s -> Session.exec_block session [ s ]
              | Isch.Par_sweep sw -> run_sweep ph.Pd.p_name sw)
            ps.Isch.ps_units
      | _ -> Session.exec_block session ph.Pd.p_body
    in
    let iterations, seconds =
      Clock.time (fun () ->
          rounds ph ~eval:(Session.eval session) ~exec ~halted ~step)
    in
    finish ~iterations ~seconds
  in
  (* A parallel phase group: each member phase runs to completion on its
     own domain (its own session over the blanked program, master locals
     injected), then the master replays member logs in schedule order,
     checkpointing at each mark under that member's elision set and
     carrying back the locals the member may write. A member that halted
     discards every later member's work — the sequential run would never
     have executed it. *)
  let zero_phase (pr : As.phase_result) =
    { phase = pr.As.ph.Pd.p_name;
      iterations = 0;
      stats = [];
      analysis_seconds = 0.0 }
  in
  let main_local_names =
    match Minic.Ast.find_func program "main" with
    | Some f -> List.map (fun d -> d.Minic.Ast.v_name) f.Minic.Ast.f_locals
    | None -> []
  in
  let run_group members =
    if !halted then List.map (fun (pr, _) -> zero_phase pr) members
    else begin
      incr fork;
      let fid = !fork in
      let snapshot = Dlog.snapshot_of_wheap wheap in
      let locals0 = Session.locals session in
      let blank =
        { program with
          Minic.Ast.funcs =
            List.map
              (fun f ->
                if f.Minic.Ast.f_name = "main" then
                  { f with Minic.Ast.f_body = [] }
                else f)
              program.Minic.Ast.funcs }
      in
      let results, fan_seconds =
        Clock.time (fun () ->
            members
            |> List.map (fun ((pr : As.phase_result), _) ->
                   Domain.spawn (fun () ->
                       let ph = pr.As.ph in
                       let d = Dlog.create snapshot in
                       let s = Session.start ~store:(Dlog.store d) blank in
                       List.iter
                         (fun (n, v) -> Session.set_local s n v)
                         locals0;
                       let halted = ref false in
                       let n =
                         rounds ph ~eval:(Session.eval s)
                           ~exec:(fun () -> Session.exec_block s ph.Pd.p_body)
                           ~halted
                           ~step:(fun () -> Dlog.mark d)
                       in
                       (d, n, !halted, Session.locals s)))
            |> List.map Domain.join)
      in
      let fan = ref fan_seconds in
      List.map2
        (fun ((pr : As.phase_result), pso) (d, iterations, h, finals) ->
          let ph = pr.As.ph in
          if !halted then zero_phase pr
          else begin
            let step, finish = open_phase pr in
            record_unit ~phase:ph.Pd.p_name ~label:("phase:" ^ ph.Pd.p_name)
              ~group:fid d;
            let (), secs =
              Clock.time (fun () -> Dlog.replay ws ~on_mark:step d)
            in
            (match pso with
            | Some (ps : Isch.phase_sched) ->
                let pairs =
                  try List.combine ph.Pd.p_lifted main_local_names
                  with Invalid_argument _ -> []
                in
                List.iter
                  (fun (lifted, orig) ->
                    let written =
                      match
                        List.assoc_opt lifted
                          ps.Isch.ps_foot.Staticcheck.Interfere.fp_writes
                      with
                      | Some r -> not (Staticcheck.Regions.is_bot r)
                      | None -> false
                    in
                    if written then
                      match List.assoc_opt orig finals with
                      | Some v -> Session.set_local session orig v
                      | None -> ())
                  pairs
            | None -> ());
            if h then halted := true;
            let own = !fan in
            fan := 0.0;
            finish ~iterations ~seconds:(own +. secs)
          end)
        members results
    end
  in
  (* Pair phases with their schedule entries and split into maximal runs
     of one group id; singleton runs take the sequential driver. *)
  let paired =
    match sched with
    | None -> List.map (fun pr -> (pr, None)) auto.As.a_phases
    | Some sc ->
        List.map2
          (fun pr ps -> (pr, Some ps))
          auto.As.a_phases sc.Isch.sc_phases
  in
  let runs =
    let rev_runs =
      List.fold_left
        (fun acc ((_, pso) as x) ->
          match (acc, pso) with
          | (((_, Some prev) :: _) as cur) :: rest, Some (ps : Isch.phase_sched)
            when prev.Isch.ps_group = ps.Isch.ps_group ->
              (x :: cur) :: rest
          | _ -> [ x ] :: acc)
        [] paired
    in
    List.rev_map List.rev rev_runs
  in
  let phases =
    List.concat_map
      (function [ one ] -> [ run_one one ] | many -> run_group many)
      runs
  in
  let par =
    Option.map
      (fun (sc : Isch.t) ->
        { par_domains = sc.Isch.sc_domains;
          par_schedule = sc;
          par_units = List.rev !par_units;
          par_sweeps = !sweeps_run })
      sched
  in
  { mode;
    n_stmts = Minic.Ast.stmt_count program;
    base_bytes = Segment.body_size base.Chain.segment;
    phases;
    chain;
    subject = Workload_heap { wheap; auto };
    env;
    par }

let recover_annotations report =
  match Chain.recover report.chain with
  | Error e -> failwith ("recover_annotations: " ^ e)
  | Ok (_heap, roots) ->
      let open Ickpt_runtime in
      let child_exn o i =
        match o.Model.children.(i) with
        | Some c -> c
        | None -> failwith "recover_annotations: missing child"
      in
      let chain_to_list head =
        let rec go acc = function
          | None -> List.rev acc
          | Some (o : Model.obj) -> go (o.Model.ints.(0) :: acc) o.Model.children.(0)
        in
        go [] head
      in
      List.map
        (fun attr ->
          let se = child_exn attr 0 in
          let bt = (child_exn (child_exn attr 1) 0).Model.ints.(0) in
          let et = (child_exn (child_exn attr 2) 0).Model.ints.(0) in
          let reads = chain_to_list se.Model.children.(0) in
          let writes = chain_to_list se.Model.children.(1) in
          (bt, et, reads, writes))
        roots
