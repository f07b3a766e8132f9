open Ickpt_core

type violation = {
  phase : string;
  site : string;
  sid : int;
  detail : string;
}

type outcome = {
  workload : string;
  identical_incremental : bool;
  identical_specialized : bool;
  identical_cross_mode : bool;
  violations : violation list;
  segments_checked : int;
  dirty_cells : int;
}

let ok o =
  o.identical_incremental && o.identical_specialized && o.identical_cross_mode
  && o.violations = []

(* ---- plumbing shared by every oracle below --------------------------------

   The four oracle families (declared elision, inferred elision, liveness
   minimization, parallel execution) slice chains and attribute segments
   to phases the same way; they diverge only in their verdict
   predicates. *)

let chains_identical a b =
  let key (s : Segment.t) =
    (s.Segment.kind, s.Segment.seq, s.Segment.roots, s.Segment.body)
  in
  List.map key (Chain.segments a) = List.map key (Chain.segments b)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let split_at n segs =
  let rec go n segs =
    if n = 0 then ([], segs)
    else
      match segs with
      | [] -> ([], [])
      | s :: rest ->
          let mine, others = go (n - 1) rest in
          (s :: mine, others)
  in
  go n segs

let split_chain (c : Chain.t) =
  let segs = Chain.segments c in
  ( List.filter (fun (s : Segment.t) -> s.Segment.kind = Segment.Full) segs,
    List.filter
      (fun (s : Segment.t) -> s.Segment.kind = Segment.Incremental)
      segs )

let bytes segs =
  List.fold_left (fun acc s -> acc + Segment.body_size s) 0 segs

(* Walk an instrumented run's incremental segments positionally — the
   phases ran in order, one segment per iteration, after the single full
   base segment — decoding each segment's records for the per-phase
   verdict closure [on_phase] returns. Counts (segments, records)
   decoded. *)
let attribute_records ~schema chain phases ~iterations ~on_phase =
  let segments = ref 0 and records = ref 0 in
  let rec go segs = function
    | [] -> ()
    | p :: rest ->
        let mine, others = split_at (iterations p) segs in
        let on_record = on_phase p in
        List.iter
          (fun (s : Segment.t) ->
            incr segments;
            List.iter
              (fun r ->
                incr records;
                on_record r)
              (Restore.records_of_body schema s.Segment.body))
          mine;
        go others rest
  in
  go (snd (split_chain chain)) phases;
  (!segments, !records)

(* The id → (site, sid) map of the attribute tree: which statically
   analyzed site each heap object's dirty flag stands for. VarRef chain
   nodes are allocated dynamically and are not in the map; they belong
   to the se-lists site of whatever SEEntry points at them. *)
type owner = Spine | Site of Staticcheck.Barrier_elide.site

let owner_map attrs =
  let tbl = Hashtbl.create 256 in
  let id (o : Ickpt_runtime.Model.obj) =
    o.Ickpt_runtime.Model.info.Ickpt_runtime.Model.id
  in
  let child (o : Ickpt_runtime.Model.obj) i =
    match o.Ickpt_runtime.Model.children.(i) with
    | Some c -> c
    | None -> invalid_arg "Elide_oracle: attribute spine child missing"
  in
  for sid = 0 to Attrs.n_stmts attrs - 1 do
    let attr = Attrs.attr attrs sid in
    Hashtbl.replace tbl (id attr) (Spine, sid);
    Hashtbl.replace tbl (id (child attr 1)) (Spine, sid);
    Hashtbl.replace tbl (id (child attr 2)) (Spine, sid);
    Hashtbl.replace tbl
      (id (Attrs.se_entry attrs sid))
      (Site Staticcheck.Barrier_elide.Lists, sid);
    Hashtbl.replace tbl
      (id (Attrs.bt_obj attrs sid))
      (Site Staticcheck.Barrier_elide.Bt, sid);
    Hashtbl.replace tbl
      (id (Attrs.et_obj attrs sid))
      (Site Staticcheck.Barrier_elide.Et, sid)
  done;
  tbl

let phase_of_name = function
  | "sea" -> Staticcheck.Phase_model.Sea
  | "bta" -> Staticcheck.Phase_model.Bta
  | "eta" -> Staticcheck.Phase_model.Eta
  | p -> invalid_arg ("Elide_oracle: unknown phase " ^ p)

(* Check invariant I8 against the incremental instrumented run: every
   record in a phase's segments must be a cell of a site region the
   phase may write. *)
let check_containment (report : Engine.report) =
  let attrs = Engine.attrs report in
  let schema = Attrs.schema attrs in
  let owners = owner_map attrs in
  let varref_kid =
    (Ickpt_runtime.Schema.find_name schema "VarRef").Ickpt_runtime.Model.kid
  in
  let violations = ref [] in
  let on_phase (p : Engine.phase_report) =
    let phase = phase_of_name p.Engine.phase in
    let region site =
      Staticcheck.Barrier_elide.site_region_for
        ~n_stmts:(Attrs.n_stmts attrs) phase site
    in
    fun (r : Restore.record) ->
      let add site sid detail =
        violations :=
          { phase = p.Engine.phase; site; sid; detail } :: !violations
      in
      match Hashtbl.find_opt owners r.Restore.rec_id with
      | Some (Spine, sid) ->
          add "spine" sid
            "attribute-tree spine object dirtied; no phase may modify the \
             spine"
      | Some (Site site, sid) ->
          if not (Staticcheck.Regions.mem sid (region site)) then
            add
              (Staticcheck.Barrier_elide.site_name site)
              sid
              (Format.asprintf
                 "dirty cell %d outside static may-write region %a" sid
                 Staticcheck.Regions.pp (region site))
      | None ->
          if r.Restore.rec_kid = varref_kid then begin
            if
              Staticcheck.Regions.is_bot
                (region Staticcheck.Barrier_elide.Lists)
            then
              add "se-lists" (-1)
                "VarRef dirtied in a phase whose se-lists may-write region \
                 is empty"
          end
          else
            add "?" (-1)
              (Printf.sprintf "record for unknown object id %d (class id %d)"
                 r.Restore.rec_id r.Restore.rec_kid)
  in
  let segments_checked, dirty_cells =
    attribute_records ~schema report.Engine.chain report.Engine.phases
      ~iterations:(fun p -> p.Engine.iterations)
      ~on_phase
  in
  (List.rev !violations, segments_checked, dirty_cells)

(* The four engine runs every byte-identity oracle performs — instrumented
   vs elided, in incremental and guarded-specialized modes — plus one
   containment decode of the instrumented incremental run. *)
let differential ~name ~analyze ~containment =
  let inst_inc = analyze ~mode:Engine.Incremental ~guard:false ~elide:false in
  let elid_inc = analyze ~mode:Engine.Incremental ~guard:false ~elide:true in
  let inst_spec = analyze ~mode:Engine.Specialized ~guard:true ~elide:false in
  let elid_spec = analyze ~mode:Engine.Specialized ~guard:true ~elide:true in
  let violations, segments_checked, dirty_cells = containment inst_inc in
  { workload = name;
    identical_incremental =
      chains_identical inst_inc.Engine.chain elid_inc.Engine.chain;
    identical_specialized =
      chains_identical inst_spec.Engine.chain elid_spec.Engine.chain;
    identical_cross_mode =
      chains_identical inst_inc.Engine.chain inst_spec.Engine.chain;
    violations;
    segments_checked;
    dirty_cells }

let run ~name program =
  differential ~name
    ~analyze:(fun ~mode ~guard ~elide ->
      Engine.analyze ~mode ~guard ~elide program)
    ~containment:check_containment

(* ---- annotation-free (inferred) runs -------------------------------------- *)

(* I8 over the workload heap: every record of the instrumented
   incremental run, attributed positionally to its discovered phase,
   must be a block (or scalar) the phase's inferred may-write region
   meets. Headers never change after the base checkpoint, so a dirty
   header is always a violation. *)
let check_containment_inferred (report : Engine.report) =
  let wheap =
    match Engine.wheap report with
    | Some w -> w
    | None -> invalid_arg "Elide_oracle: not an inferred run"
  in
  let auto = Option.get (Engine.auto_spec report) in
  let schema = Wheap.schema wheap in
  let violations = ref [] in
  let on_phase
      ( (p : Engine.phase_report),
        (pr : Staticcheck.Auto_spec.phase_result) ) =
    let region g =
      match List.assoc_opt g pr.Staticcheck.Auto_spec.ph_regions with
      | Some r -> r
      | None -> Staticcheck.Regions.bot
    in
    fun (r : Restore.record) ->
      let add site sid detail =
        violations :=
          { phase = p.Engine.phase; site; sid; detail } :: !violations
      in
      match Wheap.owner_of wheap r.Restore.rec_id with
      | Some (g, Wheap.Scalar_slot) ->
          if Staticcheck.Regions.is_bot (region g) then
            add g 0
              "scalar dirtied in a phase whose may-write region for it is \
               empty"
      | Some (g, Wheap.Header) ->
          add g (-1)
            "array header dirtied; headers are immutable after the base \
             checkpoint"
      | Some (g, Wheap.Block { lo; hi }) ->
          if
            Staticcheck.Regions.is_bot
              (Staticcheck.Regions.meet (region g)
                 (Staticcheck.Regions.interval lo hi))
          then
            add g lo
              (Format.asprintf
                 "block [%d..%d] dirtied outside static may-write region %a"
                 lo hi Staticcheck.Regions.pp (region g))
      | None ->
          add "?" (-1)
            (Printf.sprintf "record for unknown object id %d (class id %d)"
               r.Restore.rec_id r.Restore.rec_kid)
  in
  let segments_checked, dirty_cells =
    attribute_records ~schema report.Engine.chain
      (List.combine report.Engine.phases auto.Staticcheck.Auto_spec.a_phases)
      ~iterations:(fun ((p : Engine.phase_report), _) -> p.Engine.iterations)
      ~on_phase
  in
  (List.rev !violations, segments_checked, dirty_cells)

let run_inferred ~name program =
  differential ~name
    ~analyze:(fun ~mode ~guard ~elide ->
      Engine.infer ~guard ~elide ~strategy:(Engine.Sequential mode) program)
    ~containment:check_containment_inferred

(* ---- restore-equivalence oracle for minimized checkpoints ------------------ *)

(* Minimized checkpoints are NOT byte-identical to unminimized ones by
   construction — dropping dead dirty blocks is the whole point. Their
   soundness contract is semantic: restoring any epoch of the minimized
   chain must agree with the unminimized restore on every cell the
   static liveness marks live at that epoch's boundary, and a run
   resumed from the minimized restore must behave identically (return
   value, final live state). Containment closes the loop on the static
   analysis itself: everything the resumed run reads before writing must
   be inside the boundary's live region. *)

type live_failure = { lf_epoch : int; lf_kind : string; lf_detail : string }

type live_outcome = {
  lw_workload : string;
  lw_seeded : bool;
  lw_epochs : int;
  lw_live_cells : int;
  lw_resumes : int;
  lw_reads_checked : int;
  lw_baseline_bytes : int;
  lw_minimized_bytes : int;
  lw_failures : live_failure list;
}

let live_ok o = o.lw_failures = []

(* A restored chain prefix flattened back to plain global values,
   declaration order. *)
type image = {
  im_scalars : (string * int) list;
  im_arrays : (string * int array) list;
}

let image_of_prefix (encoding : Staticcheck.Shape_infer.encoding) segs =
  let schema = encoding.Staticcheck.Shape_infer.schema in
  let roots =
    match segs with
    | (s : Segment.t) :: _ -> s.Segment.roots
    | [] -> invalid_arg "Elide_oracle: empty chain prefix"
  in
  let _, objs = Restore.of_segments schema segs ~roots in
  let scalars = ref [] in
  let arrays = ref [] in
  List.iter2
    (fun (name, slot) (o : Ickpt_runtime.Model.obj) ->
      match slot with
      | Staticcheck.Shape_infer.Scalar _ ->
          scalars := (name, o.Ickpt_runtime.Model.ints.(0)) :: !scalars
      | Staticcheck.Shape_infer.Array { blocks; length; _ } ->
          let a = Array.make length 0 in
          List.iteri
            (fun j (b : Staticcheck.Shape_infer.block) ->
              match o.Ickpt_runtime.Model.children.(j) with
              | Some blk ->
                  for i = b.Staticcheck.Shape_infer.b_lo
                      to b.Staticcheck.Shape_infer.b_hi do
                    a.(i) <-
                      blk.Ickpt_runtime.Model.ints.(i
                                                    - b.Staticcheck.Shape_infer
                                                        .b_lo)
                  done
              | None -> raise (Restore.Error "restored array block missing"))
            blocks;
          arrays := (name, a) :: !arrays)
    encoding.Staticcheck.Shape_infer.slots objs;
  { im_scalars = List.rev !scalars; im_arrays = List.rev !arrays }

(* A plain concrete store with read/write tracking: once [ts_tracking] is
   switched on (at the resume point), every cell read before this run
   writes it lands in [ts_rbw] — the dynamic reads-before-write set the
   containment check compares against the static live region. *)
type tstore = {
  ts_scalars : (string, int) Hashtbl.t;
  ts_arrays : (string, int array) Hashtbl.t;
  mutable ts_tracking : bool;
  ts_written : (string * int, unit) Hashtbl.t;
  ts_rbw : (string * int, unit) Hashtbl.t;
}

let tstore_create (encoding : Staticcheck.Shape_infer.encoding) =
  let inits =
    List.map
      (fun (d : Minic.Ast.var_decl) -> (d.Minic.Ast.v_name, d.Minic.Ast.v_init))
      encoding.Staticcheck.Shape_infer.enc_env.Minic.Check.program
        .Minic.Ast.globals
  in
  let ts =
    { ts_scalars = Hashtbl.create 8;
      ts_arrays = Hashtbl.create 8;
      ts_tracking = false;
      ts_written = Hashtbl.create 64;
      ts_rbw = Hashtbl.create 64 }
  in
  List.iter
    (fun (name, slot) ->
      match slot with
      | Staticcheck.Shape_infer.Scalar _ ->
          Hashtbl.replace ts.ts_scalars name (List.assoc name inits)
      | Staticcheck.Shape_infer.Array { length; _ } ->
          Hashtbl.replace ts.ts_arrays name (Array.make length 0))
    encoding.Staticcheck.Shape_infer.slots;
  ts

let tstore_store ts =
  let read g i =
    if ts.ts_tracking && not (Hashtbl.mem ts.ts_written (g, i)) then
      Hashtbl.replace ts.ts_rbw (g, i) ()
  in
  let wrote g i = if ts.ts_tracking then Hashtbl.replace ts.ts_written (g, i) () in
  { Minic.Interp.gs_get =
      (fun x ->
        read x 0;
        Hashtbl.find ts.ts_scalars x);
    gs_set =
      (fun x v ->
        wrote x 0;
        Hashtbl.replace ts.ts_scalars x v);
    gs_get_cell =
      (fun x i ->
        read x i;
        (Hashtbl.find ts.ts_arrays x).(i));
    gs_set_cell =
      (fun x i v ->
        wrote x i;
        (Hashtbl.find ts.ts_arrays x).(i) <- v);
    gs_length = (fun x -> Array.length (Hashtbl.find ts.ts_arrays x)) }

(* Overwrite the whole store with a restored image — the restore itself,
   not program writes: tracking state is untouched. *)
let tstore_overwrite ts img =
  List.iter (fun (g, v) -> Hashtbl.replace ts.ts_scalars g v) img.im_scalars;
  List.iter
    (fun (g, a) ->
      let dst = Hashtbl.find ts.ts_arrays g in
      Array.blit a 0 dst 0 (Array.length a))
    img.im_arrays

let tstore_image ts (encoding : Staticcheck.Shape_infer.encoding) =
  { im_scalars =
      List.filter_map
        (fun (name, slot) ->
          match slot with
          | Staticcheck.Shape_infer.Scalar _ ->
              Some (name, Hashtbl.find ts.ts_scalars name)
          | _ -> None)
        encoding.Staticcheck.Shape_infer.slots;
    im_arrays =
      List.filter_map
        (fun (name, slot) ->
          match slot with
          | Staticcheck.Shape_infer.Array _ ->
              Some (name, Array.copy (Hashtbl.find ts.ts_arrays name))
          | _ -> None)
        encoding.Staticcheck.Shape_infer.slots }

(* Re-drive the program through its discovered phase structure against
   [store] with the engine's own round driver, so checkpoint placement is
   the engine's by construction. [on_checkpoint k] fires where checkpoint
   [k] would be taken. Returns (checkpoints, returned, return value). *)
let drive ~(phases : Staticcheck.Auto_spec.phase_result list) ~store program
    ~on_checkpoint =
  let session = Minic.Interp.Session.start ~store program in
  let halted = ref false in
  let ret = ref None in
  let k = ref 0 in
  let step () =
    on_checkpoint !k;
    incr k
  in
  List.iter
    (fun (pr : Staticcheck.Auto_spec.phase_result) ->
      let ph = pr.Staticcheck.Auto_spec.ph in
      let exec () =
        try
          Minic.Interp.Session.exec_block session
            ph.Staticcheck.Phase_discover.p_body
        with Minic.Interp.Session.Halted v as e ->
          ret := v;
          raise e
      in
      ignore
        (Engine.rounds ph ~eval:(Minic.Interp.Session.eval session) ~exec
           ~halted ~step))
    phases;
  (!k, !halted, !ret)

let run_live ?(seed_unsound = false) ~name program =
  let baseline =
    Engine.infer ~guard:true ~strategy:(Engine.Sequential Engine.Specialized)
      program
  in
  let minimized =
    Engine.infer ~guard:true ~elide:true
      ~strategy:(Engine.Minimized { seed_dead = seed_unsound })
      program
  in
  let auto = Option.get (Engine.auto_spec baseline) in
  let auto_m = Option.get (Engine.auto_spec minimized) in
  let enc = auto.Staticcheck.Auto_spec.a_encoding in
  let enc_m = auto_m.Staticcheck.Auto_spec.a_encoding in
  let live = auto.Staticcheck.Auto_spec.a_live in
  let failures = ref [] in
  let live_cells = ref 0 in
  let reads_checked = ref 0 in
  let resumes = ref 0 in
  let fail e kind fmt =
    Format.kasprintf
      (fun s ->
        failures := { lf_epoch = e; lf_kind = kind; lf_detail = s } :: !failures)
      fmt
  in
  let full_b, inc_b = split_chain baseline.Engine.chain in
  let full_m, inc_m = split_chain minimized.Engine.chain in
  let epochs_b = List.length inc_b in
  let epochs_m = List.length inc_m in
  if epochs_b <> epochs_m then
    fail (-1) "chain"
      "baseline took %d incremental checkpoint(s), minimized %d: the runs \
       diverged before any restore"
      epochs_b epochs_m;
  let epochs = min epochs_b epochs_m in
  (* Epoch -> the phase whose boundary covers it, positionally (round
     boundaries are loop-head fixpoints, so every iteration of a round
     shares the phase's boundary soundly). *)
  let epoch_pr =
    Array.of_list
      (List.concat_map
         (fun ((p : Engine.phase_report),
               (pr : Staticcheck.Auto_spec.phase_result)) ->
           List.init p.Engine.iterations (fun _ -> pr))
         (List.combine baseline.Engine.phases
            auto.Staticcheck.Auto_spec.a_phases))
  in
  let cell_live boundary g i =
    match List.assoc_opt g boundary with
    | Some r -> Staticcheck.Regions.mem i r
    | None -> false
  in
  (* Reference run: the same driver, no switch — what a never-crashed
     execution observes on this store implementation. *)
  let ref_ts = tstore_create enc in
  let ref_epochs, ref_halted, ref_ret =
    drive ~phases:auto.Staticcheck.Auto_spec.a_phases
      ~store:(tstore_store ref_ts) program ~on_checkpoint:(fun _ -> ())
  in
  let ref_final = tstore_image ref_ts enc in
  if ref_epochs <> epochs_b then
    fail (-1) "chain"
      "re-driven reference run took %d checkpoint(s), engine run %d"
      ref_epochs epochs_b;
  for e = 0 to epochs - 1 do
    let pr = epoch_pr.(e) in
    let boundary =
      Staticcheck.Live.boundary live
        pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_index
    in
    let prefix_b = full_b @ take (e + 1) inc_b in
    let prefix_m = full_m @ take (e + 1) inc_m in
    let img_b = image_of_prefix enc prefix_b in
    let img_m = image_of_prefix enc_m prefix_m in
    (* 1. Restored live cells must agree with the unminimized restore. *)
    List.iter2
      (fun (g, vb) (g', vm) ->
        assert (g = g');
        if cell_live boundary g 0 then begin
          incr live_cells;
          if vb <> vm then
            fail e "restore"
              "scalar %s live at the %s boundary restores to %d minimized \
               vs %d baseline"
              g pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name
              vm vb
        end)
      img_b.im_scalars img_m.im_scalars;
    List.iter2
      (fun (g, ab) (g', am) ->
        assert (g = g');
        for i = 0 to Array.length ab - 1 do
          if cell_live boundary g i then begin
            incr live_cells;
            if ab.(i) <> am.(i) then
              fail e "restore"
                "%s[%d] live at the %s boundary restores to %d minimized vs \
                 %d baseline"
                g i
                pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name
                am.(i) ab.(i)
          end
        done)
      img_b.im_arrays img_m.im_arrays;
    (* 2. Resume from the minimized restore and run to completion. *)
    let ts = tstore_create enc in
    let switched = ref false in
    let res =
      (* A runtime error after the switch is itself a divergence (the
         reference run completed): report it, don't propagate. *)
      try
        Some
          (drive ~phases:auto.Staticcheck.Auto_spec.a_phases
             ~store:(tstore_store ts) program ~on_checkpoint:(fun k ->
               if k = e then begin
                 tstore_overwrite ts img_m;
                 ts.ts_tracking <- true;
                 switched := true
               end))
      with Minic.Interp.Runtime_error msg ->
        fail e "resume-crash"
          "resumed run raised a runtime error the reference run did not: %s"
          msg;
        None
    in
    incr resumes;
    (match res with
    | None -> ()
    | Some (_, res_halted, res_ret) ->
    if not !switched then
      fail e "chain" "resume driver never reached checkpoint %d" e
    else begin
      (* 2a. Observable output: a return executed after the switch must
         produce the reference value. *)
      if res_halted <> ref_halted then
        fail e "resume-return"
          "resumed run %s while the reference run %s"
          (if res_halted then "returned" else "fell off main")
          (if ref_halted then "returned" else "fell off main")
      else if res_halted && res_ret <> ref_ret then
        fail e "resume-return" "resumed run returned %s, reference %s"
          (match res_ret with Some v -> string_of_int v | None -> "(none)")
          (match ref_ret with Some v -> string_of_int v | None -> "(none)");
      (* 2b. Final state on cells that matter: live at the switch
         boundary, or written after the switch. Dead unwritten cells may
         legitimately hold stale restored values. *)
      let final = tstore_image ts enc in
      let relevant g i =
        cell_live boundary g i || Hashtbl.mem ts.ts_written (g, i)
      in
      List.iter2
        (fun (g, vr) (g', vf) ->
          assert (g = g');
          if relevant g 0 && vr <> vf then
            fail e "resume-state" "final scalar %s is %d resumed vs %d \
                                   reference" g vf vr)
        ref_final.im_scalars final.im_scalars;
      List.iter2
        (fun (g, ar) (g', af) ->
          assert (g = g');
          for i = 0 to Array.length ar - 1 do
            if relevant g i && ar.(i) <> af.(i) then
              fail e "resume-state" "final %s[%d] is %d resumed vs %d \
                                     reference" g i af.(i) ar.(i)
          done)
        ref_final.im_arrays final.im_arrays;
      (* 3. Containment: everything the resumed run read before writing
         must be inside the static live region — the liveness dual of
         invariant I8. *)
      Hashtbl.iter
        (fun (g, i) () ->
          incr reads_checked;
          if not (cell_live boundary g i) then
            fail e "containment"
              "resumed run read %s[%d] before writing it, but the %s \
               boundary's live region excludes it"
              g i
              pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name)
        ts.ts_rbw
    end)
  done;
  { lw_workload = name;
    lw_seeded = seed_unsound;
    lw_epochs = epochs;
    lw_live_cells = !live_cells;
    lw_resumes = !resumes;
    lw_reads_checked = !reads_checked;
    lw_baseline_bytes = bytes inc_b;
    lw_minimized_bytes = bytes inc_m;
    lw_failures = List.rev !failures }

let pp_live ppf o =
  Format.fprintf ppf "@[<v 2>%s%s: %s" o.lw_workload
    (if o.lw_seeded then " (seeded-unsound)" else "")
    (if live_ok o then "ok" else "FAILED");
  Format.fprintf ppf
    "@,%d epoch(s): %d live cell(s) restore-checked, %d resume(s), %d \
     read(s) containment-checked"
    o.lw_epochs o.lw_live_cells o.lw_resumes o.lw_reads_checked;
  Format.fprintf ppf "@,incremental bytes: %d baseline, %d minimized"
    o.lw_baseline_bytes o.lw_minimized_bytes;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,[epoch %d] %s: %s" f.lf_epoch f.lf_kind
        f.lf_detail)
    o.lw_failures;
  Format.fprintf ppf "@]"

let builtin_workloads () =
  [ ("image", Minic.Gen.image_program ());
    ("small", Minic.Gen.small_program ()) ]

let pp ppf o =
  Format.fprintf ppf "@[<v 2>%s: %s" o.workload
    (if ok o then "ok" else "FAILED");
  Format.fprintf ppf
    "@,incremental chains identical: %b@,specialized chains identical: %b"
    o.identical_incremental o.identical_specialized;
  Format.fprintf ppf "@,I8: %d dirty cell(s) over %d segment(s), %d violation(s)"
    o.dirty_cells o.segments_checked
    (List.length o.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "@,[%s] %s sid %d: %s" v.phase v.site v.sid v.detail)
    o.violations;
  Format.fprintf ppf "@]"

(* ---- parallel-execution oracle --------------------------------------------- *)

(* Parallel runs promise byte-identity with the sequential chain — the
   replay-in-schedule-order construction guarantees it whenever the units'
   footprints were really disjoint. But an overlap that writes the same
   value keeps the chain identical while the run is still racy (the
   seeded self-test demonstrates exactly this), so identity alone cannot
   gate: the oracle also intersects the footprints each domain actually
   observed, pairwise within every fork group — the parallel dual of
   invariant I8 (static disjointness ⊇ dynamic disjointness). *)

type par_conflict = {
  pc_mode : string;  (* "incremental" or "specialized" *)
  pc_group : int;
  pc_a : string;
  pc_b : string;
  pc_detail : string;
}

type par_outcome = {
  pw_workload : string;
  pw_domains : int;
  pw_seeded : bool;
  pw_identical_incremental : bool;
  pw_identical_specialized : bool;
  pw_par_units : int;
  pw_par_sweeps : int;
  pw_pairs_checked : int;
  pw_conflicts : par_conflict list;
}

let par_ok o =
  o.pw_identical_incremental && o.pw_identical_specialized
  && o.pw_conflicts = []

(* Pairwise observed-footprint disjointness inside each fork group —
   units in different groups ran sequentially and may overlap freely. *)
let observed_conflicts ~mode (rep : Engine.par_report) =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (u : Engine.par_unit) ->
      let l =
        Option.value ~default:[] (Hashtbl.find_opt groups u.Engine.pu_group)
      in
      Hashtbl.replace groups u.Engine.pu_group (u :: l))
    rep.Engine.par_units;
  let foot (u : Engine.par_unit) =
    { Staticcheck.Interfere.fp_reads = u.Engine.pu_reads;
      fp_writes = u.Engine.pu_writes }
  in
  let pairs = ref 0 in
  let conflicts = ref [] in
  Hashtbl.iter
    (fun group members ->
      let members = Array.of_list (List.rev members) in
      for i = 0 to Array.length members - 1 do
        for j = i + 1 to Array.length members - 1 do
          incr pairs;
          match
            Staticcheck.Interfere.footprint_conflict
              (foot members.(i))
              (foot members.(j))
          with
          | None -> ()
          | Some (g, ra, rb) ->
              conflicts :=
                { pc_mode = mode;
                  pc_group = group;
                  pc_a = members.(i).Engine.pu_label;
                  pc_b = members.(j).Engine.pu_label;
                  pc_detail =
                    Format.asprintf
                      "observed footprints meet on %s: %a vs %a" g
                      Staticcheck.Regions.pp ra Staticcheck.Regions.pp rb }
                :: !conflicts
        done
      done)
    groups;
  (!pairs, List.rev !conflicts)

let run_par ?(seed_racy = false) ?(domains = 4) ~name program =
  let seq ~mode ~guard =
    Engine.infer ~guard ~strategy:(Engine.Sequential mode) program
  in
  let par ~mode ~guard =
    Engine.infer ~guard
      ~strategy:(Engine.Parallel { mode; domains; seed_racy })
      program
  in
  let seq_inc = seq ~mode:Engine.Incremental ~guard:false in
  let par_inc = par ~mode:Engine.Incremental ~guard:false in
  let seq_spec = seq ~mode:Engine.Specialized ~guard:true in
  let par_spec = par ~mode:Engine.Specialized ~guard:true in
  let rep_inc = Option.get par_inc.Engine.par in
  let rep_spec = Option.get par_spec.Engine.par in
  let pairs_i, conf_i = observed_conflicts ~mode:"incremental" rep_inc in
  let pairs_s, conf_s = observed_conflicts ~mode:"specialized" rep_spec in
  { pw_workload = name;
    pw_domains = rep_inc.Engine.par_domains;
    pw_seeded = rep_inc.Engine.par_schedule.Engine.Isch.sc_seeded;
    pw_identical_incremental =
      chains_identical seq_inc.Engine.chain par_inc.Engine.chain;
    pw_identical_specialized =
      chains_identical seq_spec.Engine.chain par_spec.Engine.chain;
    pw_par_units = List.length rep_inc.Engine.par_units;
    pw_par_sweeps = rep_inc.Engine.par_sweeps;
    pw_pairs_checked = pairs_i + pairs_s;
    pw_conflicts = conf_i @ conf_s }

let pp_par ppf o =
  Format.fprintf ppf "@[<v 2>%s%s: %s" o.pw_workload
    (if o.pw_seeded then " (seeded-racy)" else "")
    (if par_ok o then "ok" else "FAILED");
  Format.fprintf ppf "@,%d domain(s): %d parallel unit(s), %d sweep fan-out(s)"
    o.pw_domains o.pw_par_units o.pw_par_sweeps;
  Format.fprintf ppf
    "@,chains identical to sequential: incremental %b, specialized %b"
    o.pw_identical_incremental o.pw_identical_specialized;
  Format.fprintf ppf
    "@,observed disjointness: %d pair(s) checked, %d conflict(s)"
    o.pw_pairs_checked
    (List.length o.pw_conflicts);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,[%s fork %d] %s || %s: %s" c.pc_mode c.pc_group
        c.pc_a c.pc_b c.pc_detail)
    o.pw_conflicts;
  Format.fprintf ppf "@]"
