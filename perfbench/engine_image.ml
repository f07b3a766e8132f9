(* engine-image: the paper's Section 4 application in the Table 1
   configuration — the three analyses over the generated image program,
   checkpointed by per-phase specialized residual code into the in-memory
   chain, with no store at all. Each run is one [Engine.analyze] call
   followed by [Engine.recover_annotations]; runs are independent. *)

open Ickpt_core
open Ickpt_analysis

let n_filters = 128
let window = 8  (* runs per throughput window *)
let n_setups = 5
let min_runs = 104  (* so each p90 rests on at least 100 samples *)

(* The seed picks the image dimensions; they are constants of the
   generated program and leave its statement count unchanged. *)
let program env =
  let rng = Env.rng env 3 in
  let width = 20 + Random.State.int rng 9 in
  let height = 12 + Random.State.int rng 9 in
  Minic.Gen.image_program ~width ~height ~n_filters ()

let analyze ~mode prog =
  Engine.analyze ~mode ~bta_min:9 ~eta_min:3 prog

let live_annotations report =
  let attrs = Engine.attrs report in
  List.init report.Engine.n_stmts (fun sid ->
      ( Attrs.get_bt attrs sid,
        Attrs.get_et attrs sid,
        Attrs.get_reads attrs sid,
        Attrs.get_writes attrs sid ))

(* Set-up: generate the program, compute the Full-mode reference
   annotations, and warm up with one specialized run. *)
let setup env =
  let prog = Trace.span "minic.gen" (fun () -> program env) in
  let reference =
    Trace.span "engine.reference" (fun () ->
        Engine.recover_annotations (analyze ~mode:Engine.Full prog))
  in
  ignore
    (Trace.span "engine.analyze" (fun () -> analyze ~mode:Engine.Specialized prog)
      : Engine.report);
  (prog, reference)

let run env =
  let tally = Env.tally () in
  let setup_s = Stats.samples () in
  let last = ref None in
  for _ = 1 to n_setups do
    Env.gc_settle ();
    let t0 = Trace.now () in
    last := Some (Trace.span "setup" (fun () -> setup env));
    Stats.add setup_s (Trace.now () -. t0)
  done;
  let prog, reference = Option.get !last in
  Env.gc_settle ();
  let epoch = Stats.samples () and restore = Stats.samples ()
  and run_s = Stats.samples () and ops = Stats.samples ()
  and ckpt_ms = Stats.samples () and analysis_ms = Stats.samples () in
  let counts = ref None in
  let win = ref 0. in
  let start = Trace.now () in
  let runs = ref 0 in
  (* Whole windows, at least [min_runs] runs, at least [seconds]. *)
  while
    !runs mod window <> 0 || !runs < min_runs
    || Trace.now () -. start < env.Env.seconds
  do
    Trace.set_op !runs;
    tally.attempted <- tally.attempted + 1;
    (try
       let t0 = Trace.now () in
       let report =
         Trace.span "engine.analyze" (fun () -> analyze ~mode:Engine.Specialized prog)
       in
       let t1 = Trace.now () in
       let recovered =
         Trace.span "engine.recover" (fun () -> Engine.recover_annotations report)
       in
       let t2 = Trace.now () in
       Stats.add run_s (t1 -. t0);
       Stats.add restore (t2 -. t1);
       win := !win +. (t2 -. t0);
       List.iter
         (fun (p : Engine.phase_report) ->
           List.iter
             (fun (s : Engine.iteration_stat) -> Stats.add epoch s.Engine.seconds)
             p.Engine.stats)
         report.Engine.phases;
       Stats.add ckpt_ms
         (1000.
         *. List.fold_left
              (fun s p -> s +. Engine.phase_ckp_seconds p)
              0. report.Engine.phases);
       Stats.add analysis_ms
         (1000.
         *. List.fold_left
              (fun s (p : Engine.phase_report) -> s +. p.Engine.analysis_seconds)
              0. report.Engine.phases);
       let chain = report.Engine.chain in
       if !counts = None then
         counts :=
           Some
             ( Chain.total_bytes chain,
               Chain.length chain,
               List.fold_left
                 (fun s seg -> s + Segment.encoded_size seg)
                 0 (Chain.segments chain) );
       Env.check tally "engine-image recovered annotations equal the live ones"
         (recovered = live_annotations report);
       Env.check tally "engine-image annotations equal the Full-mode reference"
         (recovered = reference)
     with e -> Env.fail tally ("engine-image run: " ^ Printexc.to_string e));
    incr runs;
    if !runs mod window = 0 then begin
      Stats.add ops (float_of_int window /. !win);
      win := 0.
    end
  done;
  let bytes, segments, encoded = Option.get !counts in
  let m = Stats.metric in
  let end_to_end =
    [ Stats.ms "epoch_ms_p50" epoch 0.5;
      Stats.ms "epoch_ms_p90" epoch 0.9;
      Stats.ms "restore_ms_p50" restore 0.5;
      Stats.ms "restore_ms_p90" restore 0.9;
      Stats.ms "run_ms_p50" run_s 0.5;
      Stats.ms "run_ms_p90" run_s 0.9;
      m "ops_per_s" "1/s" (Stats.median ops);
      m "space_amp" "ratio" (float_of_int encoded /. float_of_int bytes);
      m "setup_s" "s" (Stats.median setup_s) ]
  in
  let per_layer =
    [ m "engine.ckpt_bytes" "bytes" (float_of_int bytes);
      m "engine.segments" "count" (float_of_int segments);
      m "engine.phase_ckpt_ms" "ms" (Stats.median ckpt_ms);
      m "engine.phase_analysis_ms" "ms" (Stats.median analysis_ms) ]
  in
  (tally, end_to_end, per_layer, 0)
