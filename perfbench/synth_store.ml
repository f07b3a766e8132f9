(* synth-store: the paper's Section 5 heap, checkpointed every round by the
   Fig. 9 specialized checkpointer into the content-addressed store, with a
   restore of a random earlier epoch every fourth round.

   One cycle is one fixed history: set-up (heap build, specialization,
   fresh store, one full cycle of warm-up epochs), then the timed epochs,
   then the reopen gate. Every cycle of a run replays the same seeded
   inputs, so per-cycle counts are exact and the timed distribution does
   not depend on how many cycles fit in the run. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas
open Ickpt_synth

let config seed =
  { Synth.n_structures = 500;
    n_lists = 5;
    list_len = 5;
    n_int_fields = 10;
    pct_modified = 25;
    modified_lists = 1;
    last_only = false;
    seed }

let full_every = 16
let warmup = 16  (* one full cycle, taken in set-up *)
let history = 400  (* epochs per cycle: warm-up + 384 timed *)
let restore_every = 4
let window = 64  (* epochs per throughput window: four full cycles *)
let growth_window = 32
let setups = 7

type cycle = {
  synth : Synth.t;
  roots : Model.obj list;
  path : string;
  store : Store.t;
  mgr : Manager.t;
  body : Ickpt_stream.Out_stream.t -> Model.obj list -> unit;
  segs : Segment.t option array;  (* by seq *)
  mutable body_bytes : int;
  append_s : float array;  (* traced: store append seconds by seq *)
  chunks : (int * int) ref;  (* traced: chunks total and new, summed *)
}

let store_files path = [ Store.pack_path path; Store.index_path path ]

let checkpoint c =
  let seg =
    Trace.span "manager.checkpoint" (fun () ->
        Manager.checkpoint_with c.mgr c.roots ~body:c.body)
  in
  c.segs.(seg.Segment.seq) <- Some seg;
  c.body_bytes <- c.body_bytes + Segment.body_size seg;
  seg

let setup env ~n =
  let vfs = Tvfs.of_env env in
  let synth = Trace.span "synth.build" (fun () -> Synth.build (config env.Env.seed)) in
  let residual =
    Trace.span "jspec.specialize" (fun () ->
        Jspec.Compile.residual
          (Jspec.Pe.specialize (Synth.shape_modified_lists synth)))
  in
  let path = Filename.concat env.Env.dir (Printf.sprintf "synth%d" n) in
  List.iter Env.remove_if_exists (store_files path);
  let store =
    Trace.span "store.open" (fun () -> Store.open_ ?vfs synth.Synth.schema ~path)
  in
  let append_s = Array.make history 0. and chunks = ref (0, 0) in
  let sink =
    let base = Store.manager_sink store in
    if not env.Env.traced then base
    else
      { base with
        Manager.sink_append =
          (fun seg ->
            let t0 = Trace.now () in
            let st =
              Trace.span "store.append" (fun () -> Store.append_segment store seg)
            in
            if seg.Segment.seq < history then
              append_s.(seg.Segment.seq) <- Trace.now () -. t0;
            let total, fresh = !chunks in
            chunks :=
              (total + st.Store.chunks_total, fresh + st.Store.chunks_new)) }
  in
  let mgr =
    Manager.create ?vfs ~policy:(Policy.Full_every full_every) ~sink
      synth.Synth.schema ~path:(path ^ ".log")
  in
  let body d roots =
    Trace.span "jspec.record" (fun () -> List.iter (residual d) roots)
  in
  let c =
    { synth; roots = Synth.roots synth; path; store; mgr; body;
      segs = Array.make history None; body_bytes = 0; append_s; chunks }
  in
  for _ = 1 to warmup do
    ignore (Trace.span "synth.mutate" (fun () -> Synth.mutate_round synth) : int);
    ignore (checkpoint c : Segment.t)
  done;
  c

(* The correctness reference: replay the chain from the nearest full
   epoch at or before [e]. *)
let replay c e =
  let seg i = Option.get c.segs.(i) in
  let rec base i = if (seg i).Segment.kind = Segment.Full then i else base (i - 1) in
  let b = base e in
  Restore.of_segments c.synth.Synth.schema
    (List.init (e - b + 1) (fun k -> seg (b + k)))
    ~roots:(seg e).Segment.roots

type acc = {
  epoch : Stats.samples;
  restore : Stats.samples;
  round : Stats.samples;
  ops : Stats.samples;
  setup : Stats.samples;
  replay : Stats.samples;
  restore_objs : Stats.samples;
  reopen : Stats.samples;
  space : Stats.samples;
  dirty : Stats.samples;
  record_bytes : Stats.samples;
  growth : Stats.samples;
}

let fresh_acc () =
  { epoch = Stats.samples (); restore = Stats.samples ();
    round = Stats.samples (); ops = Stats.samples ();
    setup = Stats.samples (); replay = Stats.samples ();
    restore_objs = Stats.samples (); reopen = Stats.samples ();
    space = Stats.samples (); dirty = Stats.samples ();
    record_bytes = Stats.samples (); growth = Stats.samples () }

let run env =
  let tally = Env.tally () in
  let first_counts = ref None in
  let cycles = ref 0 in
  let one_cycle a =
    let n = !cycles in
    let marks = (Stats.count a.epoch, Stats.count a.restore, Stats.count a.ops) in
    Env.gc_settle ();
    let syncs0 = Trace.counter "vfs.syncs"
    and written0 = Trace.counter "vfs.write_bytes" in
    let t0 = Trace.now () in
    let c = Trace.span "setup" (fun () -> setup env ~n) in
    Stats.add a.setup (Trace.now () -. t0);
    let rng = Env.rng env 1 in
    let win = ref 0. and win_n = ref 0 and round = ref 0. in
    (try
       for seq = warmup to history - 1 do
         Trace.set_op ((n * history) + seq);
         let t0 = Trace.now () in
         let d = Trace.span "synth.mutate" (fun () -> Synth.mutate_round c.synth) in
         let t1 = Trace.now () in
         tally.attempted <- tally.attempted + 1;
         let seg = checkpoint c in
         let t2 = Trace.now () in
         Stats.add a.epoch (t2 -. t1);
         Stats.add a.dirty (float_of_int d);
         if seg.Segment.kind = Segment.Incremental then
           Stats.add a.record_bytes (float_of_int (Segment.body_size seg));
         win := !win +. (t2 -. t0);
         round := !round +. (t2 -. t0);
         if (seq + 1) mod restore_every = 0 then begin
           let e = Random.State.int rng (seq + 1) in
           tally.attempted <- tally.attempted + 1;
           let t3 = Trace.now () in
           let heap, restored =
             Trace.span "store.restore" (fun () -> Store.restore c.store ~epoch:e)
           in
           let t4 = Trace.now () in
           Stats.add a.restore (t4 -. t3);
           Stats.add a.restore_objs (float_of_int (Heap.count heap));
           win := !win +. (t4 -. t3);
           Stats.add a.round (!round +. (t4 -. t3));
           round := 0.;
           (* Gate, outside every timed span. *)
           let t5 = Trace.now () in
           let _, reference = Trace.span "core.replay" (fun () -> replay c e) in
           Stats.add a.replay (Trace.now () -. t5);
           Env.check tally
             (Printf.sprintf "synth-store restore of epoch %d" e)
             (Env.same_roots restored reference)
         end;
         incr win_n;
         if !win_n = window then begin
           Stats.add a.ops (float_of_int window /. !win);
           win := 0.;
           win_n := 0
         end
       done
     with e ->
       Env.fail tally ("synth-store cycle: " ^ Printexc.to_string e));
    let syncs = Trace.counter "vfs.syncs" - syncs0
    and written = Trace.counter "vfs.write_bytes" - written0 in
    Manager.close c.mgr;
    let files_bytes =
      List.fold_left (fun s f -> s + Env.file_size f) 0
        (Store.pack_path c.path :: Store.index_path c.path
        :: [ c.path ^ ".log" ])
    in
    Stats.add a.space (float_of_int files_bytes /. float_of_int c.body_bytes);
    if !first_counts = None then
      first_counts := Some (syncs, written, c.body_bytes, !(c.chunks));
    if env.Env.traced then
      Stats.add a.growth
        (Stats.array_mean c.append_s ~lo:(history - growth_window) ~hi:history
        /. Stats.array_mean c.append_s ~lo:0 ~hi:growth_window);
    (* Reopen gate: every acknowledged epoch listed, the newest restores
       to the live heap. *)
    tally.attempted <- tally.attempted + 1;
    (try
       let t0 = Trace.now () in
       let st =
         Trace.span "store.reopen" (fun () ->
             Store.open_ ?vfs:(Tvfs.of_env env) c.synth.Synth.schema ~path:c.path)
       in
       Stats.add a.reopen (Trace.now () -. t0);
       Env.check tally "synth-store reopen lists every epoch"
         (Store.epochs st = List.init history Fun.id);
       let _, restored = Store.restore st ~epoch:(history - 1) in
       Env.check tally "synth-store newest epoch equals the live heap"
         (Env.same_roots restored c.roots)
     with e -> Env.fail tally ("synth-store reopen: " ^ Printexc.to_string e));
    List.iter Env.remove_if_exists (store_files c.path @ [ c.path ^ ".log" ]);
    let e0, r0, o0 = marks in
    Stats.report_cycle "synth-store" n
      ~epoch:(Stats.since a.epoch ~from:e0)
      ~restore:(Stats.since a.restore ~from:r0)
      ~ops:(Stats.since a.ops ~from:o0);
    incr cycles
  in
  (* The first cycle warms the process up: its heap grows and its memory
     is first touched, which made it ~40% slower than later cycles (a
     half-length warm-up left the next cycle ~25% slow). It is gated but
     not measured. Then whole cycles, at least two so restores give at
     least 100 samples. *)
  one_cycle (fresh_acc ());
  Trace.clear_spans ();
  let a = fresh_acc () in
  let start = Trace.now () in
  while !cycles < 3 || Trace.now () -. start < env.Env.seconds do
    one_cycle a
  done;
  (* Extra set-ups, so setup_s is the median of at least [setups]. *)
  while Stats.count a.setup < setups do
    Env.gc_settle ();
    let t0 = Trace.now () in
    let c = setup env ~n:(1000 + Stats.count a.setup) in
    Stats.add a.setup (Trace.now () -. t0);
    Manager.close c.mgr;
    List.iter Env.remove_if_exists (store_files c.path @ [ c.path ^ ".log" ])
  done;
  let syncs, written, body, (ct, cn) = Option.get !first_counts in
  let per_epoch x = float_of_int x /. float_of_int history in
  let m = Stats.metric in
  let end_to_end =
    [ Stats.ms "epoch_ms_p50" a.epoch 0.5;
      Stats.ms "epoch_ms_p90" a.epoch 0.9;
      Stats.ms "restore_ms_p50" a.restore 0.5;
      Stats.ms "restore_ms_p90" a.restore 0.9;
      Stats.ms "run_ms_p50" a.round 0.5;
      Stats.ms "run_ms_p90" a.round 0.9;
      m "ops_per_s" "1/s" (Stats.median a.ops);
      m "space_amp" "ratio" (Stats.median a.space);
      m "setup_s" "s" (Stats.median a.setup) ]
  in
  let per_layer =
    [ m "synth.mutate_ms" "ms" (Trace.mean_ms "synth.mutate");
      m "synth.dirty_objs" "count" (Stats.mean a.dirty);
      m "jspec.specialize_ms" "ms" (Trace.mean_ms "jspec.specialize");
      m "jspec.record_ms" "ms" (Trace.mean_ms "jspec.record");
      m "jspec.record_bytes" "bytes" (Stats.mean a.record_bytes);
      m "manager.self_ms" "ms" (Trace.mean_ms ~self:true "manager.checkpoint");
      m "core.replay_ms" "ms" (1000. *. Stats.median a.replay);
      m "store.append_ms" "ms" (Trace.mean_ms "store.append");
      m "store.append_self_ms" "ms" (Trace.mean_ms ~self:true "store.append");
      m "store.append_growth" "ratio" (Stats.median a.growth);
      m "store.chunks_total" "count" (per_epoch ct);
      m "store.chunks_new" "count" (per_epoch cn);
      m "store.dedup_hit" "ratio"
        (if ct = 0 then 0. else float_of_int (ct - cn) /. float_of_int ct);
      m "store.restore_objs" "count" (Stats.mean a.restore_objs);
      m "store.reopen_ms" "ms" (1000. *. Stats.median a.reopen);
      m "vfs.sync_count" "count" (per_epoch syncs);
      m "vfs.write_amp" "ratio" (float_of_int written /. float_of_int body) ]
  in
  (tally, end_to_end, per_layer, (Trace.find_layer "manager.checkpoint").calls)
