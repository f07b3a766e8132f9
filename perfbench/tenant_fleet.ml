(* tenant-fleet: 64 small Synth tenants drawn from 8 seeds, checkpointed
   generically through the multi-tenant service (2 shards, inline group
   commit whose batch limits exceed one round, so the flush at the end of
   each round is the only commit). Every round also restores 4 random
   (tenant, epoch) pairs and evicts and reopens one tenant.

   Tenant [i] belongs to group [i mod 8]: it shares its group's seed and
   takes [i mod 8] warm-up checkpoints in set-up, so the [Full_every 8]
   full epochs are spread evenly over rounds. A group's tenants submit
   identical content, which the shared pack dedups.

   The correctness reference is one shadow chain per group: a separate
   heap with the group's seed, mutated in lockstep and checkpointed by
   {!Chain} under the same policy, outside every timed span. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_service
open Ickpt_synth

let n_tenants = 64
let n_groups = 8
let full_every = 8
let shards = 2
let rounds = 96  (* per cycle: twelve full cycles of every tenant *)
let restores_per_round = 4
let window = 16  (* rounds per throughput window: two full cycles *)

let config env g =
  { Synth.n_structures = 40;
    n_lists = 5;
    list_len = 5;
    n_int_fields = 10;
    pct_modified = 25;
    modified_lists = 1;
    last_only = false;
    seed = Hashtbl.hash (env.Env.seed, g) }

let policy = Policy.Full_every full_every

let commit =
  Service.Group
    { Async_writer.Batch.max_items = max_int; max_bytes = max_int; linger = 0. }

type shadow = {
  s_synth : Synth.t;
  s_chain : Chain.t;
  s_segs : (int, Segment.t) Hashtbl.t;  (* by epoch *)
}

type tenant = {
  name : string;
  group : int;
  synth : Synth.t;
  roots : Model.obj list;
  mutable tn : Service.tenant;
  mutable acked : int;  (* newest durable epoch, -1 before the first *)
}

let service_files path =
  Service.pack_path path :: Service.catalog_path path :: Service.meta_path path
  :: List.init shards (Service.shard_index_path path)

let shadow_step s =
  ignore (Synth.mutate_round s.s_synth : int);
  let roots = Synth.roots s.s_synth in
  let taken =
    match Policy.decide policy s.s_chain with
    | Segment.Full -> Chain.take_full s.s_chain roots
    | Segment.Incremental -> Chain.take_incremental s.s_chain roots
  in
  Hashtbl.replace s.s_segs taken.Chain.segment.Segment.seq taken.Chain.segment

let replay s e =
  let seg i = Hashtbl.find s.s_segs i in
  let rec base i = if (seg i).Segment.kind = Segment.Full then i else base (i - 1) in
  let b = base e in
  Restore.of_segments (Chain.schema s.s_chain)
    (List.init (e - b + 1) (fun k -> seg (b + k)))
    ~roots:(seg e).Segment.roots

let setup env ~n =
  let vfs = Tvfs.of_env env in
  let path = Filename.concat env.Env.dir (Printf.sprintf "fleet%d" n) in
  List.iter Env.remove_if_exists (service_files path);
  let svc =
    Trace.span "service.open" (fun () ->
        Service.open_ ?vfs ~shards ~policy ~commit ~path ())
  in
  let tenants =
    Array.init n_tenants (fun i ->
        let synth =
          Trace.span "synth.build" (fun () -> Synth.build (config env (i mod n_groups)))
        in
        let name = Printf.sprintf "tenant-%02d" i in
        { name; group = i mod n_groups; synth; roots = Synth.roots synth;
          tn = Service.open_tenant svc synth.Synth.schema ~name; acked = -1 })
  in
  let shadows =
    Array.init n_groups (fun g ->
        let s = Synth.build (config env g) in
        { s_synth = s; s_chain = Chain.create s.Synth.schema;
          s_segs = Hashtbl.create 128 })
  in
  Array.iteri
    (fun i t ->
      for _ = 1 to i mod n_groups do
        ignore (Trace.span "synth.mutate" (fun () -> Synth.mutate_round t.synth) : int);
        t.acked <-
          Trace.span "service.submit" (fun () -> Service.checkpoint t.tn t.roots)
      done)
    tenants;
  Trace.span "service.flush" (fun () -> Service.flush svc);
  Array.iteri
    (fun g s ->
      for _ = 1 to g do
        shadow_step s
      done)
    shadows;
  (svc, path, tenants, shadows)

type acc = {
  epoch : Stats.samples;
  restore : Stats.samples;
  round : Stats.samples;
  ops : Stats.samples;
  setup : Stats.samples;
  replay : Stats.samples;
  restore_objs : Stats.samples;
  resume : Stats.samples;
  reopen : Stats.samples;
  space : Stats.samples;
  dirty : Stats.samples;
}

let run env =
  let tally = Env.tally () in
  let a =
    { epoch = Stats.samples (); restore = Stats.samples ();
      round = Stats.samples (); ops = Stats.samples ();
      setup = Stats.samples (); replay = Stats.samples ();
      restore_objs = Stats.samples (); resume = Stats.samples ();
      reopen = Stats.samples (); space = Stats.samples ();
      dirty = Stats.samples () }
  in
  let first = ref None in
  let start = Trace.now () in
  let cycles = ref 0 in
  let submitted = Array.make n_tenants 0. and epoch_of = Array.make n_tenants 0 in
  let one_cycle () =
    let n = !cycles in
    let marks = (Stats.count a.epoch, Stats.count a.restore, Stats.count a.ops) in
    Env.gc_settle ();
    let syncs0 = Trace.counter "vfs.syncs"
    and written0 = Trace.counter "vfs.write_bytes" in
    let t0 = Trace.now () in
    let svc, path, tenants, shadows =
      Trace.span "setup" (fun () -> setup env ~n)
    in
    Stats.add a.setup (Trace.now () -. t0);
    let rng = Env.rng env 2 in
    let win = ref 0. in
    (try
       for r = 0 to rounds - 1 do
         let r0 = Trace.now () in
         Array.iteri
           (fun i t ->
             Trace.set_op ((((n * rounds) + r) * n_tenants) + i);
             let d =
               Trace.span "synth.mutate" (fun () -> Synth.mutate_round t.synth)
             in
             Stats.add a.dirty (float_of_int d);
             tally.attempted <- tally.attempted + 1;
             submitted.(i) <- Trace.now ();
             epoch_of.(i) <-
               Trace.span "service.submit" (fun () ->
                   Service.checkpoint t.tn t.roots))
           tenants;
         Trace.span "service.flush" (fun () -> Service.flush svc);
         let tf = Trace.now () in
         Array.iteri
           (fun i t ->
             Stats.add a.epoch (tf -. submitted.(i));
             Env.check tally "tenant-fleet epochs are contiguous"
               (epoch_of.(i) = t.acked + 1);
             t.acked <- epoch_of.(i))
           tenants;
         let timed = ref (tf -. r0) in
         Array.iter shadow_step shadows;
         for _ = 1 to restores_per_round do
           let i = Random.State.int rng n_tenants in
           let t = tenants.(i) in
           let e = Random.State.int rng (t.acked + 1) in
           tally.attempted <- tally.attempted + 1;
           let t3 = Trace.now () in
           let heap, restored =
             Trace.span "service.restore" (fun () -> Service.restore t.tn ~epoch:e)
           in
           let t4 = Trace.now () in
           Stats.add a.restore (t4 -. t3);
           Stats.add a.restore_objs (float_of_int (Heap.count heap));
           timed := !timed +. (t4 -. t3);
           let t5 = Trace.now () in
           let _, reference =
             Trace.span "core.replay" (fun () -> replay shadows.(t.group) e)
           in
           Stats.add a.replay (Trace.now () -. t5);
           Env.check tally
             (Printf.sprintf "tenant-fleet restore of %s epoch %d" t.name e)
             (Env.same_roots restored reference)
         done;
         let j = Random.State.int rng n_tenants in
         let t = tenants.(j) in
         let t6 = Trace.now () in
         Trace.span "service.resume" (fun () ->
             Service.evict svc ~name:t.name;
             t.tn <- Service.open_tenant svc t.synth.Synth.schema ~name:t.name);
         let t7 = Trace.now () in
         Stats.add a.resume (t7 -. t6);
         timed := !timed +. (t7 -. t6);
         Stats.add a.round !timed;
         win := !win +. !timed;
         if (r + 1) mod window = 0 then begin
           Stats.add a.ops (float_of_int (window * n_tenants) /. !win);
           win := 0.
         end
       done
     with e -> Env.fail tally ("tenant-fleet cycle: " ^ Printexc.to_string e));
    let syncs = Trace.counter "vfs.syncs" - syncs0
    and written = Trace.counter "vfs.write_bytes" - written0 in
    let st = Service.stats svc in
    Service.close svc;
    let body_bytes =
      Array.fold_left
        (fun sum t ->
          let s = shadows.(t.group) in
          let b = ref sum in
          for e = 0 to t.acked do
            b := !b + Segment.body_size (Hashtbl.find s.s_segs e)
          done;
          !b)
        0 tenants
    in
    let files_bytes =
      List.fold_left (fun s f -> s + Env.file_size f) 0 (service_files path)
    in
    Stats.add a.space (float_of_int files_bytes /. float_of_int body_bytes);
    if !first = None then
      first :=
        Some
          ( syncs,
            written,
            body_bytes,
            Array.fold_left (fun s t -> s + t.acked + 1) 0 tenants,
            st );
    (* Reopen gate: every acknowledged epoch listed for every tenant, the
       newest restores to the tenant's live heap. *)
    tally.attempted <- tally.attempted + 1;
    (try
       let t0 = Trace.now () in
       let svc =
         Trace.span "service.reopen" (fun () ->
             Service.open_ ?vfs:(Tvfs.of_env env) ~policy ~commit ~path ())
       in
       Stats.add a.reopen (Trace.now () -. t0);
       Array.iter
         (fun t ->
           let tn = Service.open_tenant svc t.synth.Synth.schema ~name:t.name in
           Env.check tally
             (Printf.sprintf "tenant-fleet reopen lists every epoch of %s" t.name)
             (Service.epochs tn = List.init (t.acked + 1) Fun.id);
           let _, restored = Service.restore tn ~epoch:t.acked in
           Env.check tally
             (Printf.sprintf "tenant-fleet newest epoch of %s equals its heap"
                t.name)
             (Env.same_roots restored t.roots))
         tenants;
       Service.close svc
     with e -> Env.fail tally ("tenant-fleet reopen: " ^ Printexc.to_string e));
    List.iter Env.remove_if_exists (service_files path);
    let e0, r0, o0 = marks in
    Stats.report_cycle "tenant-fleet" n
      ~epoch:(Stats.since a.epoch ~from:e0)
      ~restore:(Stats.since a.restore ~from:r0)
      ~ops:(Stats.since a.ops ~from:o0);
    incr cycles
  in
  while !cycles < 3 || Trace.now () -. start < env.Env.seconds do
    one_cycle ()
  done;
  let syncs, written, body, epochs, st = Option.get !first in
  let per_epoch x = float_of_int x /. float_of_int epochs in
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
      m "core.replay_ms" "ms" (1000. *. Stats.median a.replay);
      m "store.restore_objs" "count" (Stats.mean a.restore_objs);
      m "store.reopen_ms" "ms" (1000. *. Stats.median a.reopen);
      m "service.submit_ms" "ms" (Trace.mean_ms "service.submit");
      m "service.flush_ms" "ms" (Trace.mean_ms "service.flush");
      m "service.batch_epochs" "count"
        (float_of_int st.Service.committed_epochs
        /. float_of_int (max 1 st.Service.commit_batches));
      m "service.dedup_ratio" "ratio" st.Service.dedup_ratio;
      m "service.resume_ms" "ms" (1000. *. Stats.median a.resume);
      m "vfs.sync_count" "count" (per_epoch syncs);
      m "vfs.write_amp" "ratio" (float_of_int written /. float_of_int body) ]
  in
  (tally, end_to_end, per_layer, (Trace.find_layer "service.submit").calls)
