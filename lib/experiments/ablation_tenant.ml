open Ickpt_core
open Ickpt_cas
open Ickpt_service
open Ickpt_analysis

let name = "tenant"

let title =
  "Multi-tenant service ablation: per-tenant chains over one shared pack, \
   group-committed writes vs per-epoch commits, every row gated by \
   per-tenant restore identity against a private store (extension)"

type row = {
  mode : string;
  shards : int;
  domains : int;
  tenants : int;
  epochs : int;
  seconds : float;
  epochs_per_sec : float;
  p99_latency : float;
  fsyncs : int;
  fsyncs_per_epoch : float;
  commit_batches : int;
  dedup_ratio : float;
  cross_tenant_dedup : float;
  restore_identical : bool;
}

let host_cores () = Domain.recommended_domain_count ()

(* ---- tenant zoo ---------------------------------------------------------- *)

(* Eight tenants: two instances each of the four example workloads, run
   through the engine in annotation-free incremental mode. The two
   instances of a workload submit byte-identical segments (per-heap object
   ids restart at 0), which is exactly the state the shared pack dedups
   across tenants. [repeat] lengthens every session by replaying its
   segment list with contiguous renumbered sequences — each pass starts
   with the full base, which the chain accepts mid-stream. *)

type session = {
  s_name : string;
  s_schema : Ickpt_runtime.Schema.t;
  s_segments : Segment.t list;  (* one pass, seqs 0..n-1 *)
}

let example_path file =
  let candidates =
    [ Filename.concat "examples/workloads" file;
      Filename.concat "../examples/workloads" file;
      Filename.concat "../../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith (Printf.sprintf "example workload %s not found" file)

let load_example file =
  let ic = open_in_bin (example_path file) in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Minic.Parser.parse src

let sessions () =
  List.concat_map
    (fun wname ->
      let program = load_example (wname ^ ".mc") in
      let report = Engine.infer program in
      let chain = report.Engine.chain in
      let schema = Chain.schema chain in
      let segments = Chain.segments chain in
      List.map
        (fun inst ->
          { s_name = Printf.sprintf "%s-%s" wname inst;
            s_schema = schema;
            s_segments = segments })
        [ "a"; "b" ])
    [ "blur"; "histogram"; "pagerank"; "kvlog" ]

let session_epochs s ~repeat = repeat * List.length s.s_segments

(* Pass [p] of a session: the same segments with sequences shifted to stay
   contiguous across passes. *)
let pass_segments s ~pass =
  let n = List.length s.s_segments in
  List.map
    (fun (seg : Segment.t) -> { seg with Segment.seq = (pass * n) + seg.seq })
    s.s_segments

(* ---- fsync meter --------------------------------------------------------- *)

let counting_vfs inner =
  let syncs = Atomic.make 0 in
  let wrap w =
    { w with
      Vfs.sync =
        (fun () ->
          Atomic.incr syncs;
          w.Vfs.sync ()) }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap (inner.Vfs.open_trunc p)) },
    syncs )

(* ---- the private-store reference ----------------------------------------- *)

let full_body roots =
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.full_many d roots;
  Ickpt_stream.Out_stream.contents d

let tmp slug =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ickpt_tenant_%d_%s" (Unix.getpid ()) slug)

let remove_if_exists p = if Sys.file_exists p then Sys.remove p

(* Each tenant run alone on a private store: the pack footprint the shared
   pack is compared against, and the restore oracle every service row is
   gated by. [probe_epochs] picks a mid and the last epoch. *)
type reference = {
  f_name : string;
  f_pack_bytes : int;
  f_probes : (int * string) list;  (* epoch -> full-checkpoint bytes *)
}

let probe_epochs ~total = List.sort_uniq compare [ (total - 1) / 2; total - 1 ]

let private_reference ~repeat s =
  let path = tmp ("priv_" ^ s.s_name) in
  let files = [ Store.pack_path path; Store.index_path path ] in
  List.iter remove_if_exists files;
  Fun.protect
    ~finally:(fun () -> List.iter remove_if_exists files)
    (fun () ->
      let store = Store.open_ s.s_schema ~path in
      for pass = 0 to repeat - 1 do
        List.iter
          (fun seg ->
            ignore (Store.append_segment store seg : Store.append_stats))
          (pass_segments s ~pass)
      done;
      let probes =
        List.map
          (fun e ->
            let _heap, roots = Store.restore store ~epoch:e in
            (e, full_body roots))
          (probe_epochs ~total:(session_epochs s ~repeat))
      in
      let pack_bytes =
        let ic = open_in_bin (Store.pack_path path) in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> in_channel_length ic)
      in
      { f_name = s.s_name; f_pack_bytes = pack_bytes; f_probes = probes })

(* ---- one service row ----------------------------------------------------- *)

let group_policy =
  { Async_writer.Batch.max_items = 8; max_bytes = 1 lsl 20; linger = 0. }

let service_files path ~shards =
  Service.pack_path path :: Service.catalog_path path :: Service.meta_path path
  :: List.init shards (Service.shard_index_path path)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let i = min (n - 1) (int_of_float (p *. float_of_int n)) in
      List.nth sorted i

let measure_row ~sessions ~references ~repeat ~mode_label ~commit ~shards
    ~domains =
  let path = tmp (Printf.sprintf "svc_%s_s%d" mode_label shards) in
  let files = service_files path ~shards in
  List.iter remove_if_exists files;
  Fun.protect
    ~finally:(fun () -> List.iter remove_if_exists files)
    (fun () ->
      let vfs, syncs = counting_vfs Vfs.real in
      let svc = Service.open_ ~vfs ~shards ~commit ~path () in
      let tens =
        List.map
          (fun s -> (s, Service.open_tenant svc s.s_schema ~name:s.s_name))
          sessions
      in
      (* Each domain drives a disjoint slice of tenants, interleaving its
         tenants' epochs so group batches genuinely mix tenants. *)
      let drive part =
        List.iteri
          (fun i (s, tn) ->
            if i mod domains = part then
              for pass = 0 to repeat - 1 do
                List.iter
                  (fun seg -> ignore (Service.append tn seg : int))
                  (pass_segments s ~pass)
              done)
          tens
      in
      let t0 = Unix.gettimeofday () in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (fun () -> drive (d + 1)))
      in
      drive 0;
      List.iter Domain.join spawned;
      Service.flush svc;
      let seconds = Unix.gettimeofday () -. t0 in
      let latencies = Service.drain_latencies svc in
      let st = Service.stats svc in
      (* Restore-identity gate: every tenant's probe epochs must match its
         private-store materialization byte for byte. *)
      let restore_identical =
        List.for_all
          (fun (s, tn) ->
            let r = List.find (fun f -> f.f_name = s.s_name) references in
            List.length (Service.epochs tn) = session_epochs s ~repeat
            && List.for_all
                 (fun (epoch, expected) ->
                   let _heap, roots = Service.restore tn ~epoch in
                   String.equal (full_body roots) expected)
                 r.f_probes)
          tens
      in
      let shared_pack_bytes =
        let ic = open_in_bin (Service.pack_path path) in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> in_channel_length ic)
      in
      Service.close svc;
      let private_sum =
        List.fold_left (fun a f -> a + f.f_pack_bytes) 0 references
      in
      let epochs = st.Service.committed_epochs in
      { mode = mode_label;
        shards;
        domains;
        tenants = List.length sessions;
        epochs;
        seconds;
        epochs_per_sec =
          (if seconds > 0.0 then float_of_int epochs /. seconds else 0.0);
        p99_latency = percentile 0.99 latencies;
        fsyncs = Atomic.get syncs;
        fsyncs_per_epoch =
          (if epochs > 0 then float_of_int (Atomic.get syncs) /. float_of_int epochs
           else 0.0);
        commit_batches = st.Service.commit_batches;
        dedup_ratio = st.Service.dedup_ratio;
        cross_tenant_dedup =
          (if shared_pack_bytes > 0 then
             float_of_int private_sum /. float_of_int shared_pack_bytes
           else 1.0);
        restore_identical })

let configs =
  [ ("per-epoch", Service.Per_epoch, 1, 1);
    ("group", Service.Group group_policy, 1, 1);
    ("group", Service.Group group_policy, 2, 2);
    ("group", Service.Group group_policy, 4, 4) ]

let measure_all ?(repeat = 3) () =
  let sessions = sessions () in
  let references = List.map (private_reference ~repeat) sessions in
  List.map
    (fun (mode_label, commit, shards, domains) ->
      measure_row ~sessions ~references ~repeat ~mode_label ~commit ~shards
        ~domains)
    configs

(* ---- JSON (BENCH_8.json) ------------------------------------------------- *)

let json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"multi-tenant service ablation\",\n\
       \  \"unit\": \"epochs/second; p99 commit latency in seconds; fsyncs \
        per committed epoch\",\n\
       \  \"host_cores\": %d,\n\
       \  \"rows\": [\n"
       (host_cores ()));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"shards\": %d, \"domains\": %d, \"tenants\": \
            %d, \"epochs\": %d,\n\
           \     \"seconds\": %.6f, \"epochs_per_sec\": %.1f, \
            \"p99_commit_latency\": %.6f,\n\
           \     \"fsyncs\": %d, \"fsyncs_per_epoch\": %.3f, \
            \"commit_batches\": %d,\n\
           \     \"dedup_ratio\": %.3f, \"cross_tenant_dedup\": %.3f, \
            \"restore_identical\": %b}%s\n"
           r.mode r.shards r.domains r.tenants r.epochs r.seconds
           r.epochs_per_sec r.p99_latency r.fsyncs r.fsyncs_per_epoch
           r.commit_batches r.dedup_ratio r.cross_tenant_dedup
           r.restore_identical
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---- table + checks ------------------------------------------------------ *)

let pp_table ppf rows =
  let table =
    Ickpt_harness.Table.create ~title
      ~columns:
        [ "mode"; "shards"; "domains"; "tenants"; "epochs"; "ep/s"; "p99";
          "fsync/ep"; "batches"; "dedup"; "x-tenant"; "identical" ]
  in
  List.iter
    (fun r ->
      Ickpt_harness.Table.add_row table
        [ r.mode;
          string_of_int r.shards;
          string_of_int r.domains;
          string_of_int r.tenants;
          string_of_int r.epochs;
          Printf.sprintf "%.0f" r.epochs_per_sec;
          Ickpt_harness.Table.cell_seconds r.p99_latency;
          Printf.sprintf "%.2f" r.fsyncs_per_epoch;
          string_of_int r.commit_batches;
          Ickpt_harness.Table.cell_speedup r.dedup_ratio;
          Ickpt_harness.Table.cell_speedup r.cross_tenant_dedup;
          (if r.restore_identical then "yes" else "NO") ])
    rows;
  Format.fprintf ppf "%a@." Ickpt_harness.Table.pp table

let checks rows =
  let open Workload in
  let per_epoch = List.filter (fun r -> r.mode = "per-epoch") rows in
  let grouped = List.filter (fun r -> r.mode = "group") rows in
  [ check ~label:"tenant: every row restores each tenant byte-identically"
      ~ok:(rows <> [] && List.for_all (fun r -> r.restore_identical) rows)
      ~detail:
        "each tenant's probe epochs materialize from the shared pack to the \
         same full-checkpoint bytes as from a private store holding only \
         that tenant";
    check ~label:"tenant: >= 8 tenants of mixed workloads on every row"
      ~ok:(List.for_all (fun r -> r.tenants >= 8) rows)
      ~detail:
        "two instances each of blur, histogram, pagerank and kvlog share \
         the pack";
    check ~label:"tenant: cross-tenant dedup > 1.5x"
      ~ok:(List.for_all (fun r -> r.cross_tenant_dedup > 1.5) rows)
      ~detail:
        "the shared pack is > 1.5x smaller than the sum of the eight \
         private per-tenant packs — identical tenants store their chunks \
         once";
    check ~label:"tenant: group commit fsyncs less than per-epoch commit"
      ~ok:
        (per_epoch <> [] && grouped <> []
        && List.for_all
             (fun g ->
               List.for_all
                 (fun p -> g.fsyncs_per_epoch < p.fsyncs_per_epoch)
                 per_epoch)
             grouped)
      ~detail:
        "one pack sync + one index sync per batch, amortized over every \
         tenant epoch in it, vs two syncs per epoch" ]

let run ~scale ppf =
  let repeat = if scale >= 1.0 then 3 else 1 in
  let rows = measure_all ~repeat () in
  pp_table ppf rows;
  checks rows
