(* The benchmark executable: runs one workload in this process and prints one
   JSON object as the last line of standard output.

   Usage: perfbench.exe --workload synth-store|tenant-fleet|engine-image
            --seed N --seconds S [--trace 0|1] [--work DIR]

   With [--trace 0] the object holds the end-to-end metrics. With
   [--trace 1] every layer call is a span, the per-layer metrics are added,
   the per-span self times go to standard error and the spans are written
   to DIR/trace-<workload>-<seed>.json (Chrome trace-event format). *)

(* Every per-layer metric, in print order. A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer_units =
  [ ("synth.mutate_ms", "ms"); ("synth.dirty_objs", "count");
    ("jspec.specialize_ms", "ms"); ("jspec.record_ms", "ms");
    ("jspec.record_bytes", "bytes"); ("manager.self_ms", "ms");
    ("core.replay_ms", "ms"); ("store.append_ms", "ms");
    ("store.append_self_ms", "ms"); ("store.append_growth", "ratio");
    ("store.chunks_total", "count"); ("store.chunks_new", "count");
    ("store.dedup_hit", "ratio"); ("store.restore_objs", "count");
    ("store.reopen_ms", "ms"); ("service.submit_ms", "ms");
    ("service.flush_ms", "ms"); ("service.batch_epochs", "count");
    ("service.dedup_ratio", "ratio"); ("service.resume_ms", "ms");
    ("vfs.sync_count", "count"); ("vfs.sync_ms", "ms");
    ("vfs.write_ms", "ms"); ("vfs.write_amp", "ratio");
    ("vfs.read_ms", "ms"); ("engine.ckpt_bytes", "bytes");
    ("engine.segments", "count"); ("engine.phase_ckpt_ms", "ms");
    ("engine.phase_analysis_ms", "ms"); ("fail_frac", "ratio") ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload synth-store|tenant-fleet|engine-image \
     --seed N --seconds S [--trace 0|1] [--work DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and traced = ref false and work = ref "perfbench/_work" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        traced := t = "1";
        parse rest
    | "--work" :: d :: rest ->
        work := d;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds =
    match (!seed, !seconds) with
    | Some n, Some s when s > 0. -> (n, s)
    | _ -> usage ()
  in
  let run =
    match !workload with
    | "synth-store" -> Synth_store.run
    | "tenant-fleet" -> Tenant_fleet.run
    | "engine-image" -> Engine_image.run
    | _ -> usage ()
  in
  let dir = Filename.concat !work (string_of_int (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname !work; !work; dir ];
  Trace.on := !traced;
  let env = { Env.seed; seconds; traced = !traced; dir } in
  (* [epochs]: checkpoints committed while spans were kept (traced). *)
  let tally, end_to_end, per_layer, epochs =
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun f -> Env.remove_if_exists (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () -> run env)
  in
  let m = Stats.metric in
  let end_to_end = end_to_end @ [ m "peak_rss_mb" "MB" (Stats.peak_rss_mb ()) ] in
  let fail_frac =
    float_of_int tally.Env.failed /. float_of_int (max 1 tally.Env.attempted)
  in
  let per_layer =
    if not !traced then []
    else begin
      let per_epoch name =
        let l = Trace.find_layer name in
        if epochs = 0 then 0. else 1000. *. l.Trace.total /. float_of_int epochs
      in
      let measured =
        per_layer
        @ [ m "vfs.sync_ms" "ms" (per_epoch "vfs.sync");
            m "vfs.write_ms" "ms" (per_epoch "vfs.write");
            m "vfs.read_ms" "ms" (Trace.mean_ms "vfs.read");
            m "fail_frac" "ratio" fail_frac ]
      in
      List.iter
        (fun x ->
          if not (List.mem_assoc x.Stats.m_name per_layer_units) then
            failwith ("perfbench: unlisted per-layer metric " ^ x.Stats.m_name))
        measured;
      Format.eprintf "perfbench %s seed %d: spans by layer@.%a" !workload seed
        Trace.pp_layers ();
      let out =
        Filename.concat !work (Printf.sprintf "trace-%s-%d.json" !workload seed)
      in
      Trace.write_chrome out;
      Printf.eprintf "perfbench: %d spans written to %s\n%!"
        (List.length !Trace.finished) out;
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.Stats.m_name = name) measured with
          | Some x -> x
          | None -> m name unit_ 0.)
        per_layer_units
    end
  in
  Stats.print_json stdout
    { Stats.attempted = tally.Env.attempted;
      failed = tally.Env.failed;
      correct = tally.Env.failed = 0 && tally.Env.attempted > 0;
      metrics = end_to_end @ per_layer }
