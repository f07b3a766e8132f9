(* Command-line front end over the experiment registry: run any subset of
   the paper's tables/figures at any scale, list them, or run the Bechamel
   micro-benchmarks. *)

open Cmdliner
open Ickpt_experiments

let scale_arg =
  let doc =
    "Synthetic population as a fraction of the paper's 20,000 structures."
  in
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let paper_arg =
  let doc = "Run at full paper scale (equivalent to --scale 1)." in
  Arg.(value & flag & info [ "paper" ] ~doc)

let names_arg =
  let doc = "Experiments to run (default: all)." in
  Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)

let effective_scale scale paper = if paper then 1.0 else scale

let run_cmd =
  let run scale paper names =
    let scale = effective_scale scale paper in
    let ppf = Format.std_formatter in
    let names = match names with [] -> None | l -> Some l in
    let results = Registry.run_all ?names ~scale ppf in
    let failed =
      List.concat_map
        (fun (_, checks) -> List.filter (fun c -> not c.Workload.ok) checks)
        results
    in
    if failed = [] then `Ok ()
    else begin
      Format.fprintf ppf "@.%d shape check(s) failed@." (List.length failed);
      `Ok ()
    end
  in
  let doc = "run evaluation experiments (tables and figures)" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run $ scale_arg $ paper_arg $ names_arg))

let list_cmd =
  let list () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Registry.name e.Registry.title)
      Registry.all
  in
  let doc = "list available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list $ const ())

let micro_cmd =
  let quota_arg =
    let doc = "Sampling budget per test in seconds." in
    Arg.(value & opt float 0.25 & info [ "quota" ] ~docv:"SECONDS" ~doc)
  in
  let micro quota = Micro.run ~quota Format.std_formatter in
  let doc = "run the Bechamel micro-benchmarks" in
  Cmd.v (Cmd.info "micro" ~doc) Term.(const micro $ quota_arg)

let crash_cmd =
  let open Ickpt_faultsim in
  let rounds_arg =
    let doc = "Mutate-and-checkpoint rounds after the base checkpoint." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let density_arg =
    let doc =
      "Interior byte offsets injected per write op (0 = only the \
       boundaries 0, 1, len-1, len)."
    in
    Arg.(value & opt int 2 & info [ "density" ] ~docv:"N" ~doc)
  in
  let configs_arg =
    let doc =
      "Config labels to sweep (substring match; default: all 18)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"CONFIG" ~doc)
  in
  let crash rounds density labels =
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i =
        i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
      in
      nl = 0 || go 0
    in
    let configs =
      match labels with
      | [] -> Sweep.default_configs
      | ls ->
          List.filter
            (fun c -> List.exists (fun l -> contains c.Sweep.label l) ls)
            Sweep.default_configs
    in
    if configs = [] then `Error (false, "no config matches")
    else begin
      let reports =
        List.map (fun c -> Sweep.sweep ~rounds ~density (Sweep.log c)) configs
      in
      Sweep.pp_summary Format.std_formatter reports;
      if List.for_all Sweep.ok reports then `Ok ()
      else `Error (false, "crash-consistency violations found")
    end
  in
  let doc =
    "sweep simulated power-loss points over checkpointing workloads and \
     verify recovery is always prefix-consistent"
  in
  Cmd.v
    (Cmd.info "crash" ~doc)
    Term.(ret (const crash $ rounds_arg $ density_arg $ configs_arg))

let barrier_cmd =
  let files_arg =
    let doc =
      "Mini-C workloads to ablate (default: the built-in image and small \
       generator programs)."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the rows as JSON (the BENCH_4.json document) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)
  in
  let repeats_arg =
    let doc = "Engine runs per configuration; per-phase minima are kept." in
    Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let barrier files out repeats =
    let load path =
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Minic.Parser.parse src with
      | program -> (Filename.remove_extension (Filename.basename path), program)
      | exception Minic.Parser.Parse_error { line; message } ->
          Printf.eprintf "%s:%d: %s\n" path line message;
          exit 2
      | exception Minic.Lexer.Lex_error { line; col; message } ->
          Printf.eprintf "%s:%d:%d: %s\n" path line col message;
          exit 2
    in
    let workloads =
      match files with
      | [] ->
          [ ("image", Minic.Gen.image_program ());
            ("small", Minic.Gen.small_program ()) ]
      | fs -> List.map load fs
    in
    let rows = Ablation_barrier.measure ~repeats workloads in
    let ppf = Format.std_formatter in
    Ablation_barrier.pp_table ppf rows;
    let checks = Ablation_barrier.checks rows in
    Workload.pp_checks ppf checks;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Ablation_barrier.json rows));
        Format.fprintf ppf "wrote %s@." path);
    if Workload.all_ok checks then `Ok ()
    else `Error (false, "barrier-ablation checks failed")
  in
  let doc =
    "measure per-phase checkpoint overhead with and without static \
     write-barrier elision"
  in
  Cmd.v
    (Cmd.info "barrier" ~doc)
    Term.(ret (const barrier $ files_arg $ out_arg $ repeats_arg))

let dedup_cmd =
  let files_arg =
    let doc =
      "Mini-C workloads to store in full-checkpointing mode (default: the \
       built-in image and small generator programs)."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the rows as JSON (the BENCH_5.json document) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)
  in
  let repeats_arg =
    let doc = "Restore timings per row; the fastest run is kept." in
    Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let epochs_arg =
    let doc = "Incremental epochs in the long pagerank-style run." in
    Arg.(value & opt int 120 & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let pages_arg =
    let doc = "Pages in the long pagerank-style run." in
    Arg.(value & opt int 300 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let dedup files out repeats epochs pages =
    let load path =
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Minic.Parser.parse src with
      | program -> (Filename.remove_extension (Filename.basename path), program)
      | exception Minic.Parser.Parse_error { line; message } ->
          Printf.eprintf "%s:%d: %s\n" path line message;
          exit 2
      | exception Minic.Lexer.Lex_error { line; col; message } ->
          Printf.eprintf "%s:%d:%d: %s\n" path line col message;
          exit 2
    in
    let workloads =
      match files with
      | [] ->
          [ ("image", Minic.Gen.image_program ());
            ("small", Minic.Gen.small_program ()) ]
      | fs -> List.map load fs
    in
    let rows =
      Ablation_dedup.measure_engine ~repeats workloads
      @ [ Ablation_dedup.measure_pagerank ~repeats ~epochs ~pages () ]
    in
    let ppf = Format.std_formatter in
    Ablation_dedup.pp_table ppf rows;
    let checks = Ablation_dedup.checks rows in
    Workload.pp_checks ppf checks;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Ablation_dedup.json rows));
        Format.fprintf ppf "wrote %s@." path);
    if Workload.all_ok checks then `Ok ()
    else `Error (false, "dedup-store ablation checks failed")
  in
  let doc =
    "measure chunk dedup and O(live) epoch restore of the content-addressed \
     store against plain chain replay"
  in
  Cmd.v
    (Cmd.info "dedup" ~doc)
    Term.(
      ret (const dedup $ files_arg $ out_arg $ repeats_arg $ epochs_arg
           $ pages_arg))

let live_cmd =
  let out_arg =
    let doc = "Write the rows as JSON (the BENCH_6.json document) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)
  in
  let live out =
    let rows = Ablation_live.measure_all () in
    let ppf = Format.std_formatter in
    Ablation_live.pp_table ppf rows;
    let checks = Ablation_live.checks rows in
    Workload.pp_checks ppf checks;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Ablation_live.json rows));
        Format.fprintf ppf "wrote %s@." path);
    if Workload.all_ok checks then `Ok ()
    else `Error (false, "liveness-minimization ablation checks failed")
  in
  let doc =
    "measure checkpoint-set minimization by the interprocedural liveness \
     analysis, gated per workload by the restore-equivalence oracle"
  in
  Cmd.v (Cmd.info "live" ~doc) Term.(ret (const live $ out_arg))

let par_cmd =
  let out_arg =
    let doc = "Write the rows as JSON (the BENCH_7.json document) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)
  in
  let par out =
    let rows = Ablation_par.measure_all () in
    let ppf = Format.std_formatter in
    Ablation_par.pp_table ppf rows;
    let checks = Ablation_par.checks rows in
    Workload.pp_checks ppf checks;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Ablation_par.json rows));
        Format.fprintf ppf "wrote %s@." path);
    if Workload.all_ok checks then `Ok ()
    else `Error (false, "domain-parallel execution ablation checks failed")
  in
  let doc =
    "measure domain-parallel execution of interference-scheduled phases \
     and strips, gated per row by the sequential-identity oracle"
  in
  Cmd.v (Cmd.info "par" ~doc) Term.(ret (const par $ out_arg))

let tenant_cmd =
  let out_arg =
    let doc = "Write the rows as JSON (the BENCH_8.json document) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)
  in
  let repeat_arg =
    let doc =
      "Chain replays per tenant session (longer sessions; 1 for a smoke \
       run)."
    in
    Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let tenant out repeat =
    let rows = Ablation_tenant.measure_all ~repeat () in
    let ppf = Format.std_formatter in
    Ablation_tenant.pp_table ppf rows;
    let checks = Ablation_tenant.checks rows in
    Workload.pp_checks ppf checks;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Ablation_tenant.json rows));
        Format.fprintf ppf "wrote %s@." path);
    if Workload.all_ok checks then `Ok ()
    else `Error (false, "multi-tenant service ablation checks failed")
  in
  let doc =
    "measure multi-tenant throughput, group-commit fsync amortization and \
     cross-tenant dedup on the shared pack, gated per row by per-tenant \
     restore identity"
  in
  Cmd.v
    (Cmd.info "tenant" ~doc)
    Term.(ret (const tenant $ out_arg $ repeat_arg))

let () =
  let doc =
    "benchmark harness for the incremental-checkpointing reproduction"
  in
  let info = Cmd.info "ickpt_bench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; list_cmd; micro_cmd; crash_cmd; barrier_cmd; dedup_cmd;
            live_cmd; par_cmd; tenant_cmd ]))
