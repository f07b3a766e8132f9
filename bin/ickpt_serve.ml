(* The multi-tenant checkpoint service CLI.

   Two subcommands:

   - [run] (the default workload driver): open a service, run N synthetic
     tenants for R mutate-and-checkpoint rounds each, flush, and gate the
     run on every tenant restoring its latest epoch byte-identically to
     its live heap. Hash collisions absorbed by salted rehash surface as
     warning findings; a failed gate or integrity check is an error.
     [--json] emits the uniform machine envelope (the ickpt_lint schema,
     tool "ickpt_serve").
   - [check]: open an existing service read-only-ish and run the full
     integrity check over every tenant's entries and the shared pack.

   Exit codes (uniform with ickpt_lint/ickpt_store): 0 — clean; 1 — a
   failed gate, integrity error or service error; 2 — usage error. *)

open Cmdliner
open Ickpt_runtime
open Ickpt_core
open Ickpt_service
module Fi = Staticcheck.Finding

let json_arg =
  let doc = "Emit the machine-readable envelope on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let path_arg ~default =
  let doc =
    "Service path (the files are $(docv).pack, $(docv).shard<i>.idx, \
     $(docv).tenants, $(docv).svc)."
  in
  match default with
  | Some d -> Arg.(value & opt string d & info [ "path" ] ~docv:"PATH" ~doc)
  | None ->
      Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)

let commit_conv =
  let parse = function
    | "per-epoch" -> Ok Service.Per_epoch
    | "group" ->
        Ok
          (Service.Group
             { Async_writer.Batch.max_items = 8;
               max_bytes = 1 lsl 20;
               linger = 0. })
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown commit mode %S (per-epoch, group)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Service.Per_epoch -> "per-epoch"
      | Service.Group _ -> "group")
  in
  Arg.conv (parse, print)

let collision_findings svc =
  List.map
    (fun (c : Ickpt_cas.Store.collision) ->
      { Fi.severity = Fi.Warning;
        scope = "store:collision";
        path = Printf.sprintf "epoch:%d" c.Ickpt_cas.Store.col_epoch;
        reason =
          Printf.sprintf
            "chunk key %d collided; stored under salted rehash %d (attempt \
             %d)"
            c.Ickpt_cas.Store.col_content_key c.Ickpt_cas.Store.col_stored_key
            c.Ickpt_cas.Store.col_attempt })
    (Service.collisions svc)

(* ---- run ------------------------------------------------------------------ *)

let run_cmd =
  let tenants_arg =
    let doc = "Synthetic tenants to run." in
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let rounds_arg =
    let doc = "Mutate-and-checkpoint rounds per tenant after the base." in
    Arg.(value & opt int 6 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Shards for a newly created service." in
    Arg.(value & opt int Shard.default_count & info [ "shards" ] ~docv:"N" ~doc)
  in
  let commit_arg =
    let doc = "Commit mode: per-epoch or group." in
    Arg.(
      value
      & opt commit_conv Service.Per_epoch
      & info [ "commit" ] ~docv:"MODE" ~doc)
  in
  let keep_arg =
    let doc = "Keep the service files (default: remove them afterwards)." in
    Arg.(value & flag & info [ "keep" ] ~doc)
  in
  let default_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ickpt_serve_%d" (Unix.getpid ()))
  in
  let run tenants rounds shards commit path keep json =
    if tenants < 1 || rounds < 0 || shards < 1 then begin
      Printf.eprintf "run: --tenants/--shards must be >= 1, --rounds >= 0\n";
      exit 2
    end;
    let files =
      Service.pack_path path :: Service.catalog_path path
      :: Service.meta_path path
      :: List.init shards (Service.shard_index_path path)
    in
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files;
    let cleanup () =
      if not keep then
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files
    in
    Fun.protect ~finally:cleanup (fun () ->
        match
          let svc =
            Service.open_ ~shards ~policy:(Policy.Full_every 4) ~commit ~path
              ()
          in
          let open Ickpt_synth in
          let sessions =
            List.init tenants (fun i ->
                (* Two synthetic profiles, so half the tenants are
                   byte-identical to the other half and the shared pack
                   dedups across them. *)
                let t =
                  Synth.build
                    { Synth.default_config with
                      Synth.n_structures = 6;
                      list_len = 3;
                      pct_modified = 50;
                      seed = 0xC0FFEE + (i mod 2) }
                in
                (Printf.sprintf "tenant%02d" i,
                 Service.open_tenant svc t.Synth.schema
                   ~name:(Printf.sprintf "tenant%02d" i),
                 t))
          in
          List.iter
            (fun (_, tn, t) ->
              ignore (Service.checkpoint tn (Synth.roots t) : int);
              for _ = 1 to rounds do
                ignore (Synth.mutate_round t : int);
                ignore (Service.checkpoint tn (Synth.roots t) : int)
              done)
            sessions;
          Service.flush svc;
          (* The gate: every tenant's latest committed epoch restores to a
             heap deeply equal to the live one. *)
          let gate_ok =
            List.for_all
              (fun (_, tn, t) ->
                match Service.latest_epoch tn with
                | None -> false
                | Some epoch ->
                    let _heap, restored = Service.restore tn ~epoch in
                    let live = Synth.roots t in
                    List.length restored = List.length live
                    && List.for_all2 Deep_eq.equal restored live)
              sessions
          in
          let check_errors = Service.check svc in
          let st = Service.stats svc in
          let findings =
            collision_findings svc
            @ List.map
                (fun e ->
                  { Fi.severity = Fi.Error;
                    scope = "service:check";
                    path;
                    reason = e })
                check_errors
            @
            if gate_ok then []
            else
              [ { Fi.severity = Fi.Error;
                  scope = "service:gate";
                  path;
                  reason =
                    "a tenant's latest epoch does not restore to its live \
                     heap" } ]
          in
          Service.close svc;
          (st, findings, gate_ok && check_errors = [])
        with
        | exception Service.Error msg ->
            Printf.eprintf "run: %s\n" msg;
            exit 1
        | st, findings, ok ->
            let exit_code = if ok then 0 else 1 in
            if json then
              print_endline
                (Fi.envelope ~tool:"ickpt_serve" ~subcommand:"run"
                   ~extra:
                     [ ("tenants", string_of_int st.Service.n_tenants);
                       ("epochs", string_of_int st.Service.n_epochs);
                       ("chunks", string_of_int st.Service.n_chunks);
                       ("pack_bytes", string_of_int st.Service.pack_bytes);
                       ( "dedup_ratio",
                         Printf.sprintf "%.3f" st.Service.dedup_ratio );
                       ( "commit_batches",
                         string_of_int st.Service.commit_batches );
                       ( "committed_epochs",
                         string_of_int st.Service.committed_epochs );
                       ("collisions", string_of_int st.Service.collisions);
                       ("restore_gate_ok", string_of_bool ok) ]
                   ~exit_code findings)
            else begin
              Format.printf
                "service %s: %d tenant(s), %d epoch(s), %d chunk(s), pack \
                 %d bytes, dedup %.2fx@.  %d batch(es) committed %d \
                 epoch(s); %d collision(s) absorbed@."
                path st.Service.n_tenants st.Service.n_epochs
                st.Service.n_chunks st.Service.pack_bytes
                st.Service.dedup_ratio st.Service.commit_batches
                st.Service.committed_epochs st.Service.collisions;
              List.iter (fun f -> Format.printf "  %a@." Fi.pp f) findings;
              Format.printf "  restore gate: %s@."
                (if ok then "every tenant byte-identical" else "FAILED")
            end;
            if exit_code <> 0 then exit exit_code)
  in
  let doc =
    "run synthetic tenants against a service and gate on restore identity"
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ tenants_arg $ rounds_arg $ shards_arg $ commit_arg
      $ path_arg ~default:(Some default_path)
      $ keep_arg $ json_arg)

(* ---- check ---------------------------------------------------------------- *)

let check_cmd =
  let check path json =
    if not (Sys.file_exists (Service.meta_path path)) then begin
      Printf.eprintf "no service at %s (missing %s)\n" path
        (Service.meta_path path);
      exit 2
    end;
    match Service.open_ ~path () with
    | exception Service.Error msg ->
        Printf.eprintf "check: %s\n" msg;
        exit 1
    | svc ->
        let errors = Service.check svc in
        let st = Service.stats svc in
        Service.close svc;
        let findings =
          List.map
            (fun e ->
              { Fi.severity = Fi.Error; scope = "service:check"; path;
                reason = e })
            errors
        in
        let exit_code = if errors = [] then 0 else 1 in
        if json then
          print_endline
            (Fi.envelope ~tool:"ickpt_serve" ~subcommand:"check"
               ~extra:
                 [ ("tenants", string_of_int st.Service.n_tenants);
                   ("epochs", string_of_int st.Service.n_epochs);
                   ("chunks", string_of_int st.Service.n_chunks) ]
               ~exit_code findings)
        else begin
          Format.printf "service %s: %d tenant(s), %d epoch(s), %d chunk(s)@."
            path st.Service.n_tenants st.Service.n_epochs st.Service.n_chunks;
          match errors with
          | [] -> Format.printf "  check: consistent@."
          | es -> List.iter (fun e -> Format.printf "  check ERROR: %s@." e) es
        end;
        if exit_code <> 0 then exit exit_code
  in
  let doc = "verify an existing service's tenants and shared pack" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const check $ path_arg ~default:None $ json_arg)

let () =
  let doc = "run and verify multi-tenant checkpoint services" in
  let info = Cmd.info "ickpt_serve" ~version:"1.0.0" ~doc in
  let code = Cmd.eval (Cmd.group info [ run_cmd; check_cmd ]) in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
