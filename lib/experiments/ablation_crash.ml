(* Extension (not in the paper): crash-consistency ablation. The paper
   argues checkpoints are cheap to *take*; this experiment certifies they
   are worth taking — across every simulated power-loss point the durable
   log recovers to a committed prefix of the checkpoint history. The sweep
   dimensions (sync/async sink, policy, compaction, pre-torn resume) match
   the storage features the other experiments exercise. *)

open Ickpt_harness
open Ickpt_faultsim

let name = "crash"

let title = "Ablation (extension): crash-consistency of the checkpoint log"

let run ~scale ppf =
  (* Scale steers how finely each write op is sliced into crash points. *)
  let density = max 1 (int_of_float (4.0 *. scale)) in
  let configs = Sweep.default_configs in
  let reports =
    List.map (fun c -> Sweep.sweep ~density (Sweep.log c)) configs
  in
  let table =
    Table.create ~title
      ~columns:[ "config"; "crash points"; "injected crashes"; "violations" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.Sweep.r_label;
          string_of_int r.Sweep.r_points;
          string_of_int r.Sweep.r_runs;
          string_of_int (List.length r.Sweep.r_violations) ])
    reports;
  Format.fprintf ppf "%a@." Table.pp table;
  List.iter
    (fun r ->
      if not (Sweep.ok r) then Format.fprintf ppf "%a@." Sweep.pp_report r)
    reports;
  let runs = List.fold_left (fun a r -> a + r.Sweep.r_runs) 0 reports in
  let bad =
    List.fold_left (fun a r -> a + List.length r.Sweep.r_violations) 0 reports
  in
  let open Workload in
  [ check ~label:"crash: every injected crash recovers prefix-consistently"
      ~ok:(bad = 0)
      ~detail:
        (Printf.sprintf "%d crashes over %d configs, %d violations" runs
           (List.length reports) bad);
    check ~label:"crash: sweep covers sync and async sinks"
      ~ok:
        (List.exists (fun c -> c.Sweep.async) configs
        && List.exists (fun c -> not c.Sweep.async) configs)
      ~detail:(Printf.sprintf "%d configs" (List.length reports)) ]
