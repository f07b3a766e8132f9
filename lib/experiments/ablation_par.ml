open Ickpt_analysis
open Staticcheck

let name = "par"

let title =
  "Domain-parallel execution ablation: interference-scheduled phases and \
   iteration strips on OCaml domains, every row gated by the \
   sequential-identity oracle (extension)"

type row = {
  workload : string;
  domains : int;
  par_sweeps : int;
  refused : int;
  groups : int;
  par_units : int;
  seq_seconds : float;
  par_seconds : float;
  speedup : float;
  identical : bool;
  oracle_ok : bool;
}

let host_cores () = Domain.recommended_domain_count ()

(* ---- workload sources ---------------------------------------------------- *)

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

(* A stencil big enough that strip fan-out has real work per domain: the
   example workloads finish in microseconds, where domain spawn cost
   dominates any speedup. Both sweeps are recognizable (assign-then-
   single-while over literal bounds) and strip-disjoint. *)
let stencil_src =
  "int src[2048];\n\
   int dst[2048];\n\
   int round = 0;\n\
   \n\
   void fill() {\n\
  \  int i;\n\
  \  i = 0;\n\
  \  while (i < 2048) {\n\
  \    src[i] = (i * 37 + 11) % 255;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   void smooth() {\n\
  \  int i;\n\
  \  i = 1;\n\
  \  while (i < 2047) {\n\
  \    dst[i] = (src[i - 1] * 3 + src[i] * 5 + src[i + 1] * 3) / 11;\n\
  \    dst[i] = (dst[i] * 7 + src[i] % 13 + 5) % 255;\n\
  \    dst[i] = dst[i] + (src[i] * src[i]) % 17;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   void commit() {\n\
  \  int i;\n\
  \  i = 0;\n\
  \  while (i < 2048) {\n\
  \    src[i] = (dst[i] * 7 + src[i]) % 251;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   int main() {\n\
  \  fill();\n\
  \  while (round < 4) {\n\
  \    smooth();\n\
  \    commit();\n\
  \    round = round + 1;\n\
  \  }\n\
  \  return src[17];\n\
   }\n"

let workloads () =
  List.map
    (fun f -> (Filename.remove_extension f, load_example f))
    [ "blur.mc"; "pagerank.mc"; "kvlog.mc"; "histogram.mc" ]
  @ [ ("stencil-2k", Minic.Parser.parse stencil_src) ]

(* ---- measurement --------------------------------------------------------- *)

let domain_counts = [ 1; 2; 4 ]

let measure_workload (wname, program) =
  let env = Minic.Check.check program in
  let t = Auto_spec.infer env in
  let _, seq_seconds =
    Ickpt_harness.Clock.best_of ~repeats:2 (fun () ->
        Engine.infer program)
  in
  let rows =
    List.map
      (fun d ->
        let sc = Interfere.schedule ~domains:d t in
        let _, par_seconds =
          Ickpt_harness.Clock.best_of ~repeats:2 (fun () ->
              Engine.infer
                ~strategy:
                  (Engine.Parallel
                     { mode = Engine.Incremental;
                       domains = d;
                       seed_racy = false })
                program)
        in
        let o = Elide_oracle.run_par ~domains:d ~name:wname program in
        { workload = wname;
          domains = d;
          par_sweeps = sc.Interfere.Schedule.sc_par_sweeps;
          refused = sc.Interfere.Schedule.sc_refused_sweeps;
          groups = sc.Interfere.Schedule.sc_groups;
          par_units = o.Elide_oracle.pw_par_units;
          seq_seconds;
          par_seconds;
          speedup = 1.0 (* filled in below from the 1-domain row *);
          identical =
            o.Elide_oracle.pw_identical_incremental
            && o.Elide_oracle.pw_identical_specialized;
          oracle_ok = Elide_oracle.par_ok o })
      domain_counts
  in
  let t1 =
    match List.find_opt (fun r -> r.domains = 1) rows with
    | Some r -> r.par_seconds
    | None -> seq_seconds
  in
  List.map
    (fun r ->
      { r with
        speedup = (if r.par_seconds > 0.0 then t1 /. r.par_seconds else 1.0) })
    rows

let measure_all () = List.concat_map measure_workload (workloads ())

(* ---- JSON (BENCH_7.json) ------------------------------------------------- *)

let json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"domain-parallel execution ablation\",\n\
       \  \"unit\": \"wall-clock seconds; speedup vs the 1-domain \
        execution\",\n\
       \  \"host_cores\": %d,\n\
       \  \"rows\": [\n"
       (host_cores ()));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": %S, \"domains\": %d,\n\
           \     \"par_sweeps\": %d, \"refused_sweeps\": %d, \"groups\": \
            %d, \"par_units\": %d,\n\
           \     \"seq_seconds\": %.6f, \"par_seconds\": %.6f, \"speedup\": \
            %.3f,\n\
           \     \"identical_to_sequential\": %b, \"oracle_ok\": %b}%s\n"
           r.workload r.domains r.par_sweeps r.refused r.groups r.par_units
           r.seq_seconds r.par_seconds r.speedup r.identical r.oracle_ok
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---- table + checks ------------------------------------------------------ *)

let pp_table ppf rows =
  let table =
    Ickpt_harness.Table.create ~title
      ~columns:
        [ "workload"; "domains"; "sweeps"; "refused"; "groups"; "units";
          "seq s"; "par s"; "speedup"; "identical"; "oracle" ]
  in
  List.iter
    (fun r ->
      Ickpt_harness.Table.add_row table
        [ r.workload;
          string_of_int r.domains;
          string_of_int r.par_sweeps;
          string_of_int r.refused;
          string_of_int r.groups;
          string_of_int r.par_units;
          Printf.sprintf "%.4f" r.seq_seconds;
          Printf.sprintf "%.4f" r.par_seconds;
          Printf.sprintf "%.2fx" r.speedup;
          (if r.identical then "yes" else "NO");
          (if r.oracle_ok then "ok" else "FAIL") ])
    rows;
  Format.fprintf ppf "%a@." Ickpt_harness.Table.pp table

let checks rows =
  let open Workload in
  let cores = host_cores () in
  [ check ~label:"par: sequential-identity oracle passes on every row"
      ~ok:(rows <> [] && List.for_all (fun r -> r.oracle_ok) rows)
      ~detail:
        "every parallel execution produced byte-identical chains in both \
         modes and pairwise-disjoint observed footprints in every fork \
         group";
    check ~label:"par: parallel chains byte-identical to sequential"
      ~ok:(List.for_all (fun r -> r.identical) rows)
      ~detail:
        "replaying domain-local write logs in schedule order reproduces \
         the sequential barrier stream exactly";
    check ~label:"par: the schedule parallelizes real work"
      ~ok:
        (List.exists (fun r -> r.domains = 4 && r.par_units > 0) rows)
      ~detail:
        "at 4 domains at least one workload executes parallel units \
         (iteration strips or grouped phases)";
    check ~label:"par: the conflicting kvlog sweep is refused, not run"
      ~ok:
        (List.for_all
           (fun r ->
             r.workload <> "kvlog" || r.domains < 2
             || (r.refused >= 1 && r.par_sweeps = 0))
           rows)
      ~detail:
        "kvlog's hash-scatter strips may collide on the whole table, so \
         the analysis must refuse them whenever there are >= 2 strips (a \
         single strip is trivially disjoint)";
    check
      ~label:"par: >= 1.5x speedup at 4 domains on >= 1 workload (multi-core)"
      ~ok:
        (cores < 2
        || List.exists
             (fun r -> r.domains = 4 && r.speedup >= 1.5)
             rows)
      ~detail:
        (if cores < 2 then
           Printf.sprintf
             "host reports %d core(s): domains cannot run concurrently, so \
              no speedup is claimed — identity and disjointness were still \
              verified on every row"
             cores
         else
           "with real cores available, strip fan-out must pay for its \
            snapshot and replay overhead somewhere") ]

let run ~scale ppf =
  ignore (scale : Workload.scale);
  let rows = measure_all () in
  pp_table ppf rows;
  checks rows
