(* Interference analysis and domain-parallel execution: schedule shapes
   on the example workloads (strip ranges, refusals with the conflicting
   region pair, phase groups), deterministic replay (the parallel chain
   is byte-identical to the sequential one at any domain count), the
   sequential-identity oracle including the seeded racy overlap that
   only the dynamic footprint check may catch, and a top-level return
   inside a parallel phase group. *)

module As = Staticcheck.Auto_spec
module If = Staticcheck.Interfere
module Sc = Staticcheck.Interfere.Schedule
module Fi = Staticcheck.Finding
open Ickpt_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let example_path file =
  let candidates =
    [ Filename.concat "../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file;
      Filename.concat "examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "example workload %s not found" file

let example_program file =
  let ic = open_in_bin (example_path file) in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Minic.Parser.parse src

let schedule_example ?(domains = 4) file =
  If.schedule ~domains
    (As.infer (Minic.Check.check (example_program file)))

let sweeps_of sc =
  List.concat_map
    (fun ps ->
      List.filter_map
        (function Sc.Par_sweep sw -> Some sw | Sc.Serial _ -> None)
        ps.Sc.ps_units)
    sc.Sc.sc_phases

let find_sweep sc func =
  match List.find_opt (fun sw -> sw.Sc.sw_func = func) (sweeps_of sc) with
  | Some sw -> sw
  | None ->
      Alcotest.failf "sweep %s not scheduled parallel among %s" func
        (String.concat ", "
           (List.map (fun sw -> sw.Sc.sw_func) (sweeps_of sc)))

let check_strips what expected sw =
  Alcotest.(check (list (pair int int)))
    what expected
    (List.map (fun st -> (st.Sc.st_lo, st.Sc.st_hi)) sw.Sc.sw_strips)

let has_reason sc reason =
  List.exists (fun (f : Fi.t) -> f.Fi.reason = reason) sc.Sc.sc_findings

(* ---- schedule shapes --------------------------------------------------------

   blur: both sweeps of the round phase partition cleanly — smooth's
   strips write disjoint slices of temp while sharing overlapping reads
   of image (common reads are allowed), commit's strips are disjoint on
   both sides. The trailing [return image[32]] phase reads what the loop
   writes, so no phase group forms. *)

let blur_schedule () =
  let sc = schedule_example "blur.mc" in
  check_int "parallel sweeps" 2 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 0 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_bool "not seeded" false sc.Sc.sc_seeded;
  let smooth = find_sweep sc "smooth" in
  check_strips "smooth strips"
    [ (8, 20); (20, 32); (32, 44); (44, 56) ]
    smooth;
  check_strips "commit strips"
    [ (0, 16); (16, 32); (32, 48); (48, 64) ]
    (find_sweep sc "commit");
  (* the precondition the scheduler claims: every strip pair is
     footprint-disjoint *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check_bool
              (Printf.sprintf "smooth strips %d/%d disjoint" i j)
              true
              (If.footprint_conflict a.Sc.st_foot b.Sc.st_foot = None))
        smooth.Sc.sw_strips)
    smooth.Sc.sw_strips

(* pagerank: commit_ranks partitions, but scatter's body (per-edge
   accumulation) is not the counted-sweep shape the range reasoning
   handles — it must be refused with a finding, not silently dropped. *)
let pagerank_schedule () =
  let sc = schedule_example "pagerank.mc" in
  check_int "parallel sweeps" 1 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 1 sc.Sc.sc_refused_sweeps;
  check_strips "commit_ranks strips"
    [ (0, 4); (4, 8); (8, 12); (12, 16) ]
    (find_sweep sc "commit_ranks");
  check_bool "scatter refusal names the shape" true
    (has_reason sc "body is not assign-then-single-while");
  check_bool "refusals are warnings" true
    (List.for_all
       (fun (f : Fi.t) -> f.Fi.severity = Fi.Warning)
       sc.Sc.sc_findings)

(* kvlog: the hash scatter may send any key to any slot, so every strip
   pair may collide on the whole table — refused with the conflicting
   region pair. The trailing [return table[0] + log_pos] phase reads the
   loop's writes (visible only because phase analysis keeps return-
   expression reads), so no phase group forms either. *)
let kvlog_schedule () =
  let sc = schedule_example "kvlog.mc" in
  check_int "parallel sweeps" 0 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 1 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_bool "strip refusal names the region pair" true
    (has_reason sc "strips 0 and 1 may conflict on table: 0..63 vs 0..63");
  check_bool "return-read interference is seen" true
    (has_reason sc "phases may interfere on table: 0..63 vs 0");
  (* a single strip is trivially disjoint: at 1 domain the same sweep is
     recognized, not refused *)
  let sc1 = schedule_example ~domains:1 "kvlog.mc" in
  check_int "1-domain parallel sweeps" 1 sc1.Sc.sc_par_sweeps;
  check_int "1-domain refused sweeps" 0 sc1.Sc.sc_refused_sweeps

(* histogram: one setup phase, no round loop — nothing to parallelize,
   and nothing to refuse. *)
let histogram_schedule () =
  let sc = schedule_example "histogram.mc" in
  check_int "parallel sweeps" 0 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 0 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_int "no findings" 0 (List.length sc.Sc.sc_findings)

(* ---- deterministic merge ----------------------------------------------------

   Replaying domain-local write logs in schedule order must reproduce
   the sequential barrier stream exactly: same program, any domain
   count, byte-identical chains. *)

let segment_keys report =
  List.map
    (fun (s : Ickpt_core.Segment.t) ->
      ( s.Ickpt_core.Segment.kind,
        s.Ickpt_core.Segment.seq,
        s.Ickpt_core.Segment.roots,
        s.Ickpt_core.Segment.body ))
    (Ickpt_core.Chain.segments report.Engine.chain)

let parallel ~domains program =
  Engine.infer
    ~strategy:
      (Engine.Parallel
         { mode = Engine.Incremental; domains; seed_racy = false })
    program

let merge_determinism () =
  let program = example_program "blur.mc" in
  let seq = Engine.infer program in
  let par1 = parallel ~domains:1 program in
  let par4 = parallel ~domains:4 program in
  check_bool "1-domain chain = sequential chain" true
    (segment_keys par1 = segment_keys seq);
  check_bool "4-domain chain = sequential chain" true
    (segment_keys par4 = segment_keys seq);
  (match par4.Engine.par with
  | None -> Alcotest.fail "parallel run carries no par report"
  | Some rep ->
      check_int "domains" 4 rep.Engine.par_domains;
      (* 2 sweeps x 4 rounds fan out, 4 strips each *)
      check_int "sweep fan-outs" 8 rep.Engine.par_sweeps;
      check_int "parallel units" 32 (List.length rep.Engine.par_units));
  check_bool "sequential run carries no par report" true
    (seq.Engine.par = None)

(* ---- phase groups -----------------------------------------------------------

   Two independent while-loops over disjoint globals: all three
   discovered phases have pairwise-disjoint footprints (including the
   lifted loop counters), so they form one parallel group — the
   phase-pairing path, which no example workload exercises. *)

let twoloops_src =
  "int a = 0;\n\
   int b = 0;\n\
   int i = 0;\n\
   int j = 0;\n\
   int main() {\n\
  \  while (i < 5) { a = a + 1; i = i + 1; }\n\
  \  while (j < 5) { b = b + 2; j = j + 1; }\n\
  \  return 0;\n\
   }\n"

let phase_groups () =
  let program = Minic.Parser.parse twoloops_src in
  let sc = If.schedule ~domains:4 (As.infer (Minic.Check.check program)) in
  check_int "one multi-phase group" 1 sc.Sc.sc_groups;
  check_int "three phases" 3 (List.length sc.Sc.sc_phases);
  check_bool "all phases share the group" true
    (List.for_all (fun ps -> ps.Sc.ps_group = 0) sc.Sc.sc_phases);
  let o = Elide_oracle.run_par ~name:"twoloops" program in
  check_bool "grouped execution passes the oracle" true
    (Elide_oracle.par_ok o);
  check_bool "the fork actually ran concurrently-checked pairs" true
    (o.Elide_oracle.pw_pairs_checked > 0)

(* ---- sequential-identity oracle -------------------------------------------- *)

let oracle_blur () =
  let o =
    Elide_oracle.run_par ~name:"blur" (example_program "blur.mc")
  in
  check_bool "oracle passes" true (Elide_oracle.par_ok o);
  check_bool "not seeded" false o.Elide_oracle.pw_seeded;
  check_int "parallel units" 32 o.Elide_oracle.pw_par_units;
  check_int "sweep fan-outs" 8 o.Elide_oracle.pw_par_sweeps;
  check_bool "pairs were checked" true
    (o.Elide_oracle.pw_pairs_checked > 0)

(* The seeded overlap writes the same value into the contested cell, so
   the chains stay byte-identical — identity alone cannot catch it. The
   observed-footprint intersection must. *)
let oracle_seeded_blur () =
  let o =
    Elide_oracle.run_par ~seed_racy:true ~name:"blur"
      (example_program "blur.mc")
  in
  check_bool "seeded" true o.Elide_oracle.pw_seeded;
  check_bool "oracle refuses" false (Elide_oracle.par_ok o);
  check_bool "conflicts observed" true (o.Elide_oracle.pw_conflicts <> []);
  check_bool "chains nonetheless identical (incremental)" true
    o.Elide_oracle.pw_identical_incremental;
  check_bool "chains nonetheless identical (specialized)" true
    o.Elide_oracle.pw_identical_specialized;
  List.iter
    (fun (c : Elide_oracle.par_conflict) ->
      check_bool "conflict names the region" true
        (c.Elide_oracle.pc_detail <> ""))
    o.Elide_oracle.pw_conflicts

(* ---- halt inside a phase group -----------------------------------------------

   twoloops with a [return] in the first loop's third round: the schedule
   still groups all three phases, so the first member halts on its own
   domain while the later members run to completion there. The master
   must replay only the halted member's three rounds and discard the
   rest — exactly the sequential run's chain, with the later phases
   taking no checkpoint. *)

let halting_src =
  "int a = 0;\n\
   int b = 0;\n\
   int i = 0;\n\
   int j = 0;\n\
   int main() {\n\
  \  while (i < 5) { a = a + 1; i = i + 1; if (i == 3) { return a; } }\n\
  \  while (j < 5) { b = b + 2; j = j + 1; }\n\
  \  return 0;\n\
   }\n"

let halt_in_group () =
  let program = Minic.Parser.parse halting_src in
  let sc = If.schedule ~domains:2 (As.infer (Minic.Check.check program)) in
  check_int "one multi-phase group" 1 sc.Sc.sc_groups;
  check_bool "all phases share the group" true
    (List.for_all (fun ps -> ps.Sc.ps_group = 0) sc.Sc.sc_phases);
  let seq = Engine.infer program in
  let par = parallel ~domains:2 program in
  check_bool "grouped chain = sequential chain" true
    (segment_keys par = segment_keys seq);
  let iterations (r : Engine.report) =
    List.map (fun (p : Engine.phase_report) -> p.Engine.iterations)
      r.Engine.phases
  in
  Alcotest.(check (list int)) "sequential iterations" [ 3; 0; 0 ]
    (iterations seq);
  Alcotest.(check (list int)) "grouped iterations" [ 3; 0; 0 ] (iterations par)

let suites =
  [ ( "interfere-schedule",
      [ Alcotest.test_case "blur strips" `Quick blur_schedule;
        Alcotest.test_case "pagerank refusal" `Quick pagerank_schedule;
        Alcotest.test_case "kvlog conflicts" `Quick kvlog_schedule;
        Alcotest.test_case "histogram serial" `Quick histogram_schedule;
        Alcotest.test_case "phase groups" `Quick phase_groups ] );
    ( "par-engine",
      [ Alcotest.test_case "deterministic merge" `Slow merge_determinism;
        Alcotest.test_case "halt inside a phase group" `Quick halt_in_group ] );
    ( "par-oracle",
      [ Alcotest.test_case "blur passes" `Slow oracle_blur;
        Alcotest.test_case "seeded racy overlap caught" `Slow
          oracle_seeded_blur ] ) ]
