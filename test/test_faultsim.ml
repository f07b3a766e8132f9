(* Tests for the fault-injection vfs and the crash-consistency fixes:
   regression tests pinning the three bugs this PR fixes (torn-append,
   hostile segment lengths, failed-writer draining), the atomic-compaction
   guarantee, a qcheck fuzz over Storage.load / Segment.decode_all, and a
   smoke run of the crash sweep itself. *)

open Ickpt_stream
open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Test_util

let log = "ckpt.log"

let seg kind seq body = { Segment.kind; seq; roots = [ 0 ]; body }

(* ------------------------------------------------------------------ *)
(* The simulator itself: the durability contract it models.           *)

let sim_crash_modes () =
  let run mode =
    (* ops: 0 write "aaa", 1 sync, 2 write "bbb", 3 write "ccc" (crash
       after 1 byte of it). *)
    let sim =
      Sim.create ~fault:(Sim.Crash_at { op = 3; byte = 1; mode }) ()
    in
    let vfs = Sim.vfs sim in
    let w = vfs.Vfs.open_append "f" in
    w.Vfs.write "aaa";
    w.Vfs.sync ();
    w.Vfs.write "bbb";
    (match w.Vfs.write "ccc" with
    | () -> Alcotest.fail "expected simulated power loss"
    | exception Sim.Crashed -> ());
    Alcotest.(check bool) "machine is down" true (Sim.crashed sim);
    (match vfs.Vfs.read_file "f" with
    | _ -> Alcotest.fail "reads after power loss must raise"
    | exception Sim.Crashed -> ());
    List.assoc "f" (Sim.durable (Sim.restart sim))
  in
  Alcotest.(check string) "torn keeps every applied byte" "aaabbbc"
    (run Sim.Torn);
  Alcotest.(check string) "drop-unsynced keeps only synced bytes" "aaa"
    (run Sim.Drop_unsynced);
  let corrupted = run Sim.Corrupt_tail in
  Alcotest.(check int) "corrupt-tail keeps the torn length" 7
    (String.length corrupted);
  Alcotest.(check string) "corrupt-tail leaves synced bytes alone" "aaa"
    (String.sub corrupted 0 3);
  Alcotest.(check bool) "corrupt-tail flips an unsynced byte" true
    (corrupted <> "aaabbbc")

let sim_rename_atomic () =
  let sim = Sim.seeded [ (log, "old") ] in
  let vfs = Sim.vfs sim in
  let w = vfs.Vfs.open_trunc "tmp" in
  w.Vfs.write "new!";
  w.Vfs.sync ();
  vfs.Vfs.rename ~src:"tmp" ~dst:log;
  Alcotest.(check string) "rename replaces contents" "new!"
    (vfs.Vfs.read_file log);
  Alcotest.(check bool) "source is gone" false (vfs.Vfs.exists "tmp")

(* ------------------------------------------------------------------ *)
(* Bug 1 (Manager): resuming over a torn tail used to append after the
   garbage, making every later segment unreachable.                    *)

let torn_tail_resume_roundtrip () =
  let env = make_env () in
  let root = build env (Pair (1, 2, Some (Leaf 3), Some (Leaf 4))) in
  (* First life: two durable checkpoints. *)
  let sim = Sim.create () in
  let m = Manager.create ~vfs:(Sim.vfs sim) env.schema ~path:log in
  ignore (Manager.checkpoint m [ root ]);
  Barrier.set_int root 0 41;
  ignore (Manager.checkpoint m [ root ]);
  Manager.close m;
  let content = List.assoc log (Sim.durable sim) in
  (* Power loss mid-append left a torn segment at the tail. *)
  let torn = content ^ String.sub (Segment.encode (seg Segment.Full 9 "x")) 0 7 in
  let sim2 = Sim.seeded [ (log, torn) ] in
  let vfs2 = Sim.vfs sim2 in
  (* Second life: resume must truncate the garbage before appending. *)
  let m2 = Manager.create ~vfs:vfs2 env.schema ~path:log in
  Barrier.set_int root 0 42;
  ignore (Manager.checkpoint m2 [ root ]);
  Manager.close m2;
  match Manager.recover_latest ~vfs:vfs2 env.schema ~path:log with
  | Error e -> Alcotest.failf "recovery after resume failed: %s" e
  | Ok (_, roots) -> (
      match roots with
      | [ r ] ->
          Alcotest.(check bool)
            "checkpoint appended after a torn tail is readable" true
            (Deep_eq.equal root r)
      | _ -> Alcotest.fail "expected exactly one recovered root")

(* ------------------------------------------------------------------ *)
(* Bug 2 (Segment): a hostile varint length used to escape as
   Invalid_argument from String.sub instead of In_stream.Corrupt.      *)

let hostile_header ~nroots ~body_len =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d 0x49434b50 (* magic "ICKP" *);
  Out_stream.write_byte d Segment.version;
  Out_stream.write_byte d 0 (* kind = full *);
  Out_stream.write_int d 0 (* seq *);
  Out_stream.write_int d nroots;
  if nroots = 0 then Out_stream.write_int d body_len;
  Out_stream.contents d ^ String.make 16 'x'

let hostile_body_len () =
  let s = hostile_header ~nroots:0 ~body_len:max_int in
  (match Segment.decode s ~pos:0 with
  | _ -> Alcotest.fail "hostile body length accepted"
  | exception In_stream.Corrupt _ -> ());
  (* Storage.load must fold the same input into a torn tail, not raise. *)
  let vfs = Sim.vfs (Sim.seeded [ (log, s) ]) in
  let { Storage.segments; torn_tail; bytes_read } = Storage.load ~vfs log in
  Alcotest.(check int) "no segment decoded" 0 (List.length segments);
  Alcotest.(check bool) "flagged as torn" true torn_tail;
  Alcotest.(check int) "safe truncation point is 0" 0 bytes_read

let hostile_root_count () =
  let s = hostile_header ~nroots:max_int ~body_len:0 in
  match Segment.decode s ~pos:0 with
  | _ -> Alcotest.fail "hostile root count accepted"
  | exception In_stream.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Bug 3 (Async_writer): after a write failure the loop used to keep
   draining queued segments into the broken channel.                   *)

let failed_writer_stops_draining () =
  (* The very first write op fails; the delay keeps the writer thread
     busy long enough for the queue to fill up deterministically. *)
  let sim = Sim.create ~fault:(Sim.Fail_write_at 0) ~write_delay:0.1 () in
  let w = Async_writer.create ~vfs:(Sim.vfs sim) ~path:log () in
  Async_writer.enqueue w (seg Segment.Full 0 "a");
  Async_writer.enqueue w (seg Segment.Incremental 1 "b");
  Async_writer.enqueue w (seg Segment.Incremental 2 "c");
  (match Async_writer.flush w with
  | () -> Alcotest.fail "flush on a failed writer must raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "no draining into a broken channel" 1 (Sim.ops sim);
  (match Async_writer.enqueue w (seg Segment.Incremental 3 "d") with
  | () -> Alcotest.fail "enqueue after failure must raise"
  | exception Failure _ -> ());
  (* close must return promptly (not wait for an impossible drain) and
     must not attempt further writes. *)
  Async_writer.close w;
  Alcotest.(check int) "close wrote nothing further" 1 (Sim.ops sim)

(* ------------------------------------------------------------------ *)
(* Atomic compaction: a crash anywhere inside write_chain leaves either
   the complete old log or the complete new one.                       *)

let compaction_crash_atomic () =
  let env = make_env () in
  let root = build env (Pair (0, 0, Some (Leaf 0), None)) in
  let sim = Sim.create () in
  let m = Manager.create ~vfs:(Sim.vfs sim) env.schema ~path:log in
  ignore (Manager.checkpoint m [ root ]);
  Barrier.set_int root 0 1;
  ignore (Manager.checkpoint m [ root ]);
  Barrier.set_int root 0 2;
  ignore (Manager.checkpoint m [ root ]);
  Manager.close m;
  let content = List.assoc log (Sim.durable sim) in
  (* Fault-free reference: write_chain is ops 0 (tmp write), 1 (tmp
     sync), 2 (rename). *)
  let crash_during op byte =
    let sim =
      Sim.seeded
        ~fault:(Sim.Crash_at { op; byte; mode = Sim.Torn })
        [ (log, content) ]
    in
    let vfs = Sim.vfs sim in
    let chain, torn = Storage.load_chain ~vfs env.schema ~path:log in
    Alcotest.(check bool) "seeded log is intact" false torn;
    Chain.compact chain;
    (match Storage.write_chain ~vfs ~path:log chain with
    | () -> Alcotest.fail "expected simulated power loss"
    | exception Sim.Crashed -> ());
    Storage.load ~vfs:(Sim.vfs (Sim.restart sim)) log
  in
  let r = crash_during 0 10 in
  Alcotest.(check int) "torn tmp write: old log intact" 3
    (List.length r.Storage.segments);
  Alcotest.(check bool) "torn tmp write: log not torn" false
    r.Storage.torn_tail;
  let r = crash_during 2 0 in
  Alcotest.(check int) "crash before rename: old log" 3
    (List.length r.Storage.segments);
  let r = crash_during 2 1 in
  Alcotest.(check int) "crash after rename: compacted log" 1
    (List.length r.Storage.segments);
  Alcotest.(check bool) "compacted log not torn" false r.Storage.torn_tail

(* ------------------------------------------------------------------ *)
(* Fuzz: random mutations of a valid log never make loading raise, and
   whatever loads is a prefix of what was written.                     *)

type fuzz_op = Truncate of int | Flip of int | Splice of string

let fuzz_segs_gen =
  let open QCheck2.Gen in
  let seg_gen =
    let* full = bool in
    let* seq = int_range 0 200 in
    let* roots = list_size (int_range 0 3) (int_range 0 100) in
    let* body = string_size (int_range 0 40) in
    return
      { Segment.kind = (if full then Segment.Full else Segment.Incremental);
        seq;
        roots;
        body }
  in
  list_size (int_range 1 4) seg_gen

let fuzz_ops_gen =
  let open QCheck2.Gen in
  let op_gen =
    let* which = int_range 0 2 in
    match which with
    | 0 -> map (fun p -> Truncate p) nat
    | 1 -> map (fun p -> Flip p) nat
    | _ -> map (fun s -> Splice s) (string_size (int_range 1 12))
  in
  list_size (int_range 1 3) op_gen

let apply_fuzz_op data = function
  | Truncate p -> String.sub data 0 (p mod (String.length data + 1))
  | Flip p ->
      if data = "" then data
      else begin
        let b = Bytes.of_string data in
        let i = p mod String.length data in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 + (p mod 255))));
        Bytes.to_string b
      end
  | Splice s -> data ^ s

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let fuzz_load =
  QCheck2.Test.make ~count:300
    ~name:"fuzzed log: load never raises, yields a written prefix"
    QCheck2.Gen.(pair fuzz_segs_gen fuzz_ops_gen)
    (fun (segs, ops) ->
      let mutated =
        List.fold_left apply_fuzz_op
          (String.concat "" (List.map Segment.encode segs))
          ops
      in
      let vfs = Sim.vfs (Sim.seeded [ (log, mutated) ]) in
      match Storage.load ~vfs log with
      | exception e ->
          QCheck2.Test.fail_reportf "load raised %s" (Printexc.to_string e)
      | { Storage.segments; torn_tail; bytes_read } ->
          is_prefix segments segs
          && bytes_read <= String.length mutated
          && (torn_tail || bytes_read = String.length mutated))

let fuzz_decode_all =
  QCheck2.Test.make ~count:300
    ~name:"fuzzed log: decode_all raises Corrupt or nothing"
    QCheck2.Gen.(pair fuzz_segs_gen fuzz_ops_gen)
    (fun (segs, ops) ->
      let mutated =
        List.fold_left apply_fuzz_op
          (String.concat "" (List.map Segment.encode segs))
          ops
      in
      match Segment.decode_all mutated with
      | _ -> true
      | exception In_stream.Corrupt _ -> true)

let fuzz_decode_garbage =
  QCheck2.Test.make ~count:500
    ~name:"arbitrary bytes: decode raises Corrupt or nothing"
    QCheck2.Gen.(string_size (int_range 0 120))
    (fun s ->
      match Segment.decode s ~pos:0 with
      | _ -> true
      | exception In_stream.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* The sweep itself, on a small config subset (the full 18-config sweep
   runs under the @crash alias).                                       *)

let sweep_smoke () =
  let configs =
    [ Sweep.config Policy.Incremental_after_base;
      Sweep.config ~async:true ~compact_above:3 (Policy.Full_every 2);
      Sweep.config ~pre_torn:true Policy.Incremental_after_base ]
  in
  List.iter
    (fun cfg ->
      let r = Sweep.sweep ~rounds:3 ~density:0 (Sweep.log cfg) in
      if not (Sweep.ok r) then
        Alcotest.failf "crash sweep violations:@.%a" Sweep.pp_report r;
      Alcotest.(check bool)
        (cfg.Sweep.label ^ ": sweep injected crashes")
        true
        (r.Sweep.r_runs > 0))
    configs

(* The full default sweep (what [ickpt_bench crash] runs), pinned point
   for point: a refactor that silently enumerates fewer crash points, or
   an op trace that changes shape, fails here. *)
let sweep_default_sizes () =
  let expected (c : Sweep.config) =
    if c.async && c.compact_above > 0 && c.pre_torn then (70, 210)
    else if c.compact_above > 0 || c.pre_torn then (50, 150)
    else (40, 120)
  in
  Alcotest.(check int) "default configs" 18 (List.length Sweep.default_configs);
  let total =
    List.fold_left
      (fun total (c : Sweep.config) ->
        let r = Sweep.sweep (Sweep.log c) in
        if not (Sweep.ok r) then
          Alcotest.failf "crash sweep violations:@.%a" Sweep.pp_report r;
        Alcotest.(check (pair int int))
          (c.label ^ ": points, runs") (expected c) (r.r_points, r.r_runs);
        total + r.r_runs)
      0 Sweep.default_configs
  in
  Alcotest.(check int) "injected crashes" 2520 total

let suites =
  [ ( "faultsim.sim",
      [ Alcotest.test_case "crash modes" `Quick sim_crash_modes;
        Alcotest.test_case "atomic rename" `Quick sim_rename_atomic ] );
    ( "faultsim.regressions",
      [ Alcotest.test_case "torn-tail resume roundtrip" `Quick
          torn_tail_resume_roundtrip;
        Alcotest.test_case "hostile body length" `Quick hostile_body_len;
        Alcotest.test_case "hostile root count" `Quick hostile_root_count;
        Alcotest.test_case "failed writer stops draining" `Quick
          failed_writer_stops_draining;
        Alcotest.test_case "compaction crash is atomic" `Quick
          compaction_crash_atomic ] );
    ( "faultsim.fuzz",
      [ QCheck_alcotest.to_alcotest fuzz_load;
        QCheck_alcotest.to_alcotest fuzz_decode_all;
        QCheck_alcotest.to_alcotest fuzz_decode_garbage ] );
    ( "faultsim.sweep",
      [ Alcotest.test_case "smoke (3 configs)" `Quick sweep_smoke;
        Alcotest.test_case "default sizes (18 configs)" `Quick
          sweep_default_sizes ] ) ]
