(* Tests for the content-addressed store: Hash64 vectors, record-aligned
   chunking, pack/index framing and torn-tail handling, dedup, O(live)
   restore vs chain replay, diff, GC/refcounts, the Manager sink, the
   stale-temp sweep regression, a smoke run of the store crash sweep, and
   the QCheck round-trip property over synthetic heaps. *)

open Ickpt_stream
open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Ickpt_cas

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let store_path = "s.ckpt"

(* ------------------------------------------------------------------ *)
(* A small deterministic world (same shape as the crash sims).        *)

type world = {
  schema : Schema.t;
  roots : Model.obj list;
  mutate : int -> unit;
}

let make_world () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk_leaf v =
    let o = Heap.alloc heap leaf in
    o.Model.ints.(0) <- v;
    o
  in
  let mk_pair a b l r =
    let o = Heap.alloc heap pair in
    o.Model.ints.(0) <- a;
    o.Model.ints.(1) <- b;
    o.Model.children.(0) <- Some l;
    o.Model.children.(1) <- Some r;
    o
  in
  let leaves = Array.init 8 (fun i -> mk_leaf i) in
  let pa = mk_pair 100 101 leaves.(0) leaves.(1) in
  let pb = mk_pair 102 103 leaves.(2) leaves.(3) in
  let pc = mk_pair 104 105 leaves.(4) leaves.(5) in
  let pd = mk_pair 106 107 leaves.(6) leaves.(7) in
  let qa = mk_pair 108 109 pa pb in
  let qb = mk_pair 110 111 pc pd in
  let root = mk_pair 112 113 qa qb in
  let objs = Array.concat [ [| root; qa; qb; pa; pb; pc; pd |]; leaves ] in
  let n = Array.length objs in
  let mutate r =
    Barrier.set_int objs.(r mod n) 0 (10_000 + (3 * r));
    Barrier.set_int objs.((r + 5) mod n) 0 (10_001 + (3 * r))
  in
  { schema; roots = [ root ]; mutate }

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

let full_body roots =
  let d = Out_stream.create () in
  Checkpointer.full_many d roots;
  Out_stream.contents d

(* ------------------------------------------------------------------ *)
(* Hash64.                                                            *)

let hash64_basics () =
  check_int "empty string is the offset basis" Hash64.init (Hash64.string "");
  (* FNV-1a("a") is the published 0xaf63dc4c8601ec8c; our arithmetic runs
     mod 2^63, which drops the top bit. *)
  check_string "known vector, folded" "2f63dc4c8601ec8c"
    (Hash64.to_hex (Hash64.string "a"));
  check_int "running hash composes"
    (Hash64.string "abcd")
    (Hash64.string ~h:(Hash64.string "ab") "cd");
  check_int "sub matches string on the window"
    (Hash64.string "abcd")
    (Hash64.sub "xabcdy" ~pos:1 ~len:4);
  check_int "bytes agrees with string"
    (Hash64.string "abc")
    (Hash64.bytes (Bytes.of_string "abc"));
  check_bool "distinct inputs, distinct keys" true
    (Hash64.string "a" <> Hash64.string "b");
  check_int "hex is fixed-width" 16 (String.length (Hash64.to_hex 1));
  (match Hash64.sub "abc" ~pos:2 ~len:5 with
  | _ -> Alcotest.fail "out-of-range window accepted"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Chunking.                                                          *)

let chunk_split_roundtrip () =
  let w = make_world () in
  let body = full_body w.roots in
  check_int "empty body, no chunks" 0
    (List.length (Chunk.split w.schema ""));
  let chunks = Chunk.split ~records_per_chunk:2 w.schema body in
  check_string "chunks concatenate to the body" body
    (String.concat "" (List.map (fun (c : Chunk.t) -> c.data) chunks));
  List.iter
    (fun (c : Chunk.t) ->
      check_bool "at most records_per_chunk records" true
        (List.length c.records <= 2);
      check_int "key is the content hash" (Chunk.key_of c.data) c.key;
      List.iter
        (fun (id, off) ->
          let r = Restore.record_at w.schema c.data ~pos:off in
          check_int "directory offset decodes the right record" id
            r.Restore.rec_id)
        c.records)
    chunks;
  check_int "records partition the body" 15
    (List.fold_left (fun a (c : Chunk.t) -> a + List.length c.records) 0 chunks)

(* A localized mutation must leave every chunk after the affected one
   byte-identical — the record-index alignment that makes dedup work. *)
let chunk_alignment_stability () =
  let w = make_world () in
  let before = Chunk.split ~records_per_chunk:2 w.schema (full_body w.roots) in
  w.mutate 0;
  (* mutate 0 touches objs.(0) (the root, first record) and objs.(5). *)
  let after = Chunk.split ~records_per_chunk:2 w.schema (full_body w.roots) in
  check_int "same chunk count" (List.length before) (List.length after);
  let keys l = List.map (fun (c : Chunk.t) -> c.key) l in
  let shared =
    List.filter (fun k -> List.mem k (keys before)) (keys after)
  in
  check_bool "unchanged record runs dedup across versions" true
    (List.length shared >= List.length before - 2);
  check_bool "the mutated chunk does not" true
    (List.hd (keys after) <> List.hd (keys before))

(* ------------------------------------------------------------------ *)
(* Pack framing.                                                      *)

let pack_roundtrip_and_torn_tail () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let p = Pack.open_ ~vfs "p.pack" in
  let d1 = "chunk one body" and d2 = "chunk two" in
  let k1 = Chunk.key_of d1 and k2 = Chunk.key_of d2 in
  let wrote = Pack.append_batch p [ (k1, d1); (k2, d2) ] in
  check_bool "frames cost bytes" true (wrote > String.length (d1 ^ d2));
  check_string "read back 1" d1 (Pack.read p k1);
  check_string "read back 2" d2 (Pack.read p k2);
  check_bool "mem" true (Pack.mem p k1 && Pack.mem p k2);
  check_int "chunk_len" (String.length d2) (Pack.chunk_len p k2);
  check_int "length" 2 (Pack.length p);
  (match Pack.append_batch p [ (k1, d1) ] with
  | _ -> Alcotest.fail "duplicate key accepted"
  | exception Invalid_argument _ -> ());
  (* A torn frame at the tail is truncated away on reopen. *)
  let intact = Pack.physical_bytes p in
  let w = vfs.Vfs.open_append "p.pack" in
  w.Vfs.write "ICPKgarbage-not-a-frame";
  w.Vfs.sync ();
  w.Vfs.close ();
  let p2 = Pack.open_ ~vfs "p.pack" in
  check_int "torn tail dropped" 2 (Pack.length p2);
  check_int "file truncated to the intact prefix" intact
    (Pack.physical_bytes p2);
  check_string "intact chunks survive" d1 (Pack.read p2 k1)

let index_roundtrip_and_torn_tail () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let e1 =
    { Epoch_index.epoch = 0; kind = Segment.Full; roots = [ 7 ];
      chunks = [ Chunk.key_of "x" ];
      dir = [ { Epoch_index.d_id = 7; d_chunk = 0; d_off = 0 } ] }
  in
  let e2 =
    { Epoch_index.epoch = 1; kind = Segment.Incremental; roots = [ 7 ];
      chunks = [ Chunk.key_of "y"; Chunk.key_of "x" ];
      dir = [ { Epoch_index.d_id = 9; d_chunk = 1; d_off = 3 } ] }
  in
  Epoch_index.append vfs "i.idx" e1;
  Epoch_index.append vfs "i.idx" e2;
  let entries, valid = Epoch_index.load vfs "i.idx" in
  check_bool "roundtrip" true (entries = [ e1; e2 ]);
  check_int "whole file valid" (String.length (vfs.Vfs.read_file "i.idx")) valid;
  (* Torn tail: half an entry. *)
  let half = String.sub (Epoch_index.encode e1) 0 6 in
  let w = vfs.Vfs.open_append "i.idx" in
  w.Vfs.write half;
  w.Vfs.sync ();
  w.Vfs.close ();
  let entries2, valid2 = Epoch_index.load vfs "i.idx" in
  check_bool "intact prefix survives a torn entry" true (entries2 = [ e1; e2 ]);
  check_int "valid offset excludes the torn entry" valid valid2

(* ------------------------------------------------------------------ *)
(* Store: append, restore vs chain replay, dedup, errors.             *)

(* Drive a chain and a store in lockstep for [rounds] epochs under a
   policy; returns (chain, store, world). *)
let drive ?(records_per_chunk = 4) ~policy ~rounds vfs =
  let w = make_world () in
  let chain = Chain.create w.schema in
  let store =
    Store.open_ ~vfs ~records_per_chunk w.schema ~path:store_path
  in
  for r = 0 to rounds - 1 do
    if r > 0 then w.mutate r;
    let taken =
      match Policy.decide policy chain with
      | Segment.Full -> Chain.take_full chain w.roots
      | Segment.Incremental -> Chain.take_incremental chain w.roots
    in
    ignore (Store.append_segment store taken.Chain.segment)
  done;
  (chain, store, w)

(* Chain-replay restoration of epoch [e]: what Chain.recover does, for an
   arbitrary epoch — replay the suffix from the newest full at or before
   [e]. *)
let replay_restore chain ~epoch =
  let upto =
    List.filter (fun (s : Segment.t) -> s.seq <= epoch) (Chain.segments chain)
  in
  let since_full =
    let rec cut acc = function
      | [] -> acc
      | (s : Segment.t) :: older -> (
          match s.kind with
          | Segment.Full -> s :: acc
          | Segment.Incremental -> cut (s :: acc) older)
    in
    cut [] (List.rev upto)
  in
  let roots = (List.nth upto (List.length upto - 1)).Segment.roots in
  Restore.of_segments (Chain.schema chain) since_full ~roots

let store_restore_agrees_with_replay () =
  let sim = Sim.create () in
  let chain, store, w =
    drive ~policy:(Policy.Full_every 3) ~rounds:8 (Sim.vfs sim)
  in
  check_bool "epochs are 0..7" true (Store.epochs store = List.init 8 Fun.id);
  check_int "latest epoch" 7 (Option.get (Store.latest_epoch store));
  List.iter
    (fun (s : Segment.t) ->
      (* The exact segment comes back: same bytes. *)
      check_string
        (Printf.sprintf "segment_of_epoch %d roundtrips" s.seq)
        (Segment.encode s)
        (Segment.encode (Store.segment_of_epoch store s.seq));
      check_bool "kind" true (Store.kind_of_epoch store s.seq = s.kind);
      check_bool "roots" true (Store.roots_of_epoch store s.seq = s.roots);
      let _, replayed = replay_restore chain ~epoch:s.seq in
      let _, stored = Store.restore store ~epoch:s.seq in
      check_bool
        (Printf.sprintf "restore ~epoch:%d agrees with chain replay" s.seq)
        true
        (roots_equal replayed stored);
      (* Byte-for-byte: a full checkpoint re-taken from either restored
         heap encodes identically. *)
      check_string "restored state re-encodes identically"
        (full_body replayed) (full_body stored))
    (Chain.segments chain);
  (* The latest epoch equals the live heap (flags were just cleared). *)
  let _, stored = Store.restore store ~epoch:7 in
  check_bool "latest epoch equals live state" true (roots_equal w.roots stored)

let store_dedup_and_stats () =
  (* A wide flat heap where each round mutates a single object: repeated
     fulls share almost every chunk, which is exactly the workload content
     addressing is for. *)
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let hub = Schema.declare schema ~name:"Hub" ~ints:0 ~children:64 () in
  let heap = Heap.create schema in
  let root = Heap.alloc heap hub in
  let leaves =
    Array.init 64 (fun i ->
        let o = Heap.alloc heap leaf in
        o.Model.ints.(0) <- i;
        root.Model.children.(i) <- Some o;
        o)
  in
  let sim = Sim.create () in
  let store =
    Store.open_ ~vfs:(Sim.vfs sim) ~records_per_chunk:8 schema ~path:store_path
  in
  let root_ids = [ root.Model.info.Model.id ] in
  for r = 0 to 5 do
    if r > 0 then Barrier.set_int leaves.(r) 0 (50_000 + r);
    ignore
      (Store.append_segment store
         { Segment.kind = Segment.Full; seq = r; roots = root_ids;
           body = full_body [ root ] })
  done;
  let s = Store.stats store in
  check_int "six epochs" 6 s.Store.n_epochs;
  check_bool "dedup pays on repeated fulls" true (s.Store.dedup_ratio > 1.5);
  check_bool "fewer chunks than references" true
    (s.Store.n_chunks
    < List.fold_left (fun a (_, n) -> a + n) 0 (Store.refcounts store));
  check_bool "consistent" true (Store.check store = [])

let store_dedup_identical_full () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  let body = full_body w.roots in
  let mk seq = { Segment.kind = Segment.Full; seq; roots = root_ids; body } in
  let st0 = Store.append_segment store (mk 0) in
  check_bool "first full writes chunks" true (st0.Store.chunks_new > 0);
  check_int "all fresh" st0.Store.chunks_total st0.Store.chunks_new;
  let st1 = Store.append_segment store (mk 1) in
  check_int "identical full writes nothing to the pack" 0 st1.Store.chunks_new;
  check_bool "but still costs its index entry" true (st1.Store.bytes_written > 0);
  check_int "logical bytes unchanged" st0.Store.bytes_logical
    st1.Store.bytes_logical

let store_errors () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  let body = full_body w.roots in
  let expect_error name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Store.Error")
    | exception Store.Error _ -> ()
  in
  expect_error "incremental on empty store" (fun () ->
      Store.append_segment store
        { Segment.kind = Segment.Incremental; seq = 0; roots = root_ids; body });
  ignore
    (Store.append_segment store
       { Segment.kind = Segment.Full; seq = 0; roots = root_ids; body });
  expect_error "sequence gap" (fun () ->
      Store.append_segment store
        { Segment.kind = Segment.Full; seq = 5; roots = root_ids; body });
  expect_error "unknown epoch" (fun () -> Store.restore store ~epoch:3);
  expect_error "gc Keep_last 0" (fun () ->
      Store.gc store ~retain:(Store.Keep_last 0))

let store_resume_at_nonzero_seq () =
  (* A store (and a chain) may resume from a full at seq > 0 — what remains
     after GC dropped earlier epochs. *)
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  ignore
    (Store.append_segment store
       { Segment.kind = Segment.Full; seq = 4; roots = root_ids;
         body = full_body w.roots });
  check_bool "epochs start at 4" true (Store.epochs store = [ 4 ]);
  let chain = Chain.create w.schema in
  Chain.append chain (Store.segment_of_epoch store 4);
  check_int "chain adopts the sequence" 5 (Chain.next_seq chain)

(* ------------------------------------------------------------------ *)
(* Diff.                                                              *)

let store_diff_matches_diff_segments () =
  let sim = Sim.create () in
  let chain, store, _ =
    drive ~policy:(Policy.Full_every 3) ~rounds:7 (Sim.vfs sim)
  in
  let segs = Chain.segments chain in
  let suffix_from_full ~epoch =
    let upto = List.filter (fun (s : Segment.t) -> s.seq <= epoch) segs in
    let rec cut acc = function
      | [] -> acc
      | (s : Segment.t) :: older -> (
          match s.kind with
          | Segment.Full -> s :: acc
          | Segment.Incremental -> cut (s :: acc) older)
    in
    cut [] (List.rev upto)
  in
  List.iter
    (fun (a, b) ->
      let expected =
        Diff.segments (Chain.schema chain)
          ~before:(suffix_from_full ~epoch:a)
          ~after:(suffix_from_full ~epoch:b)
      in
      check_bool
        (Printf.sprintf "diff %d %d matches Diff.segments" a b)
        true
        (Store.diff store a b = expected))
    [ (0, 1); (0, 6); (2, 5); (3, 3); (5, 2); (6, 0) ]

(* ------------------------------------------------------------------ *)
(* GC and refcounts.                                                  *)

let store_gc_retention () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let chain, store, _ = drive ~policy:(Policy.Full_every 3) ~rounds:10 vfs in
  ignore chain;
  (* Fulls at 0,3,6,9. Keep_last 4 floors at 6 (widened from 7). *)
  let g = Store.gc store ~retain:(Store.Keep_last 4) in
  check_int "epochs 0..5 dropped" 6 g.Store.dropped_epochs;
  check_bool "chunks reclaimed" true (g.Store.dropped_chunks > 0);
  check_bool "bytes reclaimed" true (g.Store.reclaimed_bytes > 0);
  check_bool "epochs 6..9 kept" true
    (Store.epochs store = [ 6; 7; 8; 9 ]);
  check_bool "kept epochs still restore" true
    (List.for_all
       (fun e ->
         let _, roots = Store.restore store ~epoch:e in
         roots <> [])
       (Store.epochs store));
  check_bool "still consistent" true (Store.check store = []);
  check_bool "no dead chunks survive" true
    (List.for_all (fun (_, n) -> n > 0) (Store.refcounts store));
  (* Idempotent: nothing left to collect. *)
  let g2 = Store.gc store ~retain:(Store.Keep_last 4) in
  check_int "second gc is a no-op" 0 g2.Store.dropped_epochs;
  (* Keep_all never drops epochs. *)
  let g3 = Store.gc store ~retain:Store.Keep_all in
  check_int "Keep_all drops nothing" 0 g3.Store.dropped_epochs;
  (* The store reopens to the post-GC state and accepts the next epoch. *)
  let w2 = make_world () in
  let store2 = Store.open_ ~vfs w2.schema ~path:store_path in
  check_bool "reopen sees the GCed epochs" true
    (Store.epochs store2 = [ 6; 7; 8; 9 ]);
  check_bool "reopen is consistent" true (Store.check store2 = []);
  let _, roots = Store.restore store2 ~epoch:9 in
  check_bool "restore after reopen" true (roots <> [])

(* ------------------------------------------------------------------ *)
(* Manager integration and the stale-temp sweep.                      *)

let manager_sink_lifecycle () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:store_path in
  let m =
    Manager.create ~vfs ~policy:(Policy.Full_every 3)
      ~sink:(Store.manager_sink store) w.schema ~path:store_path
  in
  ignore (Manager.checkpoint m w.roots);
  for r = 1 to 7 do
    w.mutate r;
    ignore (Manager.checkpoint m w.roots)
  done;
  check_bool "eight epochs through the sink" true
    (Store.epochs store = List.init 8 Fun.id);
  (* Recovery through the chain equals restore through the store. *)
  let chain_roots =
    match Chain.recover (Manager.chain m) with
    | Ok (_, roots) -> roots
    | Error e -> Alcotest.fail e
  in
  let _, store_roots = Store.restore store ~epoch:7 in
  check_bool "chain recovery = store restore" true
    (roots_equal chain_roots store_roots);
  (* compact_now maps to GC from the newest full; numbering continues. *)
  Manager.compact_now m;
  check_bool "compaction keeps from the newest full" true
    (Store.epochs store = [ 6; 7 ]);
  w.mutate 99;
  ignore (Manager.checkpoint m w.roots);
  check_bool "numbering continues across compaction" true
    (Store.epochs store = [ 6; 7; 8 ]);
  Manager.close m;
  (* A second manager resumes from the store. *)
  let w2 = make_world () in
  let store2 = Store.open_ ~vfs ~records_per_chunk:4 w2.schema ~path:store_path in
  let m2 =
    Manager.create ~vfs ~sink:(Store.manager_sink store2) w2.schema
      ~path:store_path
  in
  let _, roots = Store.restore store2 ~epoch:8 in
  List.iter (fun o -> Barrier.set_int o 0 424_242) roots;
  ignore (Manager.checkpoint m2 roots);
  check_bool "resumed manager appends epoch 9" true
    (Store.latest_epoch store2 = Some 9);
  let _, roots9 = Store.restore store2 ~epoch:9 in
  check_bool "epoch 9 restores the resumed state" true (roots_equal roots roots9)

(* Regression (satellite bugfix): a staged temp left by a crash
   mid-compaction must be swept on reopen, for both the segment log and
   the store's files. *)
let stale_temp_sweep () =
  (* Manager: seed a valid log plus a stale temp next to it. *)
  let log = "ckpt.log" in
  let w = make_world () in
  let content =
    let sim = Sim.create () in
    let m = Manager.create ~vfs:(Sim.vfs sim) w.schema ~path:log in
    ignore (Manager.checkpoint m w.roots);
    Manager.close m;
    List.assoc log (Sim.durable sim)
  in
  let sim =
    Sim.seeded [ (log, content); (Storage.temp_of ~path:log, "stale garbage") ]
  in
  let vfs = Sim.vfs sim in
  check_bool "temp seeded" true (vfs.Vfs.exists (Storage.temp_of ~path:log));
  let w2 = make_world () in
  let m = Manager.create ~vfs w2.schema ~path:log in
  check_bool "Manager.create sweeps the stale temp" false
    (vfs.Vfs.exists (Storage.temp_of ~path:log));
  ignore (Manager.checkpoint m w2.roots);
  Manager.close m;
  (* And the crash that actually produces one: die between staging the
     compacted log and renaming it. The temp write is the first write op
     after the pre-crash checkpoints. *)
  let find_crash_op () =
    let ref_sim = Sim.create () in
    let vfs = Sim.vfs ref_sim in
    let m = Manager.create ~vfs ~compact_above:2 w.schema ~path:log in
    let w3 = make_world () in
    ignore (Manager.checkpoint m w3.roots);
    w3.mutate 1;
    ignore (Manager.checkpoint m w3.roots);
    let before = Sim.ops ref_sim in
    w3.mutate 2;
    ignore (Manager.checkpoint m w3.roots) (* triggers compaction *);
    (before, Sim.ops ref_sim)
  in
  let before, after = find_crash_op () in
  let found = ref false in
  for op = before to after - 1 do
    let sim = Sim.create ~fault:(Sim.Crash_at { op; byte = 1; mode = Sim.Torn }) () in
    let vfs = Sim.vfs sim in
    (try
       let w3 = make_world () in
       let m = Manager.create ~vfs ~compact_above:2 w3.schema ~path:log in
       ignore (Manager.checkpoint m w3.roots);
       w3.mutate 1;
       ignore (Manager.checkpoint m w3.roots);
       w3.mutate 2;
       ignore (Manager.checkpoint m w3.roots)
     with Sim.Crashed -> ());
    let vfs' = Sim.vfs (Sim.restart sim) in
    if vfs'.Vfs.exists (Storage.temp_of ~path:log) then begin
      found := true;
      let w4 = make_world () in
      let m = Manager.create ~vfs:vfs' w4.schema ~path:log in
      check_bool "reopen after compaction crash sweeps the temp" false
        (vfs'.Vfs.exists (Storage.temp_of ~path:log));
      ignore (Manager.checkpoint m w4.roots);
      Manager.close m
    end
  done;
  check_bool "some crash point left a stale temp" true !found;
  (* Store: stale GC temps are swept by open_. *)
  let sim =
    Sim.seeded
      [ (Storage.temp_of ~path:(Store.pack_path store_path), "junk");
        (Storage.temp_of ~path:(Store.index_path store_path), "junk") ]
  in
  let vfs = Sim.vfs sim in
  let w5 = make_world () in
  ignore (Store.open_ ~vfs w5.schema ~path:store_path);
  check_bool "Store.open_ sweeps pack temp" false
    (vfs.Vfs.exists (Storage.temp_of ~path:(Store.pack_path store_path)));
  check_bool "Store.open_ sweeps index temp" false
    (vfs.Vfs.exists (Storage.temp_of ~path:(Store.index_path store_path)))

(* ------------------------------------------------------------------ *)
(* The crash sweep (extended invariant I7).                           *)

let store_sweep_smoke () =
  let r = Sweep.sweep ~rounds:4 ~density:1 Sweep.store in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  check_int "points" 56 r.Sweep.r_points;
  check_int "runs" 168 r.Sweep.r_runs

let store_sweep_default_sizes () =
  let r = Sweep.sweep Sweep.store in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  check_int "points" 80 r.Sweep.r_points;
  check_int "runs" 240 r.Sweep.r_runs

(* ------------------------------------------------------------------ *)
(* QCheck satellite: random synth heaps, all four policies.           *)

let policies =
  [ Policy.Always_full;
    Policy.Incremental_after_base;
    Policy.Full_every 3;
    Policy.Chain_bytes_limit 256 ]

let synth_config_gen =
  let open QCheck2.Gen in
  let* n_structures = int_range 1 4 in
  let* n_lists = int_range 1 3 in
  let* list_len = int_range 1 4 in
  let* n_int_fields = int_range 1 3 in
  let* pct_modified = oneofl [ 25; 50; 100 ] in
  let* modified_lists = int_range 1 n_lists in
  let* last_only = bool in
  let* seed = int_range 0 10_000 in
  let* rounds = int_range 1 5 in
  return
    ( { Ickpt_synth.Synth.n_structures; n_lists; list_len; n_int_fields;
        pct_modified; modified_lists; last_only; seed },
      rounds )

let restore_roundtrip_prop =
  QCheck2.Test.make ~name:"store & chain restores agree on synth heaps"
    ~count:12 ~print:(fun (c, rounds) ->
      Format.asprintf "%a rounds=%d" Ickpt_synth.Synth.pp_config c rounds)
    synth_config_gen
    (fun (config, rounds) ->
      List.for_all
        (fun policy ->
          let t = Ickpt_synth.Synth.build config in
          let roots = Ickpt_synth.Synth.roots t in
          let sim = Sim.create () in
          let chain = Chain.create t.Ickpt_synth.Synth.schema in
          let store =
            Store.open_ ~vfs:(Sim.vfs sim) ~records_per_chunk:4
              t.Ickpt_synth.Synth.schema ~path:store_path
          in
          let epochs = ref [] in
          for r = 0 to rounds do
            if r > 0 then ignore (Ickpt_synth.Synth.mutate_round t);
            let taken =
              match Policy.decide policy chain with
              | Segment.Full -> Chain.take_full chain roots
              | Segment.Incremental -> Chain.take_incremental chain roots
            in
            ignore (Store.append_segment store taken.Chain.segment);
            (* Accumulate+materialize of the chain equals the live heap. *)
            let _, recovered =
              match Chain.recover chain with
              | Ok x -> x
              | Error e -> QCheck2.Test.fail_reportf "recover: %s" e
            in
            if not (roots_equal roots recovered) then
              QCheck2.Test.fail_reportf
                "chain restore differs from live heap at epoch %d" r;
            epochs := r :: !epochs
          done;
          (* Store-backed restore agrees with chain replay at EVERY epoch,
             byte for byte. *)
          List.for_all
            (fun e ->
              let _, replayed = replay_restore chain ~epoch:e in
              let _, stored = Store.restore store ~epoch:e in
              roots_equal replayed stored
              && String.equal (full_body replayed) (full_body stored)
              && String.equal
                   (Segment.encode (Store.segment_of_epoch store e))
                   (Segment.encode
                      (List.find
                         (fun (s : Segment.t) -> s.seq = e)
                         (Chain.segments chain))))
            !epochs
          && Store.check store = [])
        policies)

let suites =
  [ ( "store.hash64",
      [ Alcotest.test_case "basics and vectors" `Quick hash64_basics ] );
    ( "store.chunk",
      [ Alcotest.test_case "split roundtrip" `Quick chunk_split_roundtrip;
        Alcotest.test_case "alignment stability" `Quick
          chunk_alignment_stability ] );
    ( "store.framing",
      [ Alcotest.test_case "pack roundtrip + torn tail" `Quick
          pack_roundtrip_and_torn_tail;
        Alcotest.test_case "index roundtrip + torn tail" `Quick
          index_roundtrip_and_torn_tail ] );
    ( "store.core",
      [ Alcotest.test_case "restore agrees with chain replay" `Quick
          store_restore_agrees_with_replay;
        Alcotest.test_case "dedup: identical full is free" `Quick
          store_dedup_identical_full;
        Alcotest.test_case "dedup ratio on repeated fulls" `Quick
          store_dedup_and_stats;
        Alcotest.test_case "error paths" `Quick store_errors;
        Alcotest.test_case "resume at non-zero seq" `Quick
          store_resume_at_nonzero_seq;
        Alcotest.test_case "diff matches Diff.segments" `Quick
          store_diff_matches_diff_segments;
        Alcotest.test_case "gc retention + reopen" `Quick store_gc_retention ]
    );
    ( "store.manager",
      [ Alcotest.test_case "sink lifecycle" `Quick manager_sink_lifecycle;
        Alcotest.test_case "stale temp sweep (regression)" `Quick
          stale_temp_sweep ] );
    ( "store.sweep",
      [ Alcotest.test_case "crash sweep smoke" `Slow store_sweep_smoke;
        Alcotest.test_case "crash sweep default sizes" `Slow
          store_sweep_default_sizes ] );
    ( "store.property", [ QCheck_alcotest.to_alcotest restore_roundtrip_prop ] )
  ]
