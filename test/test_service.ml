(* Tests for the multi-tenant checkpoint service: shard mapping, the mux
   index wire format, cross-tenant dedup on the shared pack, group commit
   (fsync amortization + flush barrier), reopen/resume/evict, salted
   rehash on hash collision, per-tenant attribution, the QCheck
   private-store equivalence property over random tenant interleavings
   across domains, and a smoke run of the service crash sweep. *)

open Ickpt_stream
open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Ickpt_cas
open Ickpt_service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

let full_body roots =
  let d = Out_stream.create () in
  Checkpointer.full_many d roots;
  Out_stream.contents d

(* ------------------------------------------------------------------ *)
(* Worlds: deterministic per-tenant heaps. Same [offset] + same [salt]
   means byte-identical segments (per-heap object ids restart at 0), so
   tenants sharing them dedup against each other in the shared pack.    *)

type world = {
  schema : Schema.t;
  roots : Model.obj list;
  mutate : int -> unit;
}

let make_world ~offset =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk_leaf v =
    let o = Heap.alloc heap leaf in
    o.Model.ints.(0) <- v + offset;
    o
  in
  let mk_pair a b l r =
    let o = Heap.alloc heap pair in
    o.Model.ints.(0) <- a + offset;
    o.Model.ints.(1) <- b + offset;
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
    Barrier.set_int objs.(r mod n) 0 (offset + 10_000 + (3 * r));
    Barrier.set_int objs.((r + 5) mod n) 0 (offset + 10_001 + (3 * r))
  in
  { schema; roots = [ root ]; mutate }

let fresh_vfs () = Sim.vfs (Sim.create ())

(* A vfs that counts durability barriers — the fsync meter the group
   commit claims are checked against. *)
let counting_vfs inner =
  let syncs = ref 0 in
  let wrap w =
    { w with
      Vfs.sync =
        (fun () ->
          incr syncs;
          w.Vfs.sync ()) }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap (inner.Vfs.open_trunc p)) },
    syncs )

(* ------------------------------------------------------------------ *)
(* Shard mapping.                                                      *)

let shard_mapping () =
  check_bool "stable" true
    (Shard.of_name ~shards:4 "alice" = Shard.of_name ~shards:4 "alice");
  List.iter
    (fun name ->
      let s = Shard.of_name ~shards:3 name in
      check_bool "in range" true (s >= 0 && s < 3))
    [ "a"; "b"; "c"; "d"; "e" ];
  check_int "one shard" 0 (Shard.of_name ~shards:1 "anything");
  check_bool "matches id" true
    (Shard.of_name ~shards:5 "bob"
    = Shard.of_id ~shards:5 (Service.tenant_id "bob"))

(* ------------------------------------------------------------------ *)
(* Mux index wire format.                                              *)

let sample_entry i =
  { Epoch_index.epoch = i;
    kind = (if i = 0 then Segment.Full else Segment.Incremental);
    roots = [ 0; i ];
    chunks = [ 111 + i; 222 + i ];
    dir =
      [ { Epoch_index.d_id = 0; d_chunk = 0; d_off = 0 };
        { Epoch_index.d_id = i + 1; d_chunk = 1; d_off = 7 * i } ] }

let mux_roundtrip () =
  let vfs = fresh_vfs () in
  let path = "mux.idx" in
  let ms =
    List.init 5 (fun i ->
        { Epoch_index.m_tenant = 1000 + (i mod 2); m_entry = sample_entry i })
  in
  Epoch_index.append_mux_batch vfs path ms;
  let loaded, _ = Epoch_index.load_mux vfs path in
  check_int "all entries" 5 (List.length loaded);
  List.iter2
    (fun (a : Epoch_index.mux_entry) (b : Epoch_index.mux_entry) ->
      check_bool "roundtrip" true (a = b))
    ms loaded;
  (* A torn tail cuts whole entries, never corrupts earlier ones. *)
  let raw = vfs.Vfs.read_file path in
  vfs.Vfs.truncate path ~len:(String.length raw - 3);
  let survivors, valid = Epoch_index.load_mux vfs path in
  check_int "torn tail drops exactly the last entry" 4 (List.length survivors);
  check_bool "valid offset within file" true (valid < String.length raw)

(* ------------------------------------------------------------------ *)
(* Service basics: checkpoint/restore, cross-tenant dedup, reopen.     *)

let service_basics () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 3) ~path:"svc" ()
  in
  (* Two byte-identical tenants and one distinct one. *)
  let mk name offset =
    let w = make_world ~offset in
    (Service.open_tenant svc w.schema ~name, w)
  in
  let ta, wa = mk "alice" 0 in
  let tb, wb = mk "bob" 0 in
  let tc, wc = mk "carol" 5000 in
  let snaps = Hashtbl.create 16 in
  List.iter
    (fun (name, tn, (w : world)) ->
      for r = 0 to 5 do
        if r > 0 then w.mutate r;
        let e = Service.checkpoint tn w.roots in
        check_int "epoch numbering is per-tenant" r e;
        Hashtbl.replace snaps (name, e) (full_body w.roots)
      done)
    [ ("alice", ta, wa); ("bob", tb, wb); ("carol", tc, wc) ];
  Service.flush svc;
  (* Every epoch of every tenant restores byte-identically. *)
  List.iter
    (fun (name, tn) ->
      check_int "six epochs committed" 6 (List.length (Service.epochs tn));
      List.iter
        (fun e ->
          let _heap, roots = Service.restore tn ~epoch:e in
          check_bool
            (Printf.sprintf "%s epoch %d restores" name e)
            true
            (String.equal (full_body roots) (Hashtbl.find snaps (name, e))))
        (Service.epochs tn))
    [ ("alice", ta); ("bob", tb); ("carol", tc) ];
  check_bool "consistent" true (Service.check svc = []);
  let st = Service.stats svc in
  check_int "three tenants" 3 st.Service.n_tenants;
  check_int "18 epochs" 18 st.Service.n_epochs;
  (* alice and bob are byte-identical: their chunks dedup across tenants,
     so the pack holds well under 3 tenants' worth of bytes. *)
  (* Cross-tenant dedup: replay each tenant's (deterministic) session on a
     private store and compare pack footprints. alice and bob are
     byte-identical, so the shared pack holds ~2 tenants' chunks while the
     private packs sum to 3. *)
  let private_pack_bytes i offset =
    let w = make_world ~offset in
    let path = Printf.sprintf "priv%d" i in
    let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path in
    let chain = Chain.create w.schema in
    for r = 0 to 5 do
      if r > 0 then w.mutate r;
      let taken =
        match Policy.decide (Policy.Full_every 3) chain with
        | Segment.Full -> Chain.take_full chain w.roots
        | Segment.Incremental -> Chain.take_incremental chain w.roots
      in
      ignore (Store.append_segment store taken.Chain.segment
              : Store.append_stats)
    done;
    String.length (vfs.Vfs.read_file (Store.pack_path path))
  in
  let private_sum =
    private_pack_bytes 0 0 + private_pack_bytes 1 0 + private_pack_bytes 2 5000
  in
  let shared = String.length (vfs.Vfs.read_file (Service.pack_path "svc")) in
  check_bool
    (Printf.sprintf "cross-tenant dedup (private sum %d vs shared %d)"
       private_sum shared)
    true
    (float_of_int private_sum /. float_of_int shared > 1.3);
  (* Attribution sees the sharing. *)
  let rows = Attrib.rows ~vfs ~path:"svc" () in
  check_int "three rows" 3 (List.length rows);
  let alice = List.find (fun r -> r.Attrib.a_name = "alice") rows in
  let carol = List.find (fun r -> r.Attrib.a_name = "carol") rows in
  check_bool "alice shares with bob" true (alice.Attrib.a_shared > 0);
  check_bool "alice saved bytes" true (alice.Attrib.a_saved_bytes > 0);
  check_bool "carol owns her chunks" true
    (carol.Attrib.a_owned = carol.Attrib.a_chunks);
  Service.close svc;
  (* Reopen: resume, restore, continue. *)
  let svc2 = Service.open_ ~vfs ~path:"svc" () in
  let wa2 = make_world ~offset:0 in
  let ta2 = Service.open_tenant svc2 wa2.schema ~name:"alice" in
  check_int "resumed epochs" 6 (List.length (Service.epochs ta2));
  let _heap, roots = Service.restore ta2 ~epoch:5 in
  check_bool "resumed restore" true
    (String.equal (full_body roots) (Hashtbl.find snaps ("alice", 5)));
  List.iter (fun o -> Barrier.set_int o 0 424_242) roots;
  let e = Service.checkpoint ta2 roots in
  check_int "continues numbering" 6 e;
  Service.flush svc2;
  let _heap, roots' = Service.restore ta2 ~epoch:6 in
  check_bool "appended epoch restores" true (roots_equal roots roots');
  (* Evict drops the handle; reopening resumes. *)
  Service.evict svc2 ~name:"alice";
  let ta3 = Service.open_tenant svc2 wa2.schema ~name:"alice" in
  check_int "evict keeps disk state" 7 (List.length (Service.epochs ta3));
  Service.close svc2

(* Attribution reads the catalog through Service's own decoder. A flipped
   byte inside the first tenant's name fails that frame's CRC, so the
   tenant shows under its hex id, never under the corrupted name, and
   reading leaves the catalog as it was. *)
let attrib_corrupt_catalog () =
  let vfs = fresh_vfs () in
  let svc = Service.open_ ~vfs ~shards:2 ~records_per_chunk:4 ~path:"svc" () in
  List.iter
    (fun (name, offset) ->
      let w = make_world ~offset in
      let tn = Service.open_tenant svc w.schema ~name in
      ignore (Service.checkpoint tn w.roots : int))
    [ ("tenant00", 0); ("tenant01", 100) ];
  Service.close svc;
  let cat = Service.catalog_path "svc" in
  let raw = vfs.Vfs.read_file cat in
  let at =
    let rec find i =
      if String.sub raw i 8 = "tenant00" then i else find (i + 1)
    in
    find 0
  in
  let flipped = Bytes.of_string raw in
  Bytes.set flipped (at + 1) 'd';
  let flipped = Bytes.to_string flipped in
  Vfs.write_durably (vfs.Vfs.open_trunc cat) (fun write -> write flipped);
  let rows = Attrib.rows ~vfs ~path:"svc" () in
  let names = List.map (fun r -> r.Attrib.a_name) rows in
  check_bool "corrupted name not shown" false (List.mem "tdnant00" names);
  let hex = Hash64.to_hex (Service.tenant_id "tenant00") in
  (match List.find_opt (fun r -> r.Attrib.a_name = hex) rows with
  | Some r -> check_int "its epoch is still attributed" 1 r.Attrib.a_epochs
  | None ->
      Alcotest.failf "no row under hex id %s among %s" hex
        (String.concat ", " names));
  check_bool "catalog untouched" true
    (String.equal flipped (vfs.Vfs.read_file cat))

(* ------------------------------------------------------------------ *)
(* Group commit: fewer fsyncs, flush as durability barrier.            *)

let run_epochs ~vfs ~commit ~tenants ~rounds =
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 4) ~commit ~path:"svc" ()
  in
  let tens =
    List.init tenants (fun i ->
        let w = make_world ~offset:(i * 1000) in
        (Service.open_tenant svc w.schema ~name:(Printf.sprintf "t%d" i), w))
  in
  for r = 0 to rounds - 1 do
    List.iter
      (fun (tn, (w : world)) ->
        if r > 0 then w.mutate r;
        ignore (Service.checkpoint tn w.roots : int))
      tens
  done;
  Service.flush svc;
  let st = Service.stats svc in
  Service.close svc;
  st

let group_commit_fsyncs () =
  let vfs_a, syncs_a = counting_vfs (fresh_vfs ()) in
  let st_a =
    run_epochs ~vfs:vfs_a ~commit:Service.Per_epoch ~tenants:4 ~rounds:6
  in
  let vfs_b, syncs_b = counting_vfs (fresh_vfs ()) in
  let st_b =
    run_epochs ~vfs:vfs_b
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 8; max_bytes = 1 lsl 20; linger = 0. })
      ~tenants:4 ~rounds:6
  in
  check_int "same epochs" st_a.Service.committed_epochs
    st_b.Service.committed_epochs;
  check_bool "per-epoch mode: one batch per epoch" true
    (st_a.Service.commit_batches = st_a.Service.committed_epochs);
  check_bool "group mode: fewer batches than epochs" true
    (st_b.Service.commit_batches * 2 <= st_b.Service.committed_epochs);
  check_bool
    (Printf.sprintf "group commit syncs less (%d vs %d)" !syncs_b !syncs_a)
    true
    (!syncs_b < !syncs_a)

let group_flush_barrier () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:1 ~records_per_chunk:4
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 100;
             max_bytes = 1 lsl 30;
             linger = 0. })
      ~path:"svc" ()
  in
  let w = make_world ~offset:0 in
  let tn = Service.open_tenant svc w.schema ~name:"solo" in
  ignore (Service.checkpoint tn w.roots : int);
  check_int "not yet committed (pending in the group window)" 0
    (List.length (Service.epochs tn));
  Service.flush svc;
  check_int "flush commits" 1 (List.length (Service.epochs tn));
  Service.close svc

(* ------------------------------------------------------------------ *)
(* Salted rehash on hash collision.                                    *)

let store_salted_collision () =
  let vfs = fresh_vfs () in
  let w = make_world ~offset:0 in
  (* Predict the first chunk of the first full segment and poison the
     pack: same key, different bytes — a manufactured 63-bit collision. *)
  let body = full_body w.roots in
  let chunks = Chunk.split ~records_per_chunk:4 w.schema body in
  let c0 = List.hd chunks in
  let pack = Pack.open_ ~vfs (Store.pack_path "s") in
  ignore (Pack.append_batch pack [ (c0.Chunk.key, "not the real bytes") ] : int);
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let chain = Chain.create w.schema in
  let taken = Chain.take_full chain w.roots in
  let st = Store.append_segment store taken.Chain.segment in
  check_bool "append survived the collision" true (st.Store.chunks_salted >= 1);
  let _heap, roots = Store.restore store ~epoch:0 in
  check_bool "restore is byte-identical despite the salted chunk" true
    (String.equal (full_body roots) body);
  check_bool "store checks clean" true (Store.check store = []);
  (match Store.collisions store with
  | [ c ] ->
      check_int "collision epoch" 0 c.Store.col_epoch;
      check_bool "content key is the poisoned one" true
        (c.Store.col_content_key = c0.Chunk.key);
      check_int "first salt rung" 1 c.Store.col_attempt;
      check_bool "stored under the salted key" true
        (c.Store.col_stored_key = Chunk.salted_key c0.Chunk.data ~attempt:1)
  | cs -> Alcotest.failf "expected exactly one collision, got %d" (List.length cs));
  (* Salting is detectable from disk alone, and survives reopen. *)
  check_bool "salted chunk detected on disk" true
    (Store.salted_chunks store
    = [ (Chunk.salted_key c0.Chunk.data ~attempt:1, 1) ]);
  let store2 = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  check_bool "reopen keeps the epoch" true (Store.epochs store2 = [ 0 ]);
  let _heap, roots2 = Store.restore store2 ~epoch:0 in
  check_bool "reopen restores identically" true
    (String.equal (full_body roots2) body)

let service_salted_collision () =
  let vfs = fresh_vfs () in
  let w = make_world ~offset:0 in
  let body = full_body w.roots in
  let chunks = Chunk.split ~records_per_chunk:4 w.schema body in
  let c0 = List.hd chunks in
  let pack = Pack.open_ ~vfs (Service.pack_path "svc") in
  ignore (Pack.append_batch pack [ (c0.Chunk.key, "poison") ] : int);
  let svc = Service.open_ ~vfs ~shards:2 ~records_per_chunk:4 ~path:"svc" () in
  let tn = Service.open_tenant svc w.schema ~name:"victim" in
  ignore (Service.checkpoint tn w.roots : int);
  Service.flush svc;
  check_bool "collision surfaced" true (List.length (Service.collisions svc) >= 1);
  check_int "stats count it" (List.length (Service.collisions svc))
    (Service.stats svc).Service.collisions;
  let _heap, roots = Service.restore tn ~epoch:0 in
  check_bool "tenant restore unaffected" true
    (String.equal (full_body roots) body);
  check_bool "service checks clean" true (Service.check svc = []);
  Service.close svc

(* Store and a one-tenant service run the same commit core: fed the same
   segments (one chunk forced through the salted-rehash path by the same
   poisoned pack), they must commit equal index entries and equal
   collision records — epoch for epoch, chunk key for chunk key. *)
let store_and_service_commit_alike () =
  let vfs = fresh_vfs () in
  let w = make_world ~offset:0 in
  let c0 =
    List.hd (Chunk.split ~records_per_chunk:4 w.schema (full_body w.roots))
  in
  List.iter
    (fun path ->
      let pack = Pack.open_ ~vfs path in
      ignore (Pack.append_batch pack [ (c0.Chunk.key, "poison") ] : int))
    [ Store.pack_path "s"; Service.pack_path "svc" ];
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 3; max_bytes = max_int; linger = 0. })
      ~path:"svc" ()
  in
  let tn = Service.open_tenant svc w.schema ~name:"solo" in
  let chain = Chain.create w.schema in
  for r = 0 to 7 do
    if r > 0 then w.mutate r;
    let taken =
      match Policy.decide (Policy.Full_every 3) chain with
      | Segment.Full -> Chain.take_full chain w.roots
      | Segment.Incremental -> Chain.take_incremental chain w.roots
    in
    ignore (Store.append_segment store taken.Chain.segment : Store.append_stats);
    ignore (Service.append tn taken.Chain.segment : int)
  done;
  Service.flush svc;
  let store_entries = List.map (Store.entry_at store) (Store.epochs store) in
  let service_entries =
    List.filter_map
      (fun (m : Epoch_index.mux_entry) ->
        if m.m_tenant = Service.tenant_id "solo" then Some m.m_entry else None)
      (fst
         (Epoch_index.load_mux vfs
            (Service.shard_index_path "svc" (Service.tenant_shard tn))))
  in
  check_int "store epochs" 8 (List.length store_entries);
  check_int "service epochs" 8 (List.length service_entries);
  List.iter2
    (fun (a : Epoch_index.entry) (b : Epoch_index.entry) ->
      let what = Printf.sprintf "epoch %d " a.epoch in
      check_int (what ^ "epoch") a.epoch b.epoch;
      check_bool (what ^ "kind") true (a.kind = b.kind);
      check_bool (what ^ "roots") true (a.roots = b.roots);
      check_bool (what ^ "chunks") true (a.chunks = b.chunks);
      check_bool (what ^ "dir") true (a.dir = b.dir))
    store_entries service_entries;
  check_bool "a collision was salted" true (Store.collisions store <> []);
  check_bool "equal collision records" true
    (Store.collisions store = Service.collisions svc);
  Service.close svc

(* ------------------------------------------------------------------ *)
(* Property: any interleaving of tenants across domains restores every
   tenant byte-identically to running alone on a private store.        *)

(* One deterministic session per tenant, derived from (seed, index):
   produce the segments once, submit each to BOTH the shared service and
   a private per-tenant store, then compare every epoch. *)
let interleaving_equivalent seed =
  let vfs = fresh_vfs () in
  let n_tenants = 4 in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 3; max_bytes = 1 lsl 20; linger = 0. })
      ~path:"svc" ()
  in
  let sessions =
    List.init n_tenants (fun i ->
        (* Half the tenants share an offset → cross-tenant dedup while
           the interleaving runs. *)
        let offset = if i mod 2 = 0 then 0 else 9000 + (seed mod 7) in
        let rounds = 3 + ((seed + i) mod 3) in
        let w = make_world ~offset in
        let name = Printf.sprintf "tenant%d" i in
        let tn = Service.open_tenant svc w.schema ~name in
        let priv =
          Store.open_ ~vfs ~records_per_chunk:4 w.schema
            ~path:(Printf.sprintf "priv%d" i)
        in
        let chain = Chain.create w.schema in
        (i, w, tn, priv, chain, rounds))
  in
  (* Two domains, interleaved tenant ownership; each domain drives its
     tenants' sessions concurrently with the other domain's. *)
  let run_partition part =
    List.iter
      (fun (i, (w : world), tn, priv, chain, rounds) ->
        if i mod 2 = part then
          for r = 0 to rounds - 1 do
            if r > 0 then w.mutate ((seed * 13) + r);
            let taken =
              match Policy.decide (Policy.Full_every 3) chain with
              | Segment.Full -> Chain.take_full chain w.roots
              | Segment.Incremental -> Chain.take_incremental chain w.roots
            in
            ignore (Store.append_segment priv taken.Chain.segment
                    : Store.append_stats);
            ignore (Service.append tn taken.Chain.segment : int)
          done)
      sessions
  in
  let d = Domain.spawn (fun () -> run_partition 1) in
  run_partition 0;
  Domain.join d;
  Service.flush svc;
  let reader_ok =
    List.for_all
      (fun (_, _, tn, priv, _, rounds) ->
        Service.epochs tn = Store.epochs priv
        && List.length (Service.epochs tn) = rounds
        && List.for_all
             (fun e ->
               let _h, shared_roots = Service.restore tn ~epoch:e in
               let _h, private_roots = Store.restore priv ~epoch:e in
               roots_equal shared_roots private_roots
               && String.equal (full_body shared_roots)
                    (full_body private_roots))
             (Service.epochs tn))
      sessions
  in
  let clean = Service.check svc = [] in
  Service.close svc;
  reader_ok && clean

let prop_interleaving =
  QCheck2.Test.make ~name:"tenant interleaving = private store (per tenant)"
    ~count:8
    QCheck2.Gen.(int_range 0 10_000)
    interleaving_equivalent

(* ------------------------------------------------------------------ *)
(* Crash sweep smoke (the full sweep runs under @crash, like the store
   one; here a reduced-density pass).                                  *)

let sweep_smoke () =
  let r = Sweep.sweep ~rounds:4 ~density:1 Sweep.service in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  check_int "points" 63 r.Sweep.r_points;
  check_int "runs" 189 r.Sweep.r_runs

let sweep_default_sizes () =
  let r = Sweep.sweep Sweep.service in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  check_int "points" 72 r.Sweep.r_points;
  check_int "runs" 216 r.Sweep.r_runs

let suites =
  [ ( "service.shard",
      [ Alcotest.test_case "mapping" `Quick shard_mapping;
        Alcotest.test_case "mux index roundtrip" `Quick mux_roundtrip ] );
    ( "service.core",
      [ Alcotest.test_case "basics + dedup + resume" `Quick service_basics;
        Alcotest.test_case "group commit fsyncs" `Quick group_commit_fsyncs;
        Alcotest.test_case "flush barrier" `Quick group_flush_barrier;
        Alcotest.test_case "attribution of a corrupt catalog" `Quick
          attrib_corrupt_catalog ] );
    ( "service.collision",
      [ Alcotest.test_case "store salted rehash" `Quick store_salted_collision;
        Alcotest.test_case "service surfaces collision" `Quick
          service_salted_collision;
        Alcotest.test_case "store and service commit alike" `Quick
          store_and_service_commit_alike ] );
    ( "service.property",
      [ QCheck_alcotest.to_alcotest prop_interleaving ] );
    ( "service.sweep",
      [ Alcotest.test_case "smoke" `Quick sweep_smoke;
        Alcotest.test_case "default sizes" `Quick sweep_default_sizes ] ) ]
