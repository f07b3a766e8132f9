open Ickpt_runtime
open Ickpt_core

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let pack_path path = path ^ ".pack"

let index_path path = path ^ ".idx"

type collision = Commit.collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

type t = {
  vfs : Vfs.t;
  root : string;
  schema : Schema.t;
  records_per_chunk : int;
  pack : Pack.t;
  mutable entries : Epoch_index.entry list;  (* oldest first *)
  mutable collided : collision list;  (* newest first; this session only *)
}

let path t = t.root

let schema t = t.schema

(* ------------------------------------------------------------------ *)
(* Open: sweep, truncate, validate.                                    *)

let open_ ?(vfs = Vfs.real) ?(records_per_chunk = Chunk.default_records_per_chunk)
    schema ~path:root =
  if records_per_chunk < 1 then invalid_arg "Store.open_: records_per_chunk";
  let pack_file = pack_path root and index_file = index_path root in
  (* Staged GC temps hold no committed data; a crash before the commit
     rename leaves them behind, and reopen is where they get swept. *)
  List.iter
    (fun p ->
      let tmp = Storage.temp_of ~path:p in
      if vfs.Vfs.exists tmp then vfs.Vfs.remove tmp)
    [ pack_file; index_file ];
  let pack = Pack.open_ ~vfs pack_file in
  let entries = Commit.open_index vfs pack index_file Commit.plain in
  { vfs; root; schema; records_per_chunk; pack; entries; collided = [] }

(* ------------------------------------------------------------------ *)
(* Lookup helpers.                                                     *)

let epochs t = List.map (fun (e : Epoch_index.entry) -> e.epoch) t.entries

let latest_epoch t =
  match List.rev t.entries with
  | [] -> None
  | e :: _ -> Some e.Epoch_index.epoch

let entry_at t epoch =
  match
    List.find_opt (fun (e : Epoch_index.entry) -> e.epoch = epoch) t.entries
  with
  | Some e -> e
  | None -> error "unknown epoch %d" epoch

let kind_of_epoch t epoch = (entry_at t epoch).kind

let roots_of_epoch t epoch = (entry_at t epoch).roots

(* ------------------------------------------------------------------ *)
(* Appending.                                                          *)

type append_stats = {
  chunks_total : int;
  chunks_new : int;
  chunks_salted : int;
  bytes_logical : int;
  bytes_written : int;
}

let append_segment t (seg : Segment.t) =
  (match t.entries, seg.kind with
  | [], Segment.Incremental ->
      error "incremental segment on an empty store (no full base)"
  | [], Segment.Full ->
      if seg.seq < 0 then error "segment seq %d is negative" seg.seq
  | _ :: _, _ ->
      let latest = Option.get (latest_epoch t) in
      if seg.seq <> latest + 1 then
        error "segment seq %d, expected %d" seg.seq (latest + 1));
  let chunks =
    Chunk.split ~records_per_chunk:t.records_per_chunk t.schema seg.body
  in
  let { Commit.entry; fresh; collisions } =
    Commit.stage t.pack ~pending:(Hashtbl.create 16) ~kind:seg.kind
      ~epoch:seg.seq ~roots:seg.roots chunks
  in
  t.collided <- List.rev_append collisions t.collided;
  let pack_bytes = Pack.append_batch t.pack fresh in
  Epoch_index.append t.vfs (index_path t.root) entry;
  t.entries <- t.entries @ [ entry ];
  { chunks_total = List.length chunks;
    chunks_new = List.length fresh;
    chunks_salted = List.length collisions;
    bytes_logical = String.length seg.body;
    bytes_written = pack_bytes + String.length (Epoch_index.encode entry) }

let collisions t = List.rev t.collided

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

let segment_of_epoch t epoch = Commit.segment t.pack (entry_at t epoch)

(* The resolved per-object directory at [epoch]: id -> (chunk key, byte
   offset). The fold itself lives in {!Dir} so the multi-tenant service can
   run it over demultiplexed per-tenant entry lists. *)
let dir_at t ~epoch =
  ignore (entry_at t epoch : Epoch_index.entry);
  Dir.fold ~entries:t.entries ~epoch

let restore t ~epoch =
  ignore (entry_at t epoch : Epoch_index.entry);
  Dir.restore (Dir.reader t.pack t.schema) ~entries:t.entries ~epoch

(* ------------------------------------------------------------------ *)
(* Diff.                                                               *)

let diff t a b =
  let da = dir_at t ~epoch:a and db = dir_at t ~epoch:b in
  let record = Dir.record (Dir.reader t.pack t.schema) in
  let changes = ref [] in
  let add c = changes := c :: !changes in
  Hashtbl.iter
    (fun id ptr ->
      match Hashtbl.find_opt db id with
      | None -> add (Diff.Removed id)
      | Some ptr' when ptr = ptr' ->
          (* Same chunk key and offset: the record bytes are identical by
             content-addressing — no decode needed. This is what makes the
             diff O(changed entries). *)
          ()
      | Some ptr' ->
          let rb = record ptr and ra = record ptr' in
          if rb.Restore.rec_kid <> ra.Restore.rec_kid then
            add
              (Diff.Class_changed
                 { id; before = rb.Restore.rec_kid; after = ra.Restore.rec_kid })
          else begin
            Array.iteri
              (fun slot v ->
                let v' = ra.Restore.rec_ints.(slot) in
                if v <> v' then
                  add (Diff.Int_changed { id; slot; before = v; after = v' }))
              rb.Restore.rec_ints;
            Array.iteri
              (fun slot v ->
                let v' = ra.Restore.rec_child_ids.(slot) in
                if v <> v' then
                  add (Diff.Child_changed { id; slot; before = v; after = v' }))
              rb.Restore.rec_child_ids
          end)
    da;
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem da id) then add (Diff.Added id))
    db;
  let key = function
    | Diff.Added id | Diff.Removed id -> (id, -1)
    | Diff.Class_changed { id; _ } -> (id, -2)
    | Diff.Int_changed { id; slot; _ } -> (id, slot)
    | Diff.Child_changed { id; slot; _ } -> (id, 1000 + slot)
  in
  List.sort (fun x y -> compare (key x) (key y)) !changes

(* ------------------------------------------------------------------ *)
(* Space: refcounts, GC, stats, check.                                 *)

let refcounts t =
  let counts : (int, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace counts k 0) (Pack.keys t.pack);
  List.iter
    (fun (e : Epoch_index.entry) ->
      (* A chunk referenced twice by one epoch still counts that epoch
         once per reference site — refcounts answer "how many references
         keep this chunk alive". *)
      List.iter
        (fun k ->
          Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        e.chunks)
    t.entries;
  List.map (fun k -> (k, Hashtbl.find counts k)) (Pack.keys t.pack)

type retention = Keep_all | Keep_last of int | Keep_from of int

type gc_stats = {
  dropped_epochs : int;
  dropped_chunks : int;
  reclaimed_bytes : int;
}

let no_gc = { dropped_epochs = 0; dropped_chunks = 0; reclaimed_bytes = 0 }

let gc t ~retain =
  match t.entries with
  | [] -> no_gc
  | oldest :: _ ->
      let latest = Option.get (latest_epoch t) in
      let floor =
        match retain with
        | Keep_all -> oldest.Epoch_index.epoch
        | Keep_last n ->
            if n < 1 then error "gc: Keep_last %d (need >= 1)" n;
            max oldest.Epoch_index.epoch (latest - n + 1)
        | Keep_from e -> max oldest.Epoch_index.epoch (min e latest)
      in
      (* Widen down to the nearest full epoch so every retained epoch keeps
         a restorable base. *)
      let base =
        List.fold_left
          (fun acc (e : Epoch_index.entry) ->
            if e.kind = Segment.Full && e.epoch <= floor then e.epoch else acc)
          oldest.Epoch_index.epoch t.entries
      in
      let kept =
        List.filter (fun (e : Epoch_index.entry) -> e.epoch >= base) t.entries
      in
      let kept_keys : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun (e : Epoch_index.entry) ->
          List.iter (fun k -> Hashtbl.replace kept_keys k ()) e.chunks)
        kept;
      let dropped_chunks =
        List.length (List.filter (fun k -> not (Hashtbl.mem kept_keys k)) (Pack.keys t.pack))
      in
      let dropped_epochs = List.length t.entries - List.length kept in
      if dropped_epochs = 0 && dropped_chunks = 0 then no_gc
      else begin
        let old_bytes = Pack.physical_bytes t.pack in
        let pack_file = pack_path t.root and index_file = index_path t.root in
        let pack_tmp = Pack.stage_rewrite t.pack ~keep:(Hashtbl.mem kept_keys) in
        let idx_tmp = Epoch_index.write_staged t.vfs ~path:index_file kept in
        (* Commit order matters: the index first. Until the pack rename the
           pack is the OLD one — a superset of the new — so whichever index
           a crash leaves current, its chunks resolve. Renaming the pack
           first would let a crash strand the old index pointing at dropped
           chunks. *)
        t.vfs.Vfs.rename ~src:idx_tmp ~dst:index_file;
        t.vfs.Vfs.rename ~src:pack_tmp ~dst:pack_file;
        Pack.reload t.pack;
        t.entries <- kept;
        { dropped_epochs;
          dropped_chunks;
          reclaimed_bytes = old_bytes - Pack.physical_bytes t.pack }
      end

type stats = {
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;
  physical_bytes : int;
  dedup_ratio : float;
}

let stats t =
  let logical_bytes =
    List.fold_left
      (fun acc (e : Epoch_index.entry) ->
        List.fold_left (fun acc k -> acc + Pack.chunk_len t.pack k) acc e.chunks)
      0 t.entries
  in
  let index_bytes =
    List.fold_left
      (fun acc e -> acc + String.length (Epoch_index.encode e))
      0 t.entries
  in
  let pack_bytes = Pack.physical_bytes t.pack in
  { n_epochs = List.length t.entries;
    n_chunks = Pack.length t.pack;
    logical_bytes;
    physical_bytes = pack_bytes + index_bytes;
    dedup_ratio =
      (if pack_bytes = 0 then 1.0
       else float_of_int logical_bytes /. float_of_int pack_bytes) }

let salted_chunks t =
  List.filter_map
    (fun k ->
      let data = Pack.read t.pack k in
      if Chunk.key_of data = k then None
      else
        let rec find attempt =
          if attempt > Chunk.max_salt_attempts then None
          else if Chunk.salted_key data ~attempt = k then Some (k, attempt)
          else find (attempt + 1)
        in
        find 1)
    (Pack.keys t.pack)

let check t =
  Commit.check t.pack Commit.plain ~label:(fun _ -> "") t.entries
  @ List.filter_map
      (fun (k, n) ->
        if n < 0 then
          Some
            (Printf.sprintf "chunk %s has negative refcount"
               (Ickpt_stream.Hash64.to_hex k))
        else None)
      (refcounts t)

(* ------------------------------------------------------------------ *)
(* Manager integration.                                                *)

let resume_suffix t = Commit.resume t.pack t.entries

let manager_sink t =
  { Manager.sink_append = (fun seg -> ignore (append_segment t seg));
    sink_resume = (fun () -> resume_suffix t);
    sink_compact = Some (fun () -> ignore (gc t ~retain:(Keep_last 1))) }
