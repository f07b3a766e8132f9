open Ickpt_runtime
open Ickpt_core
open Ickpt_stream
open Ickpt_cas

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let pack_path path = path ^ ".pack"

let shard_index_path path i = Printf.sprintf "%s.shard%d.idx" path i

let catalog_path path = path ^ ".tenants"

let meta_path path = path ^ ".svc"

let tenant_id name = Hash64.string name

type commit_mode = Per_epoch | Group of Async_writer.Batch.policy

type tenant = {
  t_svc : t;
  t_id : int;
  t_name : string;
  t_shard : int;
  t_schema : Schema.t;
  t_chain : Chain.t;
  mutable t_entries : Epoch_index.entry list;  (* committed, oldest first *)
}

and item = {
  it_tenant : tenant;
  it_kind : Segment.kind;
  it_seq : int;
  it_roots : int list;
  it_chunks : Chunk.t list;
  it_body_len : int;
  it_enq : float;
}

and shard_state = {
  s_index_file : string;
  mutable s_committed : Epoch_index.mux_entry list;  (* oldest first *)
  mutable s_pending : item list;  (* oldest first; Group mode *)
  mutable s_pending_bytes : int;
}

and t = {
  vfs : Vfs.t;
  root : string;
  shards : int;
  records_per_chunk : int;
  policy : Policy.t;
  commit : commit_mode;
  pack : Pack.t;
  lock : Mutex.t;
  shard_tbl : shard_state array;
  open_tenants : (int, tenant) Hashtbl.t;
  mutable catalog : (int * string) list;  (* oldest first *)
  mutable collided : Commit.collision list;  (* newest first *)
  mutable commit_batches : int;
  mutable committed_epochs : int;
  mutable latencies : float list;
  mutable closed : bool;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then error "service is closed"

(* ------------------------------------------------------------------ *)
(* Catalog and meta files.                                             *)

let catalog_magic = 0x544b4349 (* "ICKT" read as LE bytes *)

let meta_magic = 0x534b4349 (* "ICKS" read as LE bytes *)

let version = 1

let encode_catalog_entry (id, name) =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d catalog_magic;
  Out_stream.write_byte d version;
  Out_stream.write_int d id;
  Out_stream.write_string d name;
  let crc = Crc32.string (Out_stream.contents d) in
  Out_stream.write_fixed32 d crc;
  Out_stream.contents d

let decode_catalog_entry s ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> catalog_magic then
    raise (In_stream.Corrupt (Printf.sprintf "bad catalog magic %#x" m));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "bad catalog version %d" v));
  let id = In_stream.read_int inp in
  let name = In_stream.read_string inp in
  let body_end = In_stream.pos inp in
  let crc = In_stream.read_fixed32 inp in
  if crc <> Crc32.sub s ~pos ~len:(body_end - pos) then
    raise (In_stream.Corrupt "catalog crc mismatch");
  ((id, name), In_stream.pos inp)

let load_catalog vfs path =
  let r = Vfs.read_frames vfs path decode_catalog_entry in
  if r.valid_len < String.length r.contents then
    vfs.Vfs.truncate path ~len:r.valid_len;
  r.frames

let append_catalog vfs path entry =
  Vfs.write_durably (vfs.Vfs.open_append path) (fun write ->
      write (encode_catalog_entry entry))

let encode_meta ~shards ~records_per_chunk =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d meta_magic;
  Out_stream.write_byte d version;
  Out_stream.write_int d shards;
  Out_stream.write_int d records_per_chunk;
  let crc = Crc32.string (Out_stream.contents d) in
  Out_stream.write_fixed32 d crc;
  Out_stream.contents d

let load_meta vfs path =
  if not (vfs.Vfs.exists path) then None
  else
    let raw = vfs.Vfs.read_file path in
    match
      let inp = In_stream.of_string_at raw ~pos:0 in
      let m = In_stream.read_fixed32 inp in
      if m <> meta_magic then raise (In_stream.Corrupt "bad meta magic");
      let v = In_stream.read_byte inp in
      if v <> version then raise (In_stream.Corrupt "bad meta version");
      let shards = In_stream.read_int inp in
      let records_per_chunk = In_stream.read_int inp in
      let body_end = In_stream.pos inp in
      let crc = In_stream.read_fixed32 inp in
      if crc <> Crc32.sub raw ~pos:0 ~len:body_end then
        raise (In_stream.Corrupt "meta crc mismatch");
      (shards, records_per_chunk)
    with
    | meta -> Some meta
    | exception In_stream.Corrupt _ -> None
    | exception Invalid_argument _ -> None

let write_meta vfs path ~shards ~records_per_chunk =
  Vfs.write_durably (vfs.Vfs.open_trunc path) (fun write ->
      write (encode_meta ~shards ~records_per_chunk))

(* ------------------------------------------------------------------ *)
(* Open: sweep, truncate, validate per shard.                          *)

let open_ ?(vfs = Vfs.real) ?(shards = Shard.default_count)
    ?(records_per_chunk = Chunk.default_records_per_chunk)
    ?(policy = Policy.Full_every 8) ?(commit = Per_epoch) ~path:root () =
  if shards < 1 then invalid_arg "Service.open_: shards < 1";
  if records_per_chunk < 1 then
    invalid_arg "Service.open_: records_per_chunk < 1";
  let shards, records_per_chunk =
    match load_meta vfs (meta_path root) with
    | Some persisted -> persisted
    | None ->
        write_meta vfs (meta_path root) ~shards ~records_per_chunk;
        (shards, records_per_chunk)
  in
  let pack = Pack.open_ ~vfs (pack_path root) in
  let catalog = load_catalog vfs (catalog_path root) in
  let shard_tbl =
    Array.init shards (fun i ->
        (* A rejected entry cuts the whole shard file there, preserving the
           prefix property for every tenant in it. *)
        let s_index_file = shard_index_path root i in
        { s_index_file;
          s_committed = Commit.open_index vfs pack s_index_file Commit.mux;
          s_pending = [];
          s_pending_bytes = 0 })
  in
  let t =
    { vfs;
      root;
      shards;
      records_per_chunk;
      policy;
      commit;
      pack;
      lock = Mutex.create ();
      shard_tbl;
      open_tenants = Hashtbl.create 16;
      catalog;
      collided = [];
      commit_batches = 0;
      committed_epochs = 0;
      latencies = [];
      closed = false }
  in
  t

(* ------------------------------------------------------------------ *)
(* Committing.                                                         *)

(* Commit a batch of items (all from [sstate]'s shard) as one group: one
   pack append (write + sync) covering every fresh chunk of every item,
   then one index batch append (write + sync) — the shared commit point.
   Caller holds the lock. *)
let commit_batch_locked t sstate items =
  match items with
  | [] -> ()
  | _ ->
      let pending : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let staged =
        List.map
          (fun it ->
            Commit.stage t.pack ~pending ~kind:it.it_kind ~epoch:it.it_seq
              ~roots:it.it_roots it.it_chunks)
          items
      in
      ignore
        (Pack.append_batch t.pack
           (List.concat_map (fun (st : Commit.staged) -> st.fresh) staged)
          : int);
      let muxes =
        List.map2
          (fun it (st : Commit.staged) ->
            { Epoch_index.m_tenant = it.it_tenant.t_id; m_entry = st.entry })
          items staged
      in
      Epoch_index.append_mux_batch t.vfs sstate.s_index_file muxes;
      (* Durable; mirror in memory. *)
      sstate.s_committed <- sstate.s_committed @ muxes;
      List.iter2
        (fun it (st : Commit.staged) ->
          it.it_tenant.t_entries <- it.it_tenant.t_entries @ [ st.entry ];
          t.collided <- List.rev_append st.collisions t.collided)
        items staged;
      let now = Unix.gettimeofday () in
      List.iter
        (fun it -> t.latencies <- (now -. it.it_enq) :: t.latencies)
        items;
      t.commit_batches <- t.commit_batches + 1;
      t.committed_epochs <- t.committed_epochs + List.length items

let flush t =
  check_open t;
  match t.commit with
  | Per_epoch -> ()
  | Group _ ->
      with_lock t (fun () ->
          Array.iter
            (fun s ->
              let batch = s.s_pending in
              s.s_pending <- [];
              s.s_pending_bytes <- 0;
              commit_batch_locked t s batch)
            t.shard_tbl)

let submit tenant (seg : Segment.t) =
  let t = tenant.t_svc in
  check_open t;
  let chunks =
    Chunk.split ~records_per_chunk:t.records_per_chunk tenant.t_schema
      seg.body
  in
  let it =
    { it_tenant = tenant;
      it_kind = seg.kind;
      it_seq = seg.seq;
      it_roots = seg.roots;
      it_chunks = chunks;
      it_body_len = String.length seg.body;
      it_enq = Unix.gettimeofday () }
  in
  let s = t.shard_tbl.(tenant.t_shard) in
  match t.commit with
  | Per_epoch -> with_lock t (fun () -> commit_batch_locked t s [ it ])
  | Group p ->
      with_lock t (fun () ->
          s.s_pending <- s.s_pending @ [ it ];
          s.s_pending_bytes <- s.s_pending_bytes + it.it_body_len;
          if
            List.length s.s_pending >= p.Async_writer.Batch.max_items
            || s.s_pending_bytes >= p.Async_writer.Batch.max_bytes
          then begin
            let batch = s.s_pending in
            s.s_pending <- [];
            s.s_pending_bytes <- 0;
            commit_batch_locked t s batch
          end)

(* ------------------------------------------------------------------ *)
(* Tenants.                                                            *)

let open_tenant t schema ~name =
  check_open t;
  let id = tenant_id name in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.open_tenants id with
      | Some tn ->
          if not (String.equal tn.t_name name) then
            error "tenant id collision: %S and %S hash to %s" name tn.t_name
              (Hash64.to_hex id);
          tn
      | None ->
          (match List.assoc_opt id t.catalog with
          | Some other when not (String.equal other name) ->
              error "tenant id collision: %S and %S hash to %s" name other
                (Hash64.to_hex id)
          | Some _ -> ()
          | None ->
              append_catalog t.vfs (catalog_path t.root) (id, name);
              t.catalog <- t.catalog @ [ (id, name) ]);
          let shard = Shard.of_id ~shards:t.shards id in
          let entries =
            List.filter_map
              (fun (m : Epoch_index.mux_entry) ->
                if m.m_tenant = id then Some m.m_entry else None)
              t.shard_tbl.(shard).s_committed
          in
          let chain = Chain.create schema in
          List.iter (Chain.append chain) (Commit.resume t.pack entries);
          let tn =
            { t_svc = t;
              t_id = id;
              t_name = name;
              t_shard = shard;
              t_schema = schema;
              t_chain = chain;
              t_entries = entries }
          in
          Hashtbl.replace t.open_tenants id tn;
          tn)

let tenant_name tn = tn.t_name

let tenant_shard tn = tn.t_shard

let checkpoint tenant roots =
  let t = tenant.t_svc in
  check_open t;
  let taken =
    match Policy.decide t.policy tenant.t_chain with
    | Segment.Full -> Chain.take_full tenant.t_chain roots
    | Segment.Incremental -> Chain.take_incremental tenant.t_chain roots
  in
  submit tenant taken.Chain.segment;
  taken.Chain.segment.Segment.seq

let append tenant seg =
  let t = tenant.t_svc in
  check_open t;
  Chain.append tenant.t_chain seg;
  submit tenant seg;
  seg.Segment.seq

let recover tenant = Chain.recover tenant.t_chain

let epochs tenant =
  with_lock tenant.t_svc (fun () ->
      List.map (fun (e : Epoch_index.entry) -> e.epoch) tenant.t_entries)

let latest_epoch tenant =
  with_lock tenant.t_svc (fun () ->
      match List.rev tenant.t_entries with
      | [] -> None
      | e :: _ -> Some e.Epoch_index.epoch)

let restore tenant ~epoch =
  let t = tenant.t_svc in
  check_open t;
  flush t;
  with_lock t (fun () ->
      if
        not
          (List.exists
             (fun (e : Epoch_index.entry) -> e.epoch = epoch)
             tenant.t_entries)
      then error "tenant %S: unknown epoch %d" tenant.t_name epoch;
      Dir.restore
        (Dir.reader t.pack tenant.t_schema)
        ~entries:tenant.t_entries ~epoch)

let evict t ~name =
  check_open t;
  flush t;
  with_lock t (fun () -> Hashtbl.remove t.open_tenants (tenant_id name))

let close t =
  if not t.closed then begin
    flush t;
    t.closed <- true
  end

let tenants t = with_lock t (fun () -> t.catalog)

let collisions t = with_lock t (fun () -> List.rev t.collided)

let drain_latencies t =
  with_lock t (fun () ->
      let ls = t.latencies in
      t.latencies <- [];
      ls)

(* ------------------------------------------------------------------ *)
(* Stats and integrity.                                                *)

type stats = {
  n_tenants : int;
  n_open : int;
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;
  pack_bytes : int;
  dedup_ratio : float;
  commit_batches : int;
  committed_epochs : int;
  collisions : int;
}

let stats t =
  with_lock t (fun () ->
      let n_epochs = ref 0 and logical = ref 0 in
      Array.iter
        (fun s ->
          List.iter
            (fun (m : Epoch_index.mux_entry) ->
              incr n_epochs;
              List.iter
                (fun k -> logical := !logical + Pack.chunk_len t.pack k)
                m.m_entry.chunks)
            s.s_committed)
        t.shard_tbl;
      let pack_bytes = Pack.physical_bytes t.pack in
      { n_tenants = List.length t.catalog;
        n_open = Hashtbl.length t.open_tenants;
        n_epochs = !n_epochs;
        n_chunks = Pack.length t.pack;
        logical_bytes = !logical;
        pack_bytes;
        dedup_ratio =
          (if pack_bytes = 0 then 1.0
           else float_of_int !logical /. float_of_int pack_bytes);
        commit_batches = t.commit_batches;
        committed_epochs = t.committed_epochs;
        collisions = List.length t.collided })

let check t =
  with_lock t (fun () ->
      let label (m : Epoch_index.mux_entry) =
        match List.assoc_opt m.m_tenant t.catalog with
        | Some name -> Printf.sprintf "tenant %S " name
        | None -> Printf.sprintf "tenant %s " (Hash64.to_hex m.m_tenant)
      in
      List.concat
        (List.mapi
           (fun si s ->
             List.filter_map
               (fun (m : Epoch_index.mux_entry) ->
                 let hashed = Shard.of_id ~shards:t.shards m.m_tenant in
                 if hashed = si then None
                 else
                   Some
                     (Printf.sprintf "%scommitted on shard %d, hashes to %d"
                        (label m) si hashed))
               s.s_committed
             @ Commit.check t.pack Commit.mux ~label s.s_committed)
           (Array.to_list t.shard_tbl)))
