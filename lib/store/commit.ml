open Ickpt_core

type collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

type staged = {
  entry : Epoch_index.entry;
  fresh : (int * string) list;
  collisions : collision list;
}

(* Dedup: a key hit is only a duplicate if the bytes agree — the 63-bit
   hash makes a collision negligible but not impossible, and a silent one
   would corrupt the epoch. Pack.resolve byte-verifies every hit and, on a
   genuine collision, degrades to a salted rehash instead of refusing the
   append (a shared pack must not die on one tenant's pathological chunk). *)
let stage pack ~pending ~kind ~epoch ~roots chunks =
  let resolved =
    List.map
      (fun (c : Chunk.t) -> (c, Pack.resolve pack ~pending c.data))
      chunks
  in
  let fresh =
    List.filter_map
      (fun ((c : Chunk.t), r) ->
        match r with
        | Pack.Fresh { key; _ } -> Some (key, c.data)
        | Pack.Dup _ -> None)
      resolved
  in
  let collisions =
    List.filter_map
      (fun ((c : Chunk.t), r) ->
        match r with
        | Pack.Fresh { key; attempt } when attempt > 0 ->
            Some
              { col_epoch = epoch;
                col_content_key = c.key;
                col_stored_key = key;
                col_attempt = attempt }
        | _ -> None)
      resolved
  in
  let dir =
    List.concat
      (List.mapi
         (fun i (c : Chunk.t) ->
           List.map
             (fun (id, off) ->
               { Epoch_index.d_id = id; d_chunk = i; d_off = off })
             c.records)
         chunks)
  in
  let chunk_keys =
    List.map
      (fun (_, r) -> match r with Pack.Dup k | Pack.Fresh { key = k; _ } -> k)
      resolved
  in
  { entry = { Epoch_index.epoch; kind; roots; chunks = chunk_keys; dir };
    fresh;
    collisions }

type 'a layout = {
  decode : string -> pos:int -> 'a * int;
  encode : 'a -> string;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
}

let plain =
  { decode = Epoch_index.decode;
    encode = Epoch_index.encode;
    chain = (fun _ -> 0);
    entry = Fun.id }

let mux =
  { decode = Epoch_index.decode_mux;
    encode = Epoch_index.encode_mux;
    chain = (fun (m : Epoch_index.mux_entry) -> m.m_tenant);
    entry = (fun (m : Epoch_index.mux_entry) -> m.m_entry) }

let dir_in_range pack chunk_arr { Epoch_index.d_chunk; d_off; _ } =
  d_chunk >= 0
  && d_chunk < Array.length chunk_arr
  && d_off >= 0
  && d_off < Pack.chunk_len pack chunk_arr.(d_chunk)

(* [expected] is the chain's next epoch, [None] before its first entry. *)
let valid pack ~expected (e : Epoch_index.entry) =
  (match expected with
  | None -> e.kind = Segment.Full && e.epoch >= 0
  | Some n -> e.epoch = n)
  && List.for_all (Pack.mem pack) e.chunks
  && List.for_all (dir_in_range pack (Array.of_list e.chunks)) e.dir

let open_index vfs pack path layout =
  let r = Vfs.read_frames vfs path layout.decode in
  if r.valid_len < String.length r.contents then
    vfs.Vfs.truncate path ~len:r.valid_len;
  let expected : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec go acc = function
    | x :: rest
      when valid pack
             ~expected:(Hashtbl.find_opt expected (layout.chain x))
             (layout.entry x) ->
        Hashtbl.replace expected (layout.chain x) ((layout.entry x).epoch + 1);
        go (x :: acc) rest
    | _ -> List.rev acc
  in
  let kept = go [] r.frames in
  (* Encoding is deterministic, so the kept records' encoded lengths are
     exactly the on-disk prefix to keep. *)
  if List.length kept < List.length r.frames then begin
    let len x = String.length (layout.encode x) in
    vfs.Vfs.truncate path ~len:(List.fold_left (fun n x -> n + len x) 0 kept)
  end;
  kept

let check pack layout ~label xs =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let hex = Ickpt_stream.Hash64.to_hex in
  let expected : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let e = layout.entry x and who = label x in
      (match Hashtbl.find_opt expected (layout.chain x) with
      | None ->
          if e.kind <> Segment.Full then
            err "%soldest epoch %d is not full" who e.epoch
      | Some n when e.epoch <> n ->
          err "%sepoch %d follows %d" who e.epoch (n - 1)
      | Some _ -> ());
      Hashtbl.replace expected (layout.chain x) (e.epoch + 1);
      List.iter
        (fun k ->
          if not (Pack.mem pack k) then
            err "%sepoch %d references missing chunk %s" who e.epoch (hex k)
          else if not (Chunk.key_matches k (Pack.read pack k)) then
            err "chunk %s content does not match its key" (hex k))
        e.chunks;
      let chunk_arr = Array.of_list e.chunks in
      List.iter
        (fun ({ Epoch_index.d_id; d_chunk; d_off } as d) ->
          if d_chunk < 0 || d_chunk >= Array.length chunk_arr then
            err "%sepoch %d: record %d points at chunk index %d/%d" who e.epoch
              d_id d_chunk (Array.length chunk_arr)
          else if
            Pack.mem pack chunk_arr.(d_chunk)
            && not (dir_in_range pack chunk_arr d)
          then
            err "%sepoch %d: record %d offset %d out of range" who e.epoch d_id
              d_off)
        e.dir)
    xs;
  List.rev !errs

let segment pack (e : Epoch_index.entry) =
  let body = String.concat "" (List.map (Pack.read pack) e.chunks) in
  { Segment.kind = e.kind; seq = e.epoch; roots = e.roots; body }

let resume pack entries =
  match entries with
  | [] -> []
  | (first : Epoch_index.entry) :: _ ->
      (* A full epoch is self-contained, so a chain accepts it at any seq
         and the incrementals after it replay on top. *)
      let base =
        List.fold_left
          (fun acc (e : Epoch_index.entry) ->
            if e.kind = Segment.Full then e.epoch else acc)
          first.epoch entries
      in
      List.filter_map
        (fun (e : Epoch_index.entry) ->
          if e.epoch >= base then Some (segment pack e) else None)
        entries
