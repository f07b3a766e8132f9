open Ickpt_core
open Ickpt_stream

let magic = 0x584b4349 (* "ICKX" read as LE bytes; value is arbitrary *)

let version = 1

type dir_entry = { d_id : int; d_chunk : int; d_off : int }

type entry = {
  epoch : int;
  kind : Segment.kind;
  roots : int list;
  chunks : int list;
  dir : dir_entry list;
}

let kind_byte = function Segment.Full -> 0 | Segment.Incremental -> 1

(* The entry payload (everything between the header and the crc) is shared
   between the plain per-store wire format and the multiplexed per-shard
   one — only the header differs (the mux adds a tenant id). *)
let write_payload d e =
  Out_stream.write_int d e.epoch;
  Out_stream.write_byte d (kind_byte e.kind);
  Out_stream.write_int d (List.length e.roots);
  List.iter (Out_stream.write_int d) e.roots;
  Out_stream.write_int d (List.length e.chunks);
  List.iter (Out_stream.write_int d) e.chunks;
  Out_stream.write_int d (List.length e.dir);
  List.iter
    (fun { d_id; d_chunk; d_off } ->
      Out_stream.write_int d d_id;
      Out_stream.write_int d d_chunk;
      Out_stream.write_int d d_off)
    e.dir

let read_list inp read =
  let n = In_stream.read_int inp in
  if n < 0 then raise (In_stream.Corrupt "negative list length in index entry");
  List.init n (fun _ -> read inp)

let read_payload inp =
  let epoch = In_stream.read_int inp in
  let kind =
    match In_stream.read_byte inp with
    | 0 -> Segment.Full
    | 1 -> Segment.Incremental
    | k -> raise (In_stream.Corrupt (Printf.sprintf "bad entry kind %d" k))
  in
  let roots = read_list inp In_stream.read_int in
  let chunks = read_list inp In_stream.read_int in
  let dir =
    read_list inp (fun inp ->
        let d_id = In_stream.read_int inp in
        let d_chunk = In_stream.read_int inp in
        let d_off = In_stream.read_int inp in
        { d_id; d_chunk; d_off })
  in
  { epoch; kind; roots; chunks; dir }

let encode e =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d magic;
  Out_stream.write_byte d version;
  write_payload d e;
  let crc = Crc32.string (Out_stream.contents d) in
  Out_stream.write_fixed32 d crc;
  Out_stream.contents d

let decode s ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> magic then
    raise (In_stream.Corrupt (Printf.sprintf "bad index magic %#x at %d" m pos));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "unsupported index version %d" v));
  let e = read_payload inp in
  let body_end = In_stream.pos inp in
  let crc = In_stream.read_fixed32 inp in
  if crc <> Crc32.sub s ~pos ~len:(body_end - pos) then
    raise (In_stream.Corrupt (Printf.sprintf "index crc mismatch at %d" pos));
  (e, In_stream.pos inp)

let load vfs path =
  let r = Vfs.read_frames vfs path decode in
  (r.frames, r.valid_len)

let append vfs path e =
  Vfs.write_durably (vfs.Vfs.open_append path) (fun write -> write (encode e))

let write_staged vfs ~path entries =
  let tmp = Storage.temp_of ~path in
  Vfs.write_durably (vfs.Vfs.open_trunc tmp) (fun write ->
      List.iter (fun e -> write (encode e)) entries);
  tmp

(* ------------------------------------------------------------------ *)
(* Multiplexed (per-shard) index: many tenants' entries interleaved in
   one file, each tagged with its tenant id.                            *)

let mux_magic = 0x4d4b4349 (* "ICKM" read as LE bytes; value is arbitrary *)

type mux_entry = { m_tenant : int; m_entry : entry }

let encode_mux m =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d mux_magic;
  Out_stream.write_byte d version;
  Out_stream.write_int d m.m_tenant;
  write_payload d m.m_entry;
  let crc = Crc32.string (Out_stream.contents d) in
  Out_stream.write_fixed32 d crc;
  Out_stream.contents d

let decode_mux s ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> mux_magic then
    raise
      (In_stream.Corrupt (Printf.sprintf "bad mux index magic %#x at %d" m pos));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "unsupported index version %d" v));
  let m_tenant = In_stream.read_int inp in
  let e = read_payload inp in
  let body_end = In_stream.pos inp in
  let crc = In_stream.read_fixed32 inp in
  if crc <> Crc32.sub s ~pos ~len:(body_end - pos) then
    raise (In_stream.Corrupt (Printf.sprintf "mux index crc mismatch at %d" pos));
  ({ m_tenant; m_entry = e }, In_stream.pos inp)

let load_mux vfs path =
  let r = Vfs.read_frames vfs path decode_mux in
  (r.frames, r.valid_len)

let append_mux_batch vfs path ms =
  match ms with
  | [] -> ()
  | _ ->
      let buf = Buffer.create 4096 in
      List.iter (fun m -> Buffer.add_string buf (encode_mux m)) ms;
      Vfs.write_durably (vfs.Vfs.open_append path) (fun write ->
          write (Buffer.contents buf))
