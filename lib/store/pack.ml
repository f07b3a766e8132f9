open Ickpt_core
open Ickpt_stream

let magic = 0x4b504349 (* "ICPK" read as LE bytes; value is arbitrary *)

let version = 1

type t = {
  vfs : Vfs.t;
  file : string;
  mutable data : string;  (* intact prefix of the file *)
  tbl : (int, int * int) Hashtbl.t;  (* key -> (body offset, body len) *)
  mutable order : int list;  (* keys, reverse append order *)
}

let encode_frame key body =
  let d = Out_stream.create ~initial_size:(String.length body + 32) () in
  Out_stream.write_fixed32 d magic;
  Out_stream.write_byte d version;
  Out_stream.write_int d key;
  Out_stream.write_string d body;
  let crc = Crc32.string (Out_stream.contents d) in
  Out_stream.write_fixed32 d crc;
  Out_stream.contents d

(* Decode one frame at [pos]; returns ((key, body offset, body len), end pos).
   Raises In_stream.Corrupt on anything short of an intact frame. *)
let decode_frame s ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> magic then
    raise (In_stream.Corrupt (Printf.sprintf "bad pack magic %#x at %d" m pos));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "unsupported pack version %d" v));
  let key = In_stream.read_int inp in
  let body = In_stream.read_string inp in
  let body_end = In_stream.pos inp in
  let crc = In_stream.read_fixed32 inp in
  if crc <> Crc32.sub s ~pos ~len:(body_end - pos) then
    raise (In_stream.Corrupt (Printf.sprintf "pack crc mismatch at %d" pos));
  ((key, body_end - String.length body, String.length body), In_stream.pos inp)

let load t =
  Hashtbl.reset t.tbl;
  t.order <- [];
  let r = Vfs.read_frames t.vfs t.file decode_frame in
  List.iter
    (fun (key, off, blen) ->
      if not (Hashtbl.mem t.tbl key) then begin
        Hashtbl.replace t.tbl key (off, blen);
        t.order <- key :: t.order
      end)
    r.frames;
  (* Cut a torn tail off before the next append, exactly as Storage does
     for the segment log: garbage after the intact prefix would make every
     later frame unreachable. *)
  if r.valid_len < String.length r.contents then begin
    t.vfs.Vfs.truncate t.file ~len:r.valid_len;
    t.data <- String.sub r.contents 0 r.valid_len
  end
  else t.data <- r.contents

let open_ ?(vfs = Vfs.real) file =
  let t = { vfs; file; data = ""; tbl = Hashtbl.create 256; order = [] } in
  load t;
  t

let reload = load

let path t = t.file

let mem t key = Hashtbl.mem t.tbl key

let read t key =
  let off, len = Hashtbl.find t.tbl key in
  String.sub t.data off len

let chunk_len t key = snd (Hashtbl.find t.tbl key)

let keys t = List.rev t.order

let length t = Hashtbl.length t.tbl

let physical_bytes t = String.length t.data

let append_batch t batch =
  match batch with
  | [] -> 0
  | _ ->
      List.iter
        (fun (key, _) ->
          if Hashtbl.mem t.tbl key then
            invalid_arg "Pack.append_batch: duplicate key")
        batch;
      let buf = Buffer.create 4096 in
      List.iter (fun (key, body) -> Buffer.add_string buf (encode_frame key body))
        batch;
      let frames = Buffer.contents buf in
      Vfs.write_durably (t.vfs.Vfs.open_append t.file) (fun write ->
          write frames);
      (* Mirror the append in memory. *)
      let base = String.length t.data in
      t.data <- t.data ^ frames;
      let pos = ref base in
      List.iter
        (fun (key, _) ->
          let (k, off, blen), next = decode_frame t.data ~pos:!pos in
          assert (k = key);
          Hashtbl.replace t.tbl key (off, blen);
          t.order <- key :: t.order;
          pos := next)
        batch;
      String.length frames

type resolution =
  | Dup of int
  | Fresh of { key : int; attempt : int }

(* Walk the salt ladder: the content key first, then salted rehashes. A key
   hit only counts as a duplicate if the bytes agree — otherwise it is a
   collision and the next rung is tried. [pending] holds same-batch fresh
   chunks not yet in the pack; a Fresh result is recorded there so the rest
   of the batch dedups (and collides) against it too. *)
let resolve t ~pending data =
  let rec go attempt =
    if attempt > Chunk.max_salt_attempts then
      failwith "Pack.resolve: salted rehash attempts exhausted"
    else
      let key =
        if attempt = 0 then Chunk.key_of data
        else Chunk.salted_key data ~attempt
      in
      let stored =
        if Hashtbl.mem t.tbl key then Some (read t key)
        else Hashtbl.find_opt pending key
      in
      match stored with
      | Some existing ->
          if String.equal existing data then Dup key else go (attempt + 1)
      | None ->
          Hashtbl.replace pending key data;
          Fresh { key; attempt }
  in
  go 0

let stage_rewrite t ~keep =
  let tmp = Storage.temp_of ~path:t.file in
  Vfs.write_durably (t.vfs.Vfs.open_trunc tmp) (fun write ->
      List.iter
        (fun key -> if keep key then write (encode_frame key (read t key)))
        (keys t));
  tmp
