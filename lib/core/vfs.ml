type writer = {
  write : string -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

type t = {
  exists : string -> bool;
  read_file : string -> string;
  open_append : string -> writer;
  open_trunc : string -> writer;
  truncate : string -> len:int -> unit;
  rename : src:string -> dst:string -> unit;
  remove : string -> unit;
}

let writer_of_channel oc =
  { write = (fun s -> output_string oc s);
    sync =
      (fun () ->
        flush oc;
        (* Some targets (pipes, odd filesystems) reject fsync; losing the
           barrier there is no worse than the pre-fsync behaviour. *)
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ | Sys_error _ -> ());
    close = (fun () -> try close_out oc with Sys_error _ -> ()) }

let real =
  { exists = Sys.file_exists;
    read_file =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    open_append =
      (fun path ->
        writer_of_channel
          (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path));
    open_trunc = (fun path -> writer_of_channel (open_out_bin path));
    truncate = (fun path ~len -> Unix.truncate path len);
    rename = (fun ~src ~dst -> Sys.rename src dst);
    remove = Sys.remove }

let write_durably w f =
  (try
     f w.write;
     w.sync ()
   with e ->
     w.close ();
     raise e);
  w.close ()

type 'a frames = { frames : 'a list; valid_len : int; contents : string }

let read_frames t path decode =
  let contents = if t.exists path then t.read_file path else "" in
  let rec go acc pos =
    let stop () = { frames = List.rev acc; valid_len = pos; contents } in
    if pos >= String.length contents then stop ()
    else
      match decode contents ~pos with
      | x, next -> go (x :: acc) next
      | exception (Ickpt_stream.In_stream.Corrupt _ | Invalid_argument _) ->
          stop ()
  in
  go [] 0
