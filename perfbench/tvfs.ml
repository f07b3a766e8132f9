(* A timing Vfs for the traced run: every read, write and sync of the real
   filesystem becomes a span; writes and syncs are also counted. *)

open Ickpt_core

let wrap (inner : Vfs.t) : Vfs.t =
  let writer (w : Vfs.writer) =
    { Vfs.write =
        (fun s ->
          Trace.count "vfs.write_bytes" (String.length s);
          Trace.span "vfs.write" (fun () -> w.Vfs.write s));
      sync =
        (fun () ->
          Trace.count "vfs.syncs" 1;
          Trace.span "vfs.sync" w.Vfs.sync);
      close = w.Vfs.close }
  in
  { inner with
    Vfs.read_file = (fun p -> Trace.span "vfs.read" (fun () -> inner.Vfs.read_file p));
    open_append = (fun p -> writer (inner.Vfs.open_append p));
    open_trunc = (fun p -> writer (inner.Vfs.open_trunc p)) }

(* The [?vfs] argument for a workload: timed when tracing, else the default. *)
let of_env env = if env.Env.traced then Some (wrap Vfs.real) else None
