(* What every workload is given, and the checks they share. *)

open Ickpt_runtime

type t = {
  seed : int;
  seconds : float;  (* measured time to fill, in whole cycles *)
  traced : bool;
  dir : string;  (* scratch directory for store files, inside the checkout *)
}

(* A seeded stream for the benchmark's own choices (restore targets,
   evictions), independent of the workload's own generator. *)
let rng env salt = Random.State.make [| env.seed; salt |]

(* Deep structural equality of two root lists. *)
let same_roots (a : Model.obj list) (b : Model.obj list) =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Deep_eq.compare_graphs x y = None) a b

(* Failure bookkeeping: an exception or a mismatch counts once against the
   operations attempted; the first few are reported on stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let fail tally what =
  tally.failed <- tally.failed + 1;
  if tally.failed <= 5 then Printf.eprintf "perfbench: FAILED %s\n%!" what

let check tally what ok = if not ok then fail tally what

let gc_settle () = Gc.compact ()

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let remove_if_exists path = if Sys.file_exists path then Sys.remove path
