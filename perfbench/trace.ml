(* Spans and counters recorded by the benchmark around calls into the
   system's layers. Spans stay in memory and are written out once, as
   Chrome trace-event JSON, when the run ends. With tracing off [span] is
   a plain call and [count] does nothing, so the untraced run pays for
   neither. *)

let now () = Int64.to_float (Ickpt_harness.Clock.now_ns ()) *. 1e-9

type span = {
  id : int;
  name : string;
  op : int;  (* shared by the spans of one operation (an epoch, a run) *)
  parent : int;  (* -1 at top level *)
  start : float;
  mutable stop : float;
}

let on = ref false
let finished : span list ref = ref []  (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0
let set_op n = current_op := n

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; op = !current_op; parent; start = now ();
        stop = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop <- now ();
      stack := List.tl !stack;
      finished := s :: !finished
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Drop the spans recorded so far (a warm-up's); counters are kept. *)
let clear_spans () = finished := []

let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  if !on then
    Hashtbl.replace counters name
      (n + Option.value ~default:0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)

(* Per span name: calls, total seconds, and self seconds — the span's
   duration minus the part its direct children cover (spans nest, one
   domain, so children never overlap). *)
type layer = { calls : int; total : float; self : float }

let layers () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    !finished;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let l =
        Option.value ~default:{ calls = 0; total = 0.; self = 0. }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { calls = l.calls + 1; total = l.total +. d; self = l.self +. self })
    !finished;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let find_layer name =
  Option.value ~default:{ calls = 0; total = 0.; self = 0. }
    (List.assoc_opt name (layers ()))

(* Mean milliseconds per call of [name] (0 when never called). *)
let mean_ms ?(self = false) name =
  let l = find_layer name in
  if l.calls = 0 then 0.
  else 1000. *. (if self then l.self else l.total) /. float_of_int l.calls

let pp_layers ppf () =
  Format.fprintf ppf "%-28s %8s %12s %12s %12s@." "span" "calls" "total_ms"
    "self_ms" "self_mean_ms";
  List.iter
    (fun (name, l) ->
      Format.fprintf ppf "%-28s %8d %12.2f %12.2f %12.4f@." name l.calls
        (1000. *. l.total) (1000. *. l.self)
        (1000. *. l.self /. float_of_int (max 1 l.calls)))
    (layers ())

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_chrome path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let spans = List.rev !finished in
      let t0 = match spans with s :: _ -> s.start | [] -> 0. in
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
            (if i = 0 then "" else ",")
            (json_escape s.name)
            (json_escape
               (match String.index_opt s.name '.' with
               | Some k -> String.sub s.name 0 k
               | None -> s.name))
            (1e6 *. (s.start -. t0))
            (1e6 *. (s.stop -. s.start))
            s.id s.parent s.op)
        spans;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
