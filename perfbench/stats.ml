(* Sample buffers and the figures the benchmark reports from them. *)

type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* The samples added since [from] (a previous {!count}). *)
let since s ~from =
  let n = max 0 (s.n - from) in
  { data = Array.sub s.data from n; n }

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort compare a;
    let pos = q *. float_of_int (s.n - 1) in
    let lo = truncate pos in
    let hi = min (s.n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median s = quantile s 0.5

(* Mean of [a.(lo)] .. [a.(hi - 1)]. *)
let array_mean a ~lo ~hi =
  let t = ref 0. in
  for i = lo to hi - 1 do
    t := !t +. a.(i)
  done;
  !t /. float_of_int (max 1 (hi - lo))

let mean s = array_mean s.data ~lo:0 ~hi:s.n

(* Peak resident set size of this process, from the kernel's high-water
   mark (Linux); 0 where /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" (fun kb -> float_of_int kb /. 1024.)
                else go ()
          in
          go ())

(* One line per cycle on stderr, to see drift within a run. *)
let report_cycle workload n ~epoch ~restore ~ops =
  Printf.eprintf
    "%s cycle %d: epoch p50 %.3f ms p90 %.3f ms, restore p50 %.3f ms, %.1f \
     ops/s\n%!"
    workload n
    (1000. *. median epoch)
    (1000. *. quantile epoch 0.9)
    (1000. *. median restore)
    (median ops)

(* ---- the result a workload hands back ------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }
let ms name s q = metric name "ms" (1000. *. quantile s q)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
}

let print_json oc o =
  let num x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else if Float.is_finite x then Printf.sprintf "%.17g" x
    else "null"
  in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
          (num m.m_value) m.m_unit)
      o.metrics
  in
  Printf.fprintf oc
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    o.correct o.attempted o.failed
    (String.concat ", " fields)
