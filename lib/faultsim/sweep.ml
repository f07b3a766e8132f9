open Ickpt_core
open Ickpt_runtime
open Ickpt_cas
open Ickpt_service

(* -- The shared world ---------------------------------------------------- *)

type world = { schema : Schema.t; roots : Model.obj list; mutate : int -> unit }

(* Seven objects, two classes. [mutate r] writes two globally unique values
   (monotone in [r]), so every committed checkpoint state is pairwise
   distinct and "recovered state = some committed state" is exactly the
   prefix property. Worlds with equal [offset] are byte-identical (per-heap
   object ids restart at 0), so their chunks dedup against each other. *)
let make_world ~offset =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk_leaf v =
    let o = Heap.alloc heap leaf in
    o.Model.ints.(0) <- v + offset;
    o
  in
  let mk_pair a b l r =
    let o = Heap.alloc heap pair in
    o.Model.ints.(0) <- a + offset;
    o.Model.ints.(1) <- b + offset;
    o.Model.children.(0) <- Some l;
    o.Model.children.(1) <- Some r;
    o
  in
  let l1 = mk_leaf 1 and l2 = mk_leaf 2 and l3 = mk_leaf 3 and l4 = mk_leaf 4 in
  let pa = mk_pair 5 6 l1 l2 in
  let pb = mk_pair 7 8 l3 l4 in
  let root = mk_pair 9 10 pa pb in
  let objs = [| root; pa; pb; l1; l2; l3; l4 |] in
  let n = Array.length objs in
  let mutate r =
    Barrier.set_int objs.(r mod n) 0 (offset + 1000 + (2 * r));
    Barrier.set_int objs.((r + 3) mod n) 0 (offset + 1001 + (2 * r))
  in
  { schema; roots = [ root ]; mutate }

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

(* A committed state of the reference run: what [tenant] ("" for the
   single-chain targets) held at [epoch]. *)
type snapshot = { tenant : string; epoch : int; roots : Model.obj list }

(* The reference materialization of a just-taken checkpoint, from the
   in-memory chain: a fresh heap, immune to later mutation of the live one. *)
let recovered = function
  | Ok (_heap, roots) -> roots
  | Error e -> failwith ("sweep: reference recovery failed: " ^ e)

(* The first of [epochs] that does not restore to the state committed for
   it in the reference run. *)
let first_mismatch ~snapshots ~tenant ~restore epochs =
  List.find_opt
    (fun e ->
      match
        List.find_opt (fun s -> s.tenant = tenant && s.epoch = e) snapshots
      with
      | None -> true
      | Some s -> not (roots_equal s.roots (restore e)))
    epochs

(* -- Targets and the sweep ----------------------------------------------- *)

type target = {
  t_label : string;
  t_rounds : int;
  t_seed : (unit -> (string * string) list * snapshot list) option;
      (* files present before the run, and the states they committed *)
  t_run :
    vfs:Vfs.t ->
    rounds:int ->
    on_base:(unit -> unit) ->
    on_checkpoint:((unit -> snapshot) -> unit) ->
    unit;
      (* [on_base] fires once the base state is durable (crash points start
         there; never firing means from op 0); [on_checkpoint] after every
         checkpoint, with the committed state to snapshot. *)
  t_check : snapshots:snapshot list -> Vfs.t -> (unit, string) result;
      (* the oracle, on the restarted machine *)
}

type violation = {
  v_op : int;
  v_byte : int;
  v_mode : Sim.mode;
  v_reason : string;
}

type report = {
  r_label : string;
  r_points : int;
  r_runs : int;
  r_violations : violation list;
}

let enumerate op_log ~from_op ~density =
  List.concat
    (List.mapi
       (fun k (kind, len) ->
         if k < from_op then []
         else
           let bytes =
             if kind = "write" then
               let interior =
                 List.init density (fun j -> len * (j + 1) / (density + 1))
               in
               List.filter
                 (fun b -> b >= 0 && b <= len)
                 (List.sort_uniq compare ([ 0; 1; len - 1; len ] @ interior))
             else [ 0; 1 ]
           in
           List.map (fun b -> (k, b)) bytes)
       op_log)

let modes = [ Sim.Torn; Sim.Drop_unsynced; Sim.Corrupt_tail ]

let mode_name = function
  | Sim.Torn -> "torn"
  | Sim.Drop_unsynced -> "drop-unsynced"
  | Sim.Corrupt_tail -> "corrupt-tail"

let sweep ?rounds ?(density = 2) tg =
  let rounds = Option.value rounds ~default:tg.t_rounds in
  let files, seeded =
    match tg.t_seed with Some seed -> seed () | None -> ([], [])
  in
  (* Fault-free reference run: committed states + the op trace to crash. *)
  let ref_sim = Sim.seeded files in
  let snapshots = ref (List.rev seeded) in
  let from_op = ref 0 in
  tg.t_run ~vfs:(Sim.vfs ref_sim) ~rounds
    ~on_base:(fun () -> from_op := Sim.ops ref_sim)
    ~on_checkpoint:(fun snap -> snapshots := snap () :: !snapshots);
  let snapshots = List.rev !snapshots in
  let points = enumerate (Sim.op_log ref_sim) ~from_op:!from_op ~density in
  let violations = ref [] in
  let runs = ref 0 in
  List.iter
    (fun (op, byte) ->
      List.iter
        (fun mode ->
          incr runs;
          let sim = Sim.seeded ~fault:(Sim.Crash_at { op; byte; mode }) files in
          (try
             tg.t_run ~vfs:(Sim.vfs sim) ~rounds ~on_base:ignore
               ~on_checkpoint:ignore
           with
          | Sim.Crashed | Sim.Io_error _ | Failure _ | Service.Error _ -> ());
          match tg.t_check ~snapshots (Sim.vfs (Sim.restart sim)) with
          | Ok () -> ()
          | Error v_reason ->
              violations :=
                { v_op = op; v_byte = byte; v_mode = mode; v_reason }
                :: !violations)
        modes)
    points;
  { r_label = tg.t_label;
    r_points = List.length points;
    r_runs = !runs;
    r_violations = List.rev !violations }

let ok r = r.r_violations = []

let pp_violation ppf v =
  Format.fprintf ppf "crash at op %d byte %d (%s): %s" v.v_op v.v_byte
    (mode_name v.v_mode) v.v_reason

let pp_report ppf r =
  Format.fprintf ppf "%-40s %4d points %5d runs  %s" r.r_label r.r_points
    r.r_runs
    (if ok r then "OK"
     else Printf.sprintf "%d VIOLATIONS" (List.length r.r_violations));
  List.iter (fun v -> Format.fprintf ppf "@.  %a" pp_violation v) r.r_violations

let pp_summary ppf reports =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_report r) reports;
  let bad = List.filter (fun r -> not (ok r)) reports in
  let runs = List.fold_left (fun a r -> a + r.r_runs) 0 reports in
  if bad = [] then
    Format.fprintf ppf "crash sweep: %d configs, %d injected crashes, all recoveries prefix-consistent@."
      (List.length reports) runs
  else
    Format.fprintf ppf "crash sweep: %d of %d configs FAILED@." (List.length bad)
      (List.length reports)

(* -- The segment log ----------------------------------------------------- *)

let log_path = "ckpt.log"

type config = {
  label : string;
  async : bool;
  policy : Policy.t;
  compact_above : int;
  pre_torn : bool;
}

let config ?(async = false) ?(compact_above = 0) ?(pre_torn = false) policy =
  let label =
    Format.asprintf "%s/%a%s%s"
      (if async then "async" else "sync")
      Policy.pp policy
      (if compact_above > 0 then
         Printf.sprintf "/compact>%d" compact_above
       else "")
      (if pre_torn then "/pre-torn" else "")
  in
  { label; async; policy; compact_above; pre_torn }

let default_configs =
  let policies =
    [ Policy.Always_full;
      Policy.Incremental_after_base;
      Policy.Full_every 3;
      Policy.Chain_bytes_limit 64 ]
  in
  List.concat_map
    (fun async ->
      List.concat_map
        (fun policy ->
          [ config ~async policy; config ~async ~compact_above:3 policy ])
        policies)
    [ false; true ]
  @ [ config ~pre_torn:true Policy.Incremental_after_base;
      config ~async:true ~compact_above:3 ~pre_torn:true (Policy.Full_every 3) ]

let log_snapshot m =
  { tenant = "";
    epoch = Chain.next_seq (Manager.chain m) - 1;
    roots = recovered (Chain.recover (Manager.chain m)) }

(* Mutation rounds of a resumed (pre-torn) life are offset so their values
   never collide with the pre-life's. *)
let run_log cfg ~vfs ~rounds ~on_base ~on_checkpoint =
  let w = make_world ~offset:0 in
  let mutation_base = if cfg.pre_torn then 10 else 0 in
  let m =
    Manager.create ~vfs ~policy:cfg.policy ~async:cfg.async
      ~compact_above:cfg.compact_above w.schema ~path:log_path
  in
  Fun.protect
    ~finally:(fun () -> try Manager.close m with _ -> ())
    (fun () ->
      ignore (Manager.checkpoint m w.roots);
      Manager.flush m;
      on_checkpoint (fun () -> log_snapshot m);
      (* A pre-torn log already holds a recoverable chain, so every op is
         fair game — including the tail truncation Manager.create does. *)
      if not cfg.pre_torn then on_base ();
      for r = 1 to rounds do
        w.mutate (mutation_base + r);
        ignore (Manager.checkpoint m w.roots);
        on_checkpoint (fun () -> log_snapshot m)
      done;
      Manager.flush m)

(* An older life of two checkpoints, then the front half of a valid
   segment: decodes far enough to look like a checkpoint interrupted
   mid-append, the realistic torn tail. *)
let pre_torn_seed () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world ~offset:0 in
  let m = Manager.create ~vfs w.schema ~path:log_path in
  ignore (Manager.checkpoint m w.roots);
  let s0 = log_snapshot m in
  w.mutate 1;
  ignore (Manager.checkpoint m w.roots);
  let s1 = log_snapshot m in
  Manager.close m;
  let torn =
    let seg =
      { Segment.kind = Segment.Full; seq = 99; roots = []; body = "torn" }
    in
    let enc = Segment.encode seg in
    String.sub enc 0 (String.length enc - 5)
  in
  ([ (log_path, List.assoc log_path (Sim.durable sim) ^ torn) ], [ s0; s1 ])

(* After recovering, resume on the survived log: one more checkpoint must
   itself be readable. This is where an un-truncated torn tail kills the
   log: the new segment lands after the garbage and reload never reaches
   it. *)
let log_second_life ~vfs ~schema roots =
  match
    let m = Manager.create ~vfs schema ~path:log_path in
    List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
    ignore (Manager.checkpoint m roots);
    Manager.close m;
    Manager.recover_latest ~vfs schema ~path:log_path
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | Error e -> Error ("post-recovery recovery failed: " ^ e)
  | Ok (_heap, roots') ->
      if roots_equal roots roots' then Ok ()
      else Error "checkpoint appended after recovery is not readable"

let check_log ~snapshots vfs =
  let world = make_world ~offset:0 in
  match Storage.load ~vfs log_path with
  | exception e -> Error ("Storage.load raised " ^ Printexc.to_string e)
  | { Storage.segments = []; _ } -> Error "no intact segment survived"
  | { Storage.segments; _ } -> (
      match
        let chain = Chain.create world.schema in
        List.iter (Chain.append chain) segments;
        chain
      with
      | exception e -> Error ("chain rebuild raised " ^ Printexc.to_string e)
      | chain -> (
          match Chain.recover chain with
          | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
          | Error e -> Error ("recovery failed: " ^ e)
          | Ok (_heap, roots) ->
              if
                not
                  (List.exists (fun s -> roots_equal s.roots roots) snapshots)
              then Error "recovered state is not a committed checkpoint state"
              else log_second_life ~vfs ~schema:world.schema roots))

let log cfg =
  { t_label = cfg.label;
    t_rounds = 5;
    t_seed = (if cfg.pre_torn then Some pre_torn_seed else None);
    t_run = run_log cfg;
    t_check = check_log }

(* -- The content-addressed store ----------------------------------------- *)

let store_path = "ckpt.store"

(* Tiny chunks so a single epoch spans several of them and crash points
   land inside multi-chunk pack appends. *)
let records_per_chunk = 3

let run_store ~vfs ~rounds ~on_base ~on_checkpoint =
  let w = make_world ~offset:0 in
  let store = Store.open_ ~vfs ~records_per_chunk w.schema ~path:store_path in
  let m =
    Manager.create ~vfs ~policy:(Policy.Full_every 3)
      ~sink:(Store.manager_sink store) w.schema ~path:store_path
  in
  ignore (Manager.checkpoint m w.roots);
  on_checkpoint (fun () -> log_snapshot m);
  on_base ();
  for r = 1 to rounds do
    w.mutate r;
    ignore (Manager.checkpoint m w.roots);
    on_checkpoint (fun () -> log_snapshot m);
    if r = 3 then ignore (Store.gc store ~retain:(Store.Keep_last 3))
  done

(* Resume on the survived store: one more checkpoint must itself be
   restorable. Exercises sink_resume on a post-crash store. *)
let store_second_life ~vfs ~schema =
  match
    let store = Store.open_ ~vfs ~records_per_chunk schema ~path:store_path in
    let _heap, roots =
      Store.restore store ~epoch:(Option.get (Store.latest_epoch store))
    in
    let m =
      Manager.create ~vfs ~sink:(Store.manager_sink store) schema
        ~path:store_path
    in
    List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
    ignore (Manager.checkpoint m roots);
    let _heap, roots' =
      Store.restore store ~epoch:(Option.get (Store.latest_epoch store))
    in
    roots_equal roots roots'
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | false -> Error "checkpoint appended after recovery is not restorable"
  | true -> Ok ()

let check_store ~snapshots vfs =
  let w = make_world ~offset:0 in
  match Store.open_ ~vfs ~records_per_chunk w.schema ~path:store_path with
  | exception e -> Error ("Store.open_ raised " ^ Printexc.to_string e)
  | store -> (
      match Store.check store with
      | _ :: _ as errs -> Error ("Store.check: " ^ String.concat "; " errs)
      | [] -> (
          match Store.epochs store with
          | [] -> Error "no committed epoch survived"
          | epochs -> (
              let restore e = snd (Store.restore store ~epoch:e) in
              match first_mismatch ~snapshots ~tenant:"" ~restore epochs with
              | Some e ->
                  Error
                    (Printf.sprintf
                       "epoch %d does not restore to its committed state" e)
              | None -> store_second_life ~vfs ~schema:w.schema)))

let store =
  { t_label = "store";
    t_rounds = 5;
    t_seed = None;
    t_run = run_store;
    t_check = check_store }

(* -- The multi-tenant service -------------------------------------------- *)

let service_path = "ckpt.svc"

(* "alpha" and "gamma" are byte-identical, so their chunks dedup across
   tenants in the shared pack — the case a mid-batch crash must not
   tangle. "beta" runs value-offset, so its committed states are distinct
   from everyone's and no snapshot aliasing can mask a violation. *)
let tenant_names = [ "alpha"; "beta"; "gamma" ]

let value_offset = function "beta" -> 100_000 | _ -> 0

(* Two shards, batches of three epochs, inline (no drain threads), so the
   op trace is reproducible and the sweep exhaustive. *)
let open_service ~vfs =
  Service.open_ ~vfs ~shards:2 ~records_per_chunk
    ~policy:(Policy.Full_every 3)
    ~commit:
      (Service.Group
         { Async_writer.Batch.max_items = 3; max_bytes = max_int; linger = 0. })
    ~path:service_path ()

let run_service ~vfs ~rounds ~on_base ~on_checkpoint =
  let svc = open_service ~vfs in
  let tens =
    List.map
      (fun name ->
        let w = make_world ~offset:(value_offset name) in
        (name, Service.open_tenant svc w.schema ~name, w))
      tenant_names
  in
  let checkpoint (name, tn, (w : world)) =
    let epoch = Service.checkpoint tn w.roots in
    on_checkpoint (fun () ->
        { tenant = name; epoch; roots = recovered (Service.recover tn) })
  in
  List.iter checkpoint tens;
  Service.flush svc;
  on_base ();
  for r = 1 to rounds do
    List.iter
      (fun ((_, _, (w : world)) as ten) ->
        w.mutate r;
        checkpoint ten)
      tens
  done;
  Service.flush svc;
  Service.close svc

(* Resume every tenant on the survived store: one more mutation and
   checkpoint per tenant must itself be restorable. *)
let service_second_life ~vfs =
  match
    let svc = open_service ~vfs in
    let ok =
      List.for_all
        (fun name ->
          let w = make_world ~offset:(value_offset name) in
          let tn = Service.open_tenant svc w.schema ~name in
          let epoch =
            match Service.latest_epoch tn with
            | Some e -> e
            | None -> failwith "no committed epoch survived"
          in
          let _heap, roots = Service.restore tn ~epoch in
          List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
          let e' = Service.checkpoint tn roots in
          Service.flush svc;
          let _heap, roots' = Service.restore tn ~epoch:e' in
          roots_equal roots roots')
        tenant_names
    in
    Service.close svc;
    ok
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | false -> Error "checkpoint appended after recovery is not restorable"
  | true -> Ok ()

let check_tenant svc ~snapshots name =
  let w = make_world ~offset:(value_offset name) in
  let tn = Service.open_tenant svc w.schema ~name in
  match Service.epochs tn with
  | [] -> Error (Printf.sprintf "tenant %s: no committed epoch survived" name)
  | epochs when epochs <> List.init (List.length epochs) Fun.id ->
      Error (Printf.sprintf "tenant %s: surviving epochs are not a prefix" name)
  | epochs -> (
      let restore e = snd (Service.restore tn ~epoch:e) in
      match first_mismatch ~snapshots ~tenant:name ~restore epochs with
      | Some e ->
          Error
            (Printf.sprintf
               "tenant %s: epoch %d does not restore to its committed state"
               name e)
      | None -> Ok ())

let check_service ~snapshots vfs =
  match open_service ~vfs with
  | exception e -> Error ("Service.open_ raised " ^ Printexc.to_string e)
  | svc -> (
      let result =
        match Service.check svc with
        | _ :: _ as errs -> Error ("Service.check: " ^ String.concat "; " errs)
        | [] ->
            List.fold_left
              (fun acc name ->
                Result.bind acc (fun () -> check_tenant svc ~snapshots name))
              (Ok ()) tenant_names
      in
      Service.close svc;
      match result with Ok () -> service_second_life ~vfs | e -> e)

let service =
  { t_label = "service";
    t_rounds = 4;
    t_seed = None;
    t_run = run_service;
    t_check = check_service }
