(* One iteration of one benchmark workload, in a fresh process.

   perfbench/run.py launches this program once per iteration:

     bench.exe iter --workload W --seed N --dir D --expected FILE
                    [--spans] [--reference]
     bench.exe shard-probe --batch N
     bench.exe record      print the expected-digest table (expected.txt)
     bench.exe selftest --expected FILE
                           self-tests of the helpers below

   An iteration sets its workload up, prints "ready" (run.py times
   process start to this line as set-up), runs the timed phase, checks
   the outputs against the recorded digests, optionally replays the
   layers on the inputs the workload used, and prints one JSON record
   on its last line.  Every per-layer number comes from outside the
   libraries: spans around this file's own calls into their public
   functions, replays of those functions, and /proc and Gc counters. *)

open Ft_prog
module Clock = Ft_util.Clock
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Cache_codec = Ft_engine.Cache_codec
module Checkpoint = Ft_engine.Checkpoint
module Quarantine = Ft_engine.Quarantine
module Pool = Ft_engine.Pool
module Trace = Ft_obs.Trace
module Json = Ft_obs.Json
module Toolchain = Ft_machine.Toolchain
module Exec = Ft_machine.Exec
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result
module Lab = Ft_experiments.Lab
module Protocol = Ft_serve.Protocol
module Journal = Ft_serve.Journal
module Scheduler = Ft_serve.Scheduler
module Framing = Ft_framing.Framing

(* -- inputs generated from the seed ---------------------------------- *)

(* The seed picks one of [variants] input sets; each has its expected
   output digests recorded in expected.txt, so every run, whatever its
   seed, is checked against a recorded reference. *)
let variants = 16
let variant_of_seed seed = ((seed mod variants) + variants) mod variants
let tune_seed v = 42 + v
let platform = Platform.Broadwell
let pool_size = 1000
let programs = Ft_suite.Suite.all

let make_session ?(pool_size = pool_size) engine (p : Program.t) ~seed =
  Tuner.make_session ~pool_size ~engine ~platform ~program:p
    ~input:(Ft_suite.Suite.tuning_input platform p)
    ~seed ()

(* -- spans ----------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* 0 = the iteration's root *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

let spans_on = ref false
let spans : span list ref = ref []
let open_spans = ref [ 0 ]
let next_span = ref 1

(* Spans are recorded on the main domain only and kept in memory; the
   run.py writes them out when the run ends. *)
let span name f =
  if not !spans_on then f ()
  else begin
    let s =
      { id = !next_span; parent = List.hd !open_spans; name; t0 = Clock.now ();
        t1 = 0.0 }
    in
    incr next_span;
    open_spans := s.id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Clock.now ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

(* Self time per span name — a span's duration minus its children's —
   as (total seconds, count).  Children of one parent never overlap:
   spans open and close on one domain. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  let add tbl k d = Hashtbl.replace tbl k (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter (fun s -> add children s.parent (s.t1 -. s.t0)) spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      in
      let total, n =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (total +. self, n + 1))
    spans;
  by_name

let mean_self_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (total, n) when n > 0 -> Some (1000.0 *. total /. float_of_int n)
  | _ -> None

(* -- /proc counters -------------------------------------------------- *)

(* "Key:<blanks>value[ unit]" lines, as /proc/<pid>/status and
   /proc/<pid>/io print them; lines whose value is not an integer are
   skipped. *)
let proc_fields text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             let words =
               String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) rest)
               |> List.filter (( <> ) "")
             in
             (match words with
             | w :: ([] | [ "kB" ]) ->
                 Option.map (fun n -> (String.sub line 0 i, n)) (int_of_string_opt w)
             | _ -> None))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let proc pid file =
  match read_file (Printf.sprintf "/proc/%s/%s" pid file) with
  | text -> proc_fields text
  | exception Sys_error _ -> []

let field fields key = Option.value ~default:0 (List.assoc_opt key fields)

(* -- the iteration record -------------------------------------------- *)

type record = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable evals : int;
  mutable requests : int;
  mutable req_ms : float list;
  mutable timed_s : float;
  mutable rss_kb : int;
  mutable layers : (string * float) list;
  mutable extra : (string * Json.t) list;
}

let new_record () =
  {
    attempted = 0; failed = 0; failures = []; evals = 0; requests = 0;
    req_ms = []; timed_s = 0.0; rss_kb = 0; layers = []; extra = [];
  }

let check r what ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    r.failures <- what :: r.failures
  end

let layer r name value = r.layers <- (name, value) :: r.layers

let ready () = print_endline "ready"

(* One request of a tune workload: one program's search.  A raising
   search is a failed operation, not a crashed benchmark. *)
let request r f =
  let t0 = Clock.now () in
  r.attempted <- r.attempted + 1;
  r.requests <- r.requests + 1;
  match span "request" f with
  | v ->
      r.req_ms <- (1000.0 *. (Clock.now () -. t0)) :: r.req_ms;
      Some v
  | exception e ->
      r.failed <- r.failed + 1;
      r.failures <- Printexc.to_string e :: r.failures;
      None

(* Gc and /proc/self/io change over the timed phase.  Gc.quick_stat
   folds in the counters of every domain, joined pool domains included. *)
let timed r f =
  let g0 = Gc.quick_stat () and io0 = proc "self" "io" in
  let t0 = Clock.now () in
  let v = span "timed" f in
  r.timed_s <- Clock.now () -. t0;
  let g1 = Gc.quick_stat () and io1 = proc "self" "io" in
  r.extra <-
    [
      ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("major_collections", Json.Int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("rchar", Json.Int (field io1 "rchar" - field io0 "rchar"));
      ("wchar", Json.Int (field io1 "wchar" - field io0 "wchar"));
    ]
    @ r.extra;
  v

(* -- expected digests ------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

(* expected.txt: "<output> <variant> <md5>" lines; '#' starts a comment. *)
let load_expected path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ key; v; d ] when key <> "" && key.[0] <> '#' ->
             Option.map (fun v -> ((key, v), d)) (int_of_string_opt v)
         | _ -> None)

let check_digest r table ~key ~variant output =
  check r
    (Printf.sprintf "%s (variant %d) differs from its recorded digest" key variant)
    (List.assoc_opt (key, variant) table = Some (digest output))

(* -- reference outputs ----------------------------------------------- *)

let fig5c_output lab =
  Ft_util.Table.render
    (Ft_experiments.Series.to_table (Ft_experiments.Fig5.panel lab platform))

(* The CFR suite at jobs 1 on domains: the reference every tune workload
   must reproduce byte for byte. *)
let cfr_suite_output v =
  String.concat ""
    (List.map
       (fun p ->
         Result.render (Tuner.run_cfr (make_session (Engine.create ()) p ~seed:(tune_seed v))))
       programs)

(* -- what a workload hands the replay phase -------------------------- *)

type used = {
  pairs : (Tuner.session * Result.t) list;  (* sessions and their winners *)
  caches : Cache.t list;  (* final measurement caches *)
  batch : int;  (* evaluation batch size (the CV pool size) *)
  added : int;  (* summaries the timed phase added to the caches *)
  trace_stats : (int * int) option;  (* ft_obs events, exported bytes *)
}

(* -- workloads ------------------------------------------------------- *)

let evaluations (rep : Tuner.report) =
  rep.Tuner.random.Result.evaluations + rep.Tuner.fr.Result.evaluations
  + rep.Tuner.greedy.Funcytuner.Greedy.realized.Result.evaluations
  + rep.Tuner.cfr.Result.evaluations

(* fig5c-j2: the paper's Fig. 5c lab at jobs 2. *)
let fig5c r ~v ~table =
  let engine = Engine.create ~jobs:2 () in
  let lab = Lab.create ~seed:(tune_seed v) ~pool_size ~engine () in
  ready ();
  let output =
    timed r (fun () ->
        List.iter
          (fun p ->
            ignore
              (request r (fun () ->
                   let s = span "session.make" (fun () -> Lab.session lab platform p) in
                   span "search.collect" (fun () -> ignore (Lazy.force s.Tuner.collection));
                   let rep = span "search.run" (fun () -> Lab.report lab platform p) in
                   r.evals <- r.evals + evaluations rep)))
          programs;
        fig5c_output lab)
  in
  check_digest r table ~key:"fig5c" ~variant:v output;
  let cache = Engine.cache engine in
  let pairs =
    List.map (fun p -> (Lab.session lab platform p, (Lab.report lab platform p).Tuner.cfr)) programs
  in
  ( { pairs; caches = [ cache ]; batch = pool_size; added = Cache.length cache; trace_stats = None },
    fun () ->
      (* The traced run's jobs-1 leg: the same lab on one domain, whose
         series must equal the jobs-2 one. *)
      let t0 = Clock.now () in
      let out1 = fig5c_output (Lab.create ~seed:(tune_seed v) ~pool_size ~jobs:1 ()) in
      let j1 = Clock.now () -. t0 in
      check r "fig5c series differs between jobs 1 and jobs 2" (out1 = output);
      Some (1000.0 *. j1, 1000.0 *. r.timed_s) )

(* tune-sharded-durable: CFR over the suite on two shard nodes, each tune
   with a fresh checkpoint and a wall-clock trace exported at the end. *)
let sharded r ~v ~table ~dir ~reference =
  Ft_shard.Shard.install ();
  let setups =
    List.map
      (fun (p : Program.t) ->
        let trace = Trace.create ~clock:Trace.Wall () in
        let ck = Checkpoint.create ~path:(Filename.concat dir (p.Program.name ^ ".snap")) () in
        let engine =
          Engine.create ~backend:Ft_engine.Backend.Sharded ~nodes:2 ~checkpoint:ck ~trace ()
        in
        (p, engine, trace))
      programs
  in
  ready ();
  let results =
    timed r (fun () ->
        List.filter_map
          (fun (p, engine, trace) ->
            request r (fun () ->
                let s = span "session.make" (fun () -> make_session engine p ~seed:(tune_seed v)) in
                span "search.collect" (fun () -> ignore (Lazy.force s.Tuner.collection));
                let res = span "search.run" (fun () -> Tuner.run_cfr s) in
                span "checkpoint.flush" (fun () -> Engine.flush_checkpoint engine);
                let path = Filename.concat dir (p.Program.name ^ ".jsonl") in
                span "trace.export" (fun () -> Ft_obs.Export.write_jsonl ~path trace);
                r.evals <- r.evals + res.Result.evaluations;
                (s, res, Trace.length trace, (Unix.stat path).Unix.st_size)))
          setups)
  in
  let output = String.concat "" (List.map (fun (_, res, _, _) -> Result.render res) results) in
  check_digest r table ~key:"cfr-suite" ~variant:v output;
  if reference then
    check r "sharded output differs from a domains jobs-1 run" (output = cfr_suite_output v);
  let caches = List.map (fun (_, e, _) -> Engine.cache e) setups in
  let events = List.fold_left (fun a (_, _, n, _) -> a + n) 0 results in
  let bytes = List.fold_left (fun a (_, _, _, b) -> a + b) 0 results in
  ( {
      pairs = List.map (fun (s, res, _, _) -> (s, res)) results;
      caches; batch = pool_size;
      added = List.fold_left (fun a c -> a + Cache.length c) 0 caches;
      trace_stats = Some (events, bytes);
    },
    fun () -> None )

(* tune-warm-resume: the same CFR tunes at jobs 1, each resumed from a
   checkpoint the set-up filled with a cold run of the same tune.  The
   timed phase resumes the suite [warm_passes] times (a resume leaves
   the checkpoint as full as it found it), so a run measures more
   resumed work than cold fill. *)
let warm_passes = 3

let warm r ~v ~table ~dir =
  let paths = List.map (fun (p : Program.t) -> (p, Filename.concat dir (p.Program.name ^ ".snap"))) programs in
  let cold =
    String.concat ""
      (List.map
         (fun (p, path) ->
           let engine = Engine.create ~checkpoint:(Checkpoint.create ~path ()) () in
           let res = Tuner.run_cfr (make_session engine p ~seed:(tune_seed v)) in
           Engine.flush_checkpoint engine;
           Result.render res)
         paths)
  in
  ready ();
  let added = ref 0 in
  let resume (p, path) =
    request r (fun () ->
        let ck = Checkpoint.create ~path () in
        let cache, quarantine =
          match span "checkpoint.load" (fun () -> Checkpoint.load ck) with
          | Some loaded -> loaded
          | None -> failwith ("no checkpoint to resume at " ^ path)
        in
        let loaded = Cache.length cache in
        let engine = Engine.create ~cache ~quarantine ~checkpoint:ck () in
        let s = span "session.make" (fun () -> make_session engine p ~seed:(tune_seed v)) in
        span "search.collect" (fun () -> ignore (Lazy.force s.Tuner.collection));
        let res = span "search.run" (fun () -> Tuner.run_cfr s) in
        span "checkpoint.flush" (fun () -> Engine.flush_checkpoint engine);
        r.evals <- r.evals + res.Result.evaluations;
        added := !added + Cache.length cache - loaded;
        (s, res, cache))
  in
  (* Only the last pass's sessions and caches stay alive, so the peak
     RSS is that of one resume. *)
  let outputs = ref [] and results = ref [] in
  timed r (fun () ->
      for _ = 1 to warm_passes do
        results := [];
        results := List.filter_map resume paths;
        outputs := String.concat "" (List.map (fun (_, res, _) -> Result.render res) !results) :: !outputs
      done);
  List.iter
    (fun output ->
      check r "warm result differs from its cold fill" (output = cold);
      check_digest r table ~key:"cfr-suite" ~variant:v output)
    !outputs;
  let results = !results in
  ( {
      pairs = List.map (fun (s, res, _) -> (s, res)) results;
      caches = List.map (fun (_, _, c) -> c) results;
      batch = pool_size; added = !added; trace_stats = None;
    },
    fun () -> None )

(* -- layer replays --------------------------------------------------- *)

let time f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

let per_op total n = if n = 0 then 0.0 else total /. float_of_int n

(* Minor words and seconds of [f] on this domain. *)
let costed f =
  let w0 = Gc.minor_words () in
  let v, dt = time f in
  (v, dt, Gc.minor_words () -. w0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let replay r ~dir ~first_seed (u : used) ~jobs1 =
  span "replay" @@ fun () ->
  let per_session = 24 in
  let cvs =
    List.concat_map
      (fun ((s : Tuner.session), _) ->
        let ctx = s.Tuner.ctx in
        List.init (min per_session (Array.length ctx.Funcytuner.Context.pool)) (fun i ->
            (ctx, ctx.Funcytuner.Context.pool.(i))))
      u.pairs
  in
  let compile (ctx, cv) =
    Toolchain.compile_uniform ctx.Funcytuner.Context.toolchain ~cv ctx.Funcytuner.Context.program
  in
  let bins, t_uni, w_uni = costed (fun () -> List.map (fun j -> (fst j, compile j)) cvs) in
  let assigned, t_asg, w_asg =
    costed (fun () ->
        List.map (fun (s, (res : Result.t)) ->
            (s.Tuner.ctx, Tuner.build_configuration s res.Result.configuration)) u.pairs)
  in
  let builds = List.length bins + List.length assigned in
  layer r "compile.us_per_build" (1e6 *. per_op (t_uni +. t_asg) builds);
  layer r "compile.words_per_build" (per_op (w_uni +. w_asg) builds);
  let rng = Ft_util.Rng.create 1 in
  let measure (ctx, bin) =
    ignore
      (Exec.measure ~arch:ctx.Funcytuner.Context.toolchain.Toolchain.arch
         ~input:ctx.Funcytuner.Context.input ~rng bin)
  in
  let (), t_exec, w_exec = costed (fun () -> List.iter measure (bins @ assigned)) in
  layer r "exec.us_per_eval" (1e6 *. per_op t_exec builds);
  layer r "exec.words_per_eval" (per_op w_exec builds);
  let (), t_key =
    time (fun () ->
        List.iter
          (fun (ctx, cv) ->
            ignore
              (Engine.key ~toolchain:ctx.Funcytuner.Context.toolchain
                 ~program:ctx.Funcytuner.Context.program ~input:ctx.Funcytuner.Context.input
                 (Engine.Uniform { cv; instrumented = false })))
          cvs)
  in
  layer r "engine.key_us" (1e6 *. per_op t_key (List.length cvs));
  (* Cache and codec over the workload's own keys and summaries. *)
  let bindings = List.concat_map Cache.bindings u.caches in
  let n = List.length bindings in
  let fresh = Cache.create () in
  let (), t_add = time (fun () -> List.iter (fun (k, s) -> Cache.add fresh k s) bindings) in
  let hits, t_find =
    time (fun () -> List.fold_left (fun a (k, _) -> if Cache.find fresh k <> None then a + 1 else a) 0 bindings)
  in
  check r "replayed cache lost entries" (hits = n);
  layer r "cache.add_ns" (1e9 *. per_op t_add n);
  layer r "cache.find_ns" (1e9 *. per_op t_find n);
  layer r "cache.entries" (float_of_int n);
  layer r "cache.adds_per_eval" (per_op (float_of_int u.added) r.evals);
  let encoded, t_enc = time (fun () -> Cache_codec.encode_file bindings) in
  let header = String.length Cache_codec.header in
  let decoded, t_dec = time (fun () -> Cache_codec.decode ~pos:header encoded) in
  check r "codec round trip lost entries" (List.length decoded.Cache_codec.entries = n);
  layer r "codec.encode_ms" (1000.0 *. t_enc);
  layer r "codec.decode_ms" (1000.0 *. t_dec);
  layer r "codec.bytes_per_entry" (per_op (float_of_int (String.length encoded - header)) n);
  (* Checkpoint flush and load: the workload's own spans where it made
     those calls, else a replay of the final cache. *)
  let selfs = self_times !spans in
  let ck = Checkpoint.create ~path:(Filename.concat dir "replay.snap") () in
  let (), t_flush =
    time (fun () -> Checkpoint.flush ck ~cache:fresh ~quarantine:(Quarantine.create ()))
  in
  let _, t_load = time (fun () -> Checkpoint.load ck) in
  let prefer name replayed = Option.value ~default:(1000.0 *. replayed) (mean_self_ms selfs name) in
  layer r "checkpoint.flush_ms" (prefer "checkpoint.flush" t_flush);
  layer r "checkpoint.load_ms" (prefer "checkpoint.load" t_load);
  List.iter
    (fun name ->
      layer r (name ^ "_ms") (Option.value ~default:0.0 (mean_self_ms selfs name)))
    [ "session.make"; "search.collect"; "search.run" ];
  (* ft_obs: the workload's own trace, else a traced probe tune on its
     first program. *)
  let events, bytes, evals, export_ms =
    match u.trace_stats with
    | Some (events, bytes) ->
        (events, bytes, r.evals, Option.value ~default:0.0 (mean_self_ms selfs "trace.export"))
    | None ->
        let s0, _ = List.hd u.pairs in
        let trace = Trace.create ~clock:Trace.Wall () in
        let engine = Engine.create ~trace () in
        let res =
          Tuner.run_cfr (make_session ~pool_size:100 engine s0.Tuner.ctx.Funcytuner.Context.program ~seed:first_seed)
        in
        let path = Filename.concat dir "probe.jsonl" in
        let (), t = time (fun () -> Ft_obs.Export.write_jsonl ~path trace) in
        (Trace.length trace, (Unix.stat path).Unix.st_size, res.Result.evaluations, 1000.0 *. t)
  in
  layer r "trace.events_per_eval" (per_op (float_of_int events) evals);
  layer r "trace.bytes_per_eval" (per_op (float_of_int bytes) evals);
  layer r "trace.export_ms" export_ms;
  (* Framing: a result-sized value over a socketpair. *)
  let payload = Result.render (snd (List.hd u.pairs)) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rounds = 2000 in
  let ok, t_frame =
    time (fun () ->
        let ok = ref true in
        for _ = 1 to rounds do
          Framing.write_value a payload;
          match (Framing.read_value b : (string, _) result) with
          | Ok s -> if s <> payload then ok := false
          | Error _ -> ok := false
        done;
        !ok)
  in
  Unix.close a;
  Unix.close b;
  check r "framing round trip corrupted a payload" ok;
  layer r "framing.roundtrip_us" (1e6 *. per_op t_frame rounds);
  (* Journal: durable appends (one fsync each). *)
  let s0, _ = List.hd u.pairs in
  let spec =
    {
      Protocol.benchmark = s0.Tuner.ctx.Funcytuner.Context.program.Program.name;
      platform = Platform.short_name platform; algorithm = "cfr"; seed = first_seed;
      pool = u.batch; top_x = None;
    }
  in
  let fingerprint = Protocol.fingerprint spec in
  let j = Journal.open_ (Filename.concat dir "replay.journal") in
  let appends = 20 in
  let (), t_journal =
    time (fun () ->
        for i = 1 to appends do
          Journal.append j
            (Journal.Accepted
               { id = Printf.sprintf "r%d" i; tenant = "t0"; fingerprint; spec; deadline = None })
        done)
  in
  Journal.close j;
  layer r "journal.append_us" (1e6 *. per_op t_journal appends);
  (* Scheduler: one submit / next / complete cycle per distinct spec. *)
  let cycles = 2000 in
  let specs = Array.init cycles (fun i -> let s = { spec with Protocol.seed = i } in (s, Protocol.fingerprint s)) in
  let sched = Scheduler.create ~max_queue:16 in
  let outcome = { Scheduler.text = payload; speedup = 1.0; evaluations = 1 } in
  let (), t_sched =
    time (fun () ->
        Array.iteri
          (fun i (spec, fingerprint) ->
            let member = { Scheduler.id = string_of_int i; tenant = "t0"; deadline = None; payload = () } in
            ignore (Scheduler.submit sched ~spec ~fingerprint member);
            ignore (Scheduler.next sched);
            ignore (Scheduler.complete sched ~fingerprint outcome))
          specs)
  in
  layer r "scheduler.op_us" (1e6 *. per_op t_sched cycles);
  (* Pool: spawn/join cost of one batch, and the parallel speedup — from
     the workload's own jobs-1 leg where it has one, else over the
     replayed builds and runs.  Last, because domains forbid forking. *)
  let noop = Array.make u.batch 0 in
  let batch_s = median (List.init 10 (fun _ -> snd (time (fun () -> Pool.map ~jobs:2 Fun.id noop)))) in
  layer r "pool.batch_us" (1e6 *. batch_s);
  let j1_ms, j2_ms =
    match jobs1 () with
    | Some legs -> legs
    | None ->
        let work = Array.of_list cvs in
        let job j = measure (fst j, compile j) in
        let _, t1 = time (fun () -> Pool.map ~jobs:1 job work) in
        let _, t2 = time (fun () -> Pool.map ~jobs:2 job work) in
        (1000.0 *. t1, 1000.0 *. t2)
  in
  layer r "pool.j1_ms" j1_ms;
  layer r "pool.j2_ms" j2_ms;
  layer r "pool.speedup_j2" (per_op j1_ms 1 /. j2_ms)

(* -- iteration ------------------------------------------------------- *)

let host_json () =
  Json.Obj
    [
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

let run_iteration ~workload ~seed ~dir ~expected ~reference =
  let v = variant_of_seed seed in
  let table = load_expected expected in
  let r = new_record () in
  let u, jobs1 =
    match workload with
    | "fig5c-j2" -> fig5c r ~v ~table
    | "tune-sharded-durable" -> sharded r ~v ~table ~dir ~reference
    | "tune-warm-resume" -> warm r ~v ~table ~dir
    | w -> failwith ("unknown workload " ^ w)
  in
  r.rss_kb <- field (proc "self" "status") "VmHWM";
  if !spans_on then replay r ~dir ~first_seed:(tune_seed v) u ~jobs1;
  let sp =
    List.rev_map
      (fun s ->
        Json.Obj
          [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("name", Json.String s.name);
            ("start", Json.Float s.t0); ("end", Json.Float s.t1) ])
      !spans
  in
  let record =
    Json.Obj
      [
        ("workload", Json.String workload); ("variant", Json.Int v);
        ("attempted", Json.Int r.attempted); ("failed", Json.Int r.failed);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) r.failures));
        ("evals", Json.Int r.evals); ("requests", Json.Int r.requests);
        ("req_ms", Json.List (List.map (fun x -> Json.Float x) r.req_ms));
        ("timed_s", Json.Float r.timed_s); ("rss_kb", Json.Int r.rss_kb);
        ("batch", Json.Int u.batch);
        ("layers", Json.Obj (List.rev_map (fun (k, x) -> (k, Json.Float x)) r.layers));
        ("extra", Json.Obj r.extra); ("host", host_json ()); ("spans", Json.List sp);
      ]
  in
  print_endline (Json.to_string record)

(* -- shard probe (its own process: forking is illegal once a domain
   has existed, and the workload processes spawn domains) ------------- *)

let shard_probe batch =
  let ok = ref true in
  let map a =
    Array.iter (function Ok _ -> () | Error _ -> ok := false) (Ft_shard.Shard.map ~nodes:2 Fun.id a)
  in
  let reps = 5 in
  let per_job = List.init reps (fun _ -> snd (time (fun () -> map (Array.make batch 0))) /. float_of_int batch) in
  let spawn = List.init reps (fun _ -> snd (time (fun () -> map [| 0; 1 |]))) in
  if not !ok then (prerr_endline "shard probe: a node failed"; exit 1);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("shard.map_us_per_job", Json.Float (1e6 *. median per_job));
            ("shard.spawn_ms", Json.Float (1000.0 *. median spawn));
          ]))

(* -- expected.txt ---------------------------------------------------- *)

let record_expected () =
  print_endline "# <output> <variant> <md5 of the output>; regenerate with: bench.exe record";
  for v = 0 to variants - 1 do
    let fig = fig5c_output (Lab.create ~seed:(tune_seed v) ~pool_size ~jobs:1 ()) in
    Printf.printf "fig5c %d %s\n%!" v (digest fig);
    Printf.printf "cfr-suite %d %s\n%!" v (digest (cfr_suite_output v))
  done

(* -- self-tests ------------------------------------------------------ *)

let selftest ~expected =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n" what
    end
  in
  let status = "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   98765 kB\nThreads:\t3\nUid:\t0\t0\t0\t0\n" in
  let fs = proc_fields status in
  expect "VmHWM parsed in kB" (field fs "VmHWM" = 98765);
  expect "plain integer field parsed" (field fs "Threads" = 3);
  expect "multi-value field skipped" (not (List.mem_assoc "Uid" fs));
  expect "text field skipped" (not (List.mem_assoc "Name" fs));
  let io = proc_fields "rchar: 4096\nwchar: 17\nsyscr: 3\nread_bytes: 0\n" in
  expect "io counters parsed" (field io "rchar" = 4096 && field io "wchar" = 17 && field io "read_bytes" = 0);
  expect "own status readable" (field (proc "self" "status") "VmHWM" > 0);
  (* Self time: a parent minus its children. *)
  let mk id parent name t0 t1 = { id; parent; name; t0; t1 } in
  let tbl = self_times [ mk 1 0 "p" 0.0 1.0; mk 2 1 "c" 0.1 0.3; mk 3 1 "c" 0.5 0.6 ] in
  expect "parent self time" (Float.abs (Option.get (mean_self_ms tbl "p") -. 700.0) < 1e-6);
  expect "child mean self time" (Float.abs (Option.get (mean_self_ms tbl "c") -. 150.0) < 1e-6);
  (* The digest oracle accepts the recorded output and catches a tampered
     digest and a tampered output. *)
  let table = load_expected expected in
  let out = cfr_suite_output 0 in
  let verdict table out =
    let r = new_record () in
    check_digest r table ~key:"cfr-suite" ~variant:0 out;
    r.failed
  in
  expect "recorded digest accepted" (verdict table out = 0);
  let tamper d = String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) d in
  let tampered = List.map (fun (k, d) -> if k = ("cfr-suite", 0) then (k, tamper d) else (k, d)) table in
  expect "tampered digest caught" (verdict tampered out = 1);
  expect "tampered output caught" (verdict table (out ^ " ") = 1);
  expect "missing digest caught" (verdict [] out = 1);
  if !failures = 0 then print_endline "bench selftest: OK" else exit 1

(* -- command line ---------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let need name = match opt name args with Some v -> v | None -> failwith ("missing " ^ name) in
  match args with
  | "iter" :: _ ->
      spans_on := List.mem "--spans" args;
      run_iteration ~workload:(need "--workload") ~seed:(int_of_string (need "--seed"))
        ~dir:(need "--dir") ~expected:(need "--expected")
        ~reference:(List.mem "--reference" args)
  | "shard-probe" :: _ -> shard_probe (int_of_string (need "--batch"))
  | "record" :: _ -> record_expected ()
  | "selftest" :: _ -> selftest ~expected:(need "--expected")
  | _ ->
      prerr_endline "usage: bench.exe (iter|shard-probe|record|selftest) [options]";
      exit 2
