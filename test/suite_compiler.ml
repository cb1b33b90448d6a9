(* Tests for ft_compiler: heuristics (including the Table 3 O3 decision
   row), PGO, the linker's determinism and perturbation rules. *)

open Ft_prog
open Ft_compiler
module Cv = Ft_flags.Cv
module Flag = Ft_flags.Flag

let icc = Cprofile.icc
let bdw = Target.for_platform Platform.Broadwell
let opteron = Target.for_platform Platform.Opteron

let decide ?(profile = icc) ?(target = bdw) ?(language = Program.C)
    ?(cv = Cv.o3) features =
  fst (Heuristics.decide ~profile ~target ~language ~cv features)

let cl name =
  (Option.get (Program.find_loop Ft_suite.Cloverleaf.program name)).Loop.features

(* --- Table 3's O3 row, verbatim --------------------------------------- *)

let test_o3_dt () =
  let d = decide (cl "dt") in
  Alcotest.(check string) "dt: S, unroll2" "S, unroll2" (Decision.summary d)

let test_o3_cell3 () =
  let d = decide (cl "cell3") in
  Alcotest.(check bool) "cell3 scalar" true (d.Decision.width = Decision.Scalar)

let test_o3_cell7 () =
  let d = decide (cl "cell7") in
  Alcotest.(check bool) "cell7 scalar" true (d.Decision.width = Decision.Scalar)

let test_o3_mom9 () =
  let d = decide (cl "mom9") in
  Alcotest.(check bool) "mom9 128-bit" true (d.Decision.width = Decision.W128)

let test_o3_acc () =
  let d = decide (cl "acc") in
  Alcotest.(check string) "acc: S, unroll3" "S, unroll3" (Decision.summary d)

(* --- vectorization legality and profitability -------------------------- *)

let clean_loop =
  { Feature.default with Feature.alias_ambiguity = 0.1; divergence = 0.0 }

let test_novec_flag () =
  let cv = Cv.set Cv.o3 Flag.Vec 0 in
  let d = decide ~cv clean_loop in
  Alcotest.(check bool) "-no-vec forces scalar" true
    (d.Decision.width = Decision.Scalar)

let test_clean_loop_vectorizes () =
  let d = decide clean_loop in
  Alcotest.(check bool) "O3 vectorizes clean code" true
    (d.Decision.width <> Decision.Scalar)

let test_forced_width () =
  let cv = Cv.set Cv.o3 Flag.Simd_width 1 in
  let d = decide ~cv clean_loop in
  Alcotest.(check bool) "forced 128" true (d.Decision.width = Decision.W128)

let test_opteron_clamps_256 () =
  let cv = Cv.set Cv.o3 Flag.Simd_width 2 in
  let d = decide ~target:opteron ~cv clean_loop in
  Alcotest.(check bool) "no 256-bit units on Opteron" true
    (d.Decision.width = Decision.W128)

let test_alias_blocks_vectorization () =
  let locked = { clean_loop with Feature.alias_ambiguity = 0.7 } in
  let d = decide locked in
  Alcotest.(check bool) "ambiguous C pointers block SIMD" true
    (d.Decision.width = Decision.Scalar);
  let unlocked = Cv.set Cv.o3 Flag.Dep_analysis 2 in
  let d' = decide ~cv:unlocked locked in
  Alcotest.(check bool) "aggressive dependence analysis unlocks" true
    (d'.Decision.width <> Decision.Scalar)

let test_fortran_alias_free () =
  let locked = { clean_loop with Feature.alias_ambiguity = 0.95 } in
  let d = decide ~language:Program.Fortran locked in
  Alcotest.(check bool) "Fortran aliasing is precise" true
    (d.Decision.width <> Decision.Scalar)

let test_alias_provable_monotone_in_precision () =
  let f = { clean_loop with Feature.alias_ambiguity = 0.5 } in
  let at level = Cv.set Cv.o3 Flag.Dep_analysis level in
  let provable cv =
    Heuristics.alias_provable ~profile:icc ~language:Program.C ~cv f
  in
  Alcotest.(check bool) "basic fails at 0.5" false (provable (at 0));
  Alcotest.(check bool) "advanced proves 0.5" true (provable (at 1));
  Alcotest.(check bool) "aggressive proves 0.5" true (provable (at 2))

let test_dep_chain_blocks_vectorization () =
  let recurrence = { clean_loop with Feature.dep_chain = 4.0 } in
  let d = decide recurrence in
  Alcotest.(check bool) "loop-carried recurrence stays scalar" true
    (d.Decision.width = Decision.Scalar);
  let reduction = { recurrence with Feature.reduction = true } in
  let d' = decide reduction in
  Alcotest.(check bool) "clean reductions may vectorize" true
    (d'.Decision.width <> Decision.Scalar)

let test_divergent_reduction_veto () =
  let f =
    {
      clean_loop with
      Feature.dep_chain = 4.0;
      reduction = true;
      divergence = 0.5;
    }
  in
  let d = decide f in
  Alcotest.(check bool) "cost model refuses masked divergent reductions"
    true
    (d.Decision.width = Decision.Scalar);
  let unlimited = Cv.set Cv.o3 Flag.Vector_cost 2 in
  let d' = decide ~cv:unlimited f in
  Alcotest.(check bool) "unlimited cost model overrides" true
    (d'.Decision.width <> Decision.Scalar)

let test_internal_estimate_shape () =
  (* The quadratic width-cost belief: moderately strided loops estimate
     better at 128 than at 256 (why ICC picks 128 for mom9). *)
  let est w = Heuristics.internal_vector_estimate ~profile:icc (cl "mom9") w in
  Alcotest.(check bool) "est(128) > est(256) for mom9" true
    (est Decision.W128 > est Decision.W256);
  let est_clean w = Heuristics.internal_vector_estimate ~profile:icc clean_loop w in
  Alcotest.(check bool) "est(256) > est(128) for clean code" true
    (est_clean Decision.W256 > est_clean Decision.W128);
  Alcotest.(check (float 1e-9)) "scalar estimate is 1" 1.0
    (Heuristics.internal_vector_estimate ~profile:icc clean_loop Decision.Scalar)

(* --- unrolling ---------------------------------------------------------- *)

let test_unroll_flag_respected () =
  let at idx = Cv.set (Cv.set Cv.o3 Flag.Vec 0) Flag.Unroll idx in
  let body = { clean_loop with Feature.body_insns = 100 } in
  Alcotest.(check int) "-unroll=0 disables" 1
    (decide ~cv:(at 1) body).Decision.unroll;
  Alcotest.(check int) "-unroll=8" 8 (decide ~cv:(at 4) body).Decision.unroll;
  Alcotest.(check int) "-unroll=16" 16 (decide ~cv:(at 5) body).Decision.unroll

let test_unroll_aggressive_doubles () =
  let cv = Cv.set (Cv.set Cv.o3 Flag.Vec 0) Flag.Unroll_aggressive 1 in
  let body = { clean_loop with Feature.body_insns = 100 } in
  let base = (decide ~cv:(Cv.set Cv.o3 Flag.Vec 0) body).Decision.unroll in
  Alcotest.(check int) "doubled" (base * 2) (decide ~cv body).Decision.unroll

let test_unroll_trip_cap () =
  let tiny =
    { clean_loop with Feature.trip_count = 8.0; body_insns = 100 }
  in
  let cv = Cv.set (Cv.set Cv.o3 Flag.Vec 0) Flag.Unroll 5 (* 16 *) in
  Alcotest.(check bool) "unroll capped by trip count" true
    ((decide ~cv tiny).Decision.unroll <= 2)

let test_o1_disables () =
  let cv = Cv.set Cv.o3 Flag.Base_opt 0 in
  let d = decide ~cv clean_loop in
  Alcotest.(check bool) "O1 scalar" true (d.Decision.width = Decision.Scalar);
  Alcotest.(check int) "O1 no unroll" 1 d.Decision.unroll;
  Alcotest.(check bool) "O1 slower code" true (d.Decision.redundancy > 1.1)

(* --- streaming stores / prefetch ---------------------------------------- *)

let streamy =
  {
    clean_loop with
    Feature.write_bytes = 48.0;
    read_bytes = 48.0;
    trip_count = 1.0e6;
  }

let test_streaming_auto () =
  Alcotest.(check bool) "auto streams wide vector writes" true
    (decide streamy).Decision.streaming;
  let tiny = { streamy with Feature.trip_count = 64.0 } in
  Alcotest.(check bool) "auto skips short trips" false
    (decide tiny).Decision.streaming

let test_streaming_always_never () =
  let always = Cv.set Cv.o3 Flag.Streaming_stores 1 in
  let never = Cv.set Cv.o3 Flag.Streaming_stores 2 in
  Alcotest.(check bool) "always" true (decide ~cv:always streamy).Decision.streaming;
  Alcotest.(check bool) "never" false (decide ~cv:never streamy).Decision.streaming;
  let no_writes = { streamy with Feature.write_bytes = 0.0 } in
  Alcotest.(check bool) "no writes, nothing to stream" false
    (decide ~cv:always no_writes).Decision.streaming

let test_prefetch_levels () =
  Alcotest.(check int) "O3 default level" 2 (decide clean_loop).Decision.prefetch;
  let cv = Cv.set Cv.o3 Flag.Prefetch 4 in
  Alcotest.(check int) "level 4" 4 (decide ~cv clean_loop).Decision.prefetch;
  let far = Cv.set Cv.o3 Flag.Prefetch_distance 3 in
  Alcotest.(check bool) "far distance" true
    (decide ~cv:far clean_loop).Decision.prefetch_far

(* --- inlining ------------------------------------------------------------ *)

let cally = { clean_loop with Feature.calls_per_iter = 2.0 }

let test_inlining () =
  let d, f = Heuristics.decide ~profile:icc ~target:bdw ~language:Program.C
      ~cv:Cv.o3 cally
  in
  Alcotest.(check bool) "default budget inlines" true d.Decision.inlined;
  Alcotest.(check (float 1e-9)) "calls gone" 0.0 f.Feature.calls_per_iter;
  Alcotest.(check bool) "body grew" true
    (f.Feature.body_insns > cally.Feature.body_insns);
  let stingy = Cv.set Cv.o3 Flag.Inline_threshold 0 in
  let d', f' = Heuristics.decide ~profile:icc ~target:bdw ~language:Program.C
      ~cv:stingy cally
  in
  Alcotest.(check bool) "tiny budget does not inline" false d'.Decision.inlined;
  Alcotest.(check (float 1e-9)) "calls remain" 2.0 f'.Feature.calls_per_iter

(* --- FMA / if-conversion -------------------------------------------------- *)

let test_fma_needs_target () =
  let f = { clean_loop with Feature.fma_fraction = 0.5 } in
  Alcotest.(check bool) "BDW contracts" true (decide f).Decision.fma_used;
  Alcotest.(check bool) "Opteron cannot" false
    (decide ~target:opteron f).Decision.fma_used;
  let off = Cv.set Cv.o3 Flag.Fma 0 in
  Alcotest.(check bool) "flag off" false (decide ~cv:off f).Decision.fma_used

let test_vector_if_conversion_mandatory () =
  let divergent =
    { clean_loop with Feature.divergence = 0.3; branch_predictability = 0.99 }
  in
  let forced = Cv.set Cv.o3 Flag.Simd_width 2 in
  let d = decide ~cv:forced divergent in
  Alcotest.(check bool) "vector implies masked" true d.Decision.if_converted

let test_scalar_if_conversion_predictability () =
  let novec = Cv.set Cv.o3 Flag.Vec 0 in
  let unpredictable =
    { clean_loop with Feature.divergence = 0.5; branch_predictability = 0.5 }
  in
  Alcotest.(check bool) "mispredicting branches get cmov" true
    (decide ~cv:novec unpredictable).Decision.if_converted;
  let predictable =
    { unpredictable with Feature.branch_predictability = 0.97 }
  in
  Alcotest.(check bool) "predictable branches stay branches" false
    (decide ~cv:novec predictable).Decision.if_converted

(* --- code size / decision hash -------------------------------------------- *)

let test_code_size_monotone_in_unroll () =
  let at idx = Cv.set (Cv.set Cv.o3 Flag.Vec 0) Flag.Unroll idx in
  let small = (decide ~cv:(at 2) clean_loop).Decision.code_bytes in
  let big = (decide ~cv:(at 4) clean_loop).Decision.code_bytes in
  Alcotest.(check bool) "more unroll, more code" true (big > small)

let test_decision_hash () =
  let d1 = decide clean_loop and d2 = decide clean_loop in
  Alcotest.(check int) "equal decisions hash equal" (Decision.hash d1)
    (Decision.hash d2);
  let d3 = decide ~cv:(Cv.set Cv.o3 Flag.Unroll 4) clean_loop in
  Alcotest.(check bool) "different decisions differ" true
    (Decision.hash d1 <> Decision.hash d3)

let test_decision_summary_notation () =
  let d =
    {
      (decide clean_loop) with
      Decision.width = Decision.W256;
      unroll = 2;
      isel_quality = 1.04;
      sched_quality = 1.07;
      spills = 0.5;
    }
  in
  Alcotest.(check string) "table 3 notation" "256, unroll2, IS, IO, RS"
    (Decision.summary d)

(* --- PGO ------------------------------------------------------------------- *)

let test_pgo_collect () =
  let program = Ft_suite.Cloverleaf.program in
  let input = Input.make ~size:2000.0 ~steps:10 () in
  match Pgo.collect ~program ~input with
  | Error e -> Alcotest.fail e
  | Ok db ->
      Alcotest.(check int) "every region profiled"
        (Program.loop_count program + 1)
        (Pgo.region_count db);
      (match Pgo.lookup db "dt" with
      | Some p ->
          Alcotest.(check bool) "trip counts recorded" true
            (p.Pgo.trip_count > 0.0)
      | None -> Alcotest.fail "dt missing from profile")

let test_pgo_fails_for_lulesh_and_optewe () =
  let check name =
    let program = Option.get (Ft_suite.Suite.find name) in
    let input = Ft_suite.Suite.tuning_input Platform.Broadwell program in
    match Pgo.collect ~program ~input with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ " should refuse instrumentation")
  in
  check "LULESH";
  check "Optewe"

let test_pgo_improves_decisions () =
  let f = { streamy with Feature.trip_count = 100.0; working_set_kb = 50_000.0 } in
  let pgo =
    Some { Pgo.trip_count = 100.0; predictability = 0.9; working_set_kb = 50_000.0 }
  in
  let d, _ =
    Heuristics.decide ~profile:icc ~target:bdw ~language:Program.C ~pgo
      ~cv:Cv.o3 f
  in
  Alcotest.(check bool) "profile-guided" true d.Decision.profile_guided;
  let d0 = decide f in
  Alcotest.(check bool) "baseline is not" false d0.Decision.profile_guided

(* --- linker ------------------------------------------------------------------ *)

let toolchain = Ft_machine.Toolchain.make Platform.Broadwell

let test_uniform_builds_never_perturbed () =
  let rng = Ft_util.Rng.create 31 in
  for _ = 1 to 20 do
    let cv = Ft_flags.Space.sample rng in
    let binary =
      Ft_machine.Toolchain.compile_uniform toolchain ~cv
        Ft_suite.Cloverleaf.program
    in
    Alcotest.(check bool) "uniform" true binary.Linker.uniform;
    Alcotest.(check (float 1e-12)) "no link luck" 1.0
      binary.Linker.link_luck;
    List.iter
      (fun (r : Linker.region) ->
        Alcotest.(check bool) "decision preserved" true
          (Decision.equal r.Linker.cunit.Cunit.decision r.Linker.final))
      binary.Linker.regions
  done

let mixed_binary seed =
  let rng = Ft_util.Rng.create seed in
  let pool = Ft_flags.Space.sample_pool rng 40 in
  Ft_machine.Toolchain.compile_assigned toolchain
    ~cv_of:(fun name -> pool.(Ft_util.Rng.hash_string name mod 40))
    Ft_suite.Cloverleaf.program

let test_link_deterministic () =
  let b1 = mixed_binary 5 and b2 = mixed_binary 5 in
  Alcotest.(check (float 1e-12)) "same luck" b1.Linker.link_luck
    b2.Linker.link_luck;
  List.iter2
    (fun (r1 : Linker.region) (r2 : Linker.region) ->
      Alcotest.(check bool) "same final decisions" true
        (Decision.equal r1.Linker.final r2.Linker.final))
    b1.Linker.regions b2.Linker.regions

let test_mixed_builds_perturbed_somewhere () =
  (* Over several assignments, at least one region must differ from its
     compiled decision (the LTO interference the paper documents). *)
  let any_changed = ref false in
  for seed = 1 to 10 do
    let b = mixed_binary seed in
    if
      List.exists
        (fun (r : Linker.region) ->
          not (Decision.equal r.Linker.cunit.Cunit.decision r.Linker.final))
        b.Linker.regions
    then any_changed := true
  done;
  Alcotest.(check bool) "link-time optimizer interferes" true !any_changed

let test_link_luck_positive () =
  for seed = 1 to 10 do
    let b = mixed_binary seed in
    Alcotest.(check bool) "luck >= 1" true (b.Linker.link_luck >= 1.0)
  done

let test_link_validates_units () =
  let program = Ft_suite.Cloverleaf.program in
  Alcotest.check_raises "unit set checked"
    (Invalid_argument "Linker.link: units do not match the program's regions")
    (fun () ->
      ignore (Linker.link ~target:bdw ~program []))

let test_link_rejects_wrong_region_sets () =
  let program = Ft_suite.Cloverleaf.program in
  let units =
    Cunit.compile_program ~profile:icc ~target:bdw ~cv_of:(fun _ -> Cv.o3)
      program
  in
  let rejects what us =
    Alcotest.check_raises what
      (Invalid_argument "Linker.link: units do not match the program's regions")
      (fun () -> ignore (Linker.link ~target:bdw ~program us))
  in
  let extra = { (List.hd units) with Cunit.region_name = "no-such-region" } in
  let first = List.hd units and rest = List.tl units in
  rejects "missing region" rest;
  rejects "duplicated region" (units @ [ first ]);
  rejects "duplicate in place of a region" (first :: first :: List.tl rest);
  rejects "extra region" (units @ [ extra ]);
  rejects "foreign region in place of a region" (extra :: rest);
  (* A permuted but complete unit list is accepted and links the same. *)
  let b = Linker.link ~target:bdw ~program units in
  let b' = Linker.link ~target:bdw ~program (List.rev units) in
  Alcotest.(check int) "permutation links the same" b.Linker.total_code_bytes
    b'.Linker.total_code_bytes

(* The link as it was first written: seeds built with [Printf.sprintf], the
   unit set validated by sorting, uniformity by [sort_uniq].  [Linker.link]
   streams its seeds instead and must agree bit for bit. *)
let reference_link ~(target : Target.t) ~(program : Program.t) units =
  let fingerprint = Linker.assignment_fingerprint units in
  let perturb (u : Cunit.t) =
    let d = u.Cunit.decision in
    let f = u.Cunit.loop.Loop.features in
    let rng =
      Ft_util.Rng.create
        (Ft_util.Rng.hash_string
           (Printf.sprintf "lto:%s:%s:%d" program.Program.name
              u.Cunit.region_name fingerprint))
    in
    let x = Ft_util.Rng.float rng 1.0 in
    if x < 0.30 then d
    else if x < 0.48 then
      let dep_ok = f.Feature.dep_chain <= 0.0 || f.Feature.reduction in
      if not dep_ok then d
      else
        let width =
          if target.Target.max_simd_bits >= 256 then Decision.W256
          else Decision.W128
        in
        {
          d with
          Decision.width;
          if_converted = d.Decision.if_converted || f.Feature.divergence > 0.0;
          unroll = max d.Decision.unroll 2;
          spills = d.Decision.spills +. 1.5;
          code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 1.9);
        }
    else if x < 0.63 then
      if d.Decision.width = Decision.Scalar then d
      else
        {
          d with
          Decision.width = Decision.Scalar;
          code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 0.7);
        }
    else if x < 0.83 then
      {
        d with
        Decision.unroll = min 16 (d.Decision.unroll * 4);
        spills = d.Decision.spills +. 2.0;
        code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 3.0);
      }
    else { d with Decision.sched_quality = d.Decision.sched_quality *. 0.85 }
  in
  let uniform =
    List.length
      (List.sort_uniq Cv.compare
         (List.map (fun (u : Cunit.t) -> u.Cunit.cv) units))
    <= 1
  in
  let any_ipo = List.exists (fun (u : Cunit.t) -> Cv.ipo u.Cunit.cv) units in
  let final (u : Cunit.t) =
    if uniform || not any_ipo then u.Cunit.decision else perturb u
  in
  let find name =
    List.find (fun (u : Cunit.t) -> u.Cunit.region_name = name) units
  in
  let nonloop = final (find program.Program.nonloop.Loop.name) in
  let loops =
    List.map
      (fun (l : Loop.t) -> final (find l.Loop.name))
      program.Program.loops
  in
  let total_code_bytes =
    List.fold_left
      (fun acc (d : Decision.t) -> acc + d.Decision.code_bytes)
      nonloop.Decision.code_bytes loops
  in
  let link_luck =
    if uniform || not any_ipo then 1.0
    else
      let rng =
        Ft_util.Rng.create
          (Ft_util.Rng.hash_string
             (Printf.sprintf "luck:%s:%d" program.Program.name fingerprint))
      in
      1.0 +. Float.abs (Ft_util.Rng.gauss rng ~mu:0.0 ~sigma:0.07)
  in
  (nonloop :: loops, link_luck, total_code_bytes, uniform)

(* Random per-module assignments over every suite program: a small pool of
   sampled CVs, with -ipo forced off everywhere, forced on in one module,
   or left as sampled; a one-CV pool gives a uniform per-module build. *)
let prop_link_matches_reference =
  let programs = Array.of_list Ft_suite.Suite.all in
  QCheck.Test.make ~count:150 ~name:"Linker.link = sprintf-seeded reference"
    QCheck.(
      quad (int_bound (Array.length programs - 1)) small_nat (int_range 1 5)
        (int_bound 2))
    (fun (pi, seed, pool_size, ipo_mode) ->
      let program = programs.(pi) in
      let rng = Ft_util.Rng.create seed in
      let pool = Ft_flags.Space.sample_pool rng pool_size in
      let with_ipo v cv = Cv.set cv Flag.Ipo v in
      let cv_of name =
        let cv = pool.(Ft_util.Rng.hash_string name mod pool_size) in
        match ipo_mode with
        | 0 -> with_ipo 0 cv
        | 1 ->
            if name = program.Program.nonloop.Loop.name then with_ipo 1 cv
            else with_ipo 0 cv
        | _ -> cv
      in
      let units =
        Cunit.compile_program ~profile:icc ~target:bdw ~cv_of program
      in
      let b = Linker.link ~target:bdw ~program units in
      let finals, luck, bytes, uniform =
        reference_link ~target:bdw ~program units
      in
      List.for_all2 Decision.equal finals
        (List.map (fun (r : Linker.region) -> r.Linker.final)
           (b.Linker.nonloop :: b.Linker.regions))
      && Int64.equal (Int64.bits_of_float luck)
           (Int64.bits_of_float b.Linker.link_luck)
      && bytes = b.Linker.total_code_bytes
      && uniform = b.Linker.uniform)

let test_fingerprint_tracks_decisions_not_flags () =
  (* Changing a flag that changes no decision must not change the link. *)
  let program = Ft_suite.Cloverleaf.program in
  let units cv_dt =
    Cunit.compile_program ~profile:icc ~target:bdw
      ~cv_of:(fun name -> if name = "dt" then cv_dt else Cv.o3)
      program
  in
  let base = Cv.set Cv.o3 Flag.Ipo 1 in
  (* Jump_tables does not affect any decision field for dt. *)
  let cosmetic = Cv.set base Flag.Jump_tables 0 in
  Alcotest.(check int) "cosmetic flag, same fingerprint"
    (Linker.assignment_fingerprint (units base))
    (Linker.assignment_fingerprint (units cosmetic))

let suite =
  ( "compiler",
    [
      Alcotest.test_case "table3 O3: dt" `Quick test_o3_dt;
      Alcotest.test_case "table3 O3: cell3" `Quick test_o3_cell3;
      Alcotest.test_case "table3 O3: cell7" `Quick test_o3_cell7;
      Alcotest.test_case "table3 O3: mom9" `Quick test_o3_mom9;
      Alcotest.test_case "table3 O3: acc" `Quick test_o3_acc;
      Alcotest.test_case "-no-vec" `Quick test_novec_flag;
      Alcotest.test_case "clean code vectorizes" `Quick
        test_clean_loop_vectorizes;
      Alcotest.test_case "forced width" `Quick test_forced_width;
      Alcotest.test_case "opteron clamps 256" `Quick test_opteron_clamps_256;
      Alcotest.test_case "aliasing blocks SIMD" `Quick
        test_alias_blocks_vectorization;
      Alcotest.test_case "fortran alias-free" `Quick test_fortran_alias_free;
      Alcotest.test_case "alias precision monotone" `Quick
        test_alias_provable_monotone_in_precision;
      Alcotest.test_case "recurrences stay scalar" `Quick
        test_dep_chain_blocks_vectorization;
      Alcotest.test_case "divergent reduction veto" `Quick
        test_divergent_reduction_veto;
      Alcotest.test_case "internal estimate shape" `Quick
        test_internal_estimate_shape;
      Alcotest.test_case "unroll flag" `Quick test_unroll_flag_respected;
      Alcotest.test_case "unroll aggressive" `Quick
        test_unroll_aggressive_doubles;
      Alcotest.test_case "unroll trip cap" `Quick test_unroll_trip_cap;
      Alcotest.test_case "O1 semantics" `Quick test_o1_disables;
      Alcotest.test_case "streaming auto" `Quick test_streaming_auto;
      Alcotest.test_case "streaming always/never" `Quick
        test_streaming_always_never;
      Alcotest.test_case "prefetch levels" `Quick test_prefetch_levels;
      Alcotest.test_case "inlining" `Quick test_inlining;
      Alcotest.test_case "fma needs target" `Quick test_fma_needs_target;
      Alcotest.test_case "vector if-conversion" `Quick
        test_vector_if_conversion_mandatory;
      Alcotest.test_case "scalar if-conversion" `Quick
        test_scalar_if_conversion_predictability;
      Alcotest.test_case "code size vs unroll" `Quick
        test_code_size_monotone_in_unroll;
      Alcotest.test_case "decision hash" `Quick test_decision_hash;
      Alcotest.test_case "decision notation" `Quick
        test_decision_summary_notation;
      Alcotest.test_case "pgo collect" `Quick test_pgo_collect;
      Alcotest.test_case "pgo fails (lulesh/optewe)" `Quick
        test_pgo_fails_for_lulesh_and_optewe;
      Alcotest.test_case "pgo informs decisions" `Quick
        test_pgo_improves_decisions;
      Alcotest.test_case "uniform never perturbed" `Quick
        test_uniform_builds_never_perturbed;
      Alcotest.test_case "link deterministic" `Quick test_link_deterministic;
      Alcotest.test_case "mixed builds perturbed" `Quick
        test_mixed_builds_perturbed_somewhere;
      Alcotest.test_case "link luck >= 1" `Quick test_link_luck_positive;
      Alcotest.test_case "link validates units" `Quick
        test_link_validates_units;
      Alcotest.test_case "fingerprint keyed on code" `Quick
        test_fingerprint_tracks_decisions_not_flags;
      Alcotest.test_case "link rejects wrong region sets" `Quick
        test_link_rejects_wrong_region_sets;
      QCheck_alcotest.to_alcotest prop_link_matches_reference;
    ] )
