(* Tests for ft_machine: architecture models, quirks, and the execution
   model's physical sanity (monotonicities, couplings). *)

open Ft_prog
module Arch = Ft_machine.Arch
module Exec = Ft_machine.Exec
module Quirk = Ft_machine.Quirk
module Toolchain = Ft_machine.Toolchain
module Cv = Ft_flags.Cv
module Flag = Ft_flags.Flag

let bdw = Arch.of_platform Platform.Broadwell
let snb = Arch.of_platform Platform.Sandy_bridge
let opteron = Arch.of_platform Platform.Opteron
let toolchain = Toolchain.make Platform.Broadwell
let program = Ft_suite.Cloverleaf.program
let input = Input.make ~size:2000.0 ~steps:30 ()

let o3_run ?(arch = bdw) ?(platform = Platform.Broadwell) ?(cv = Cv.o3) () =
  let tc = Toolchain.make platform in
  Exec.evaluate ~arch ~input (Toolchain.compile_uniform tc ~cv program)

(* --- Arch -------------------------------------------------------------- *)

let test_arch_table2 () =
  Alcotest.(check int) "16 threads everywhere" 16 bdw.Arch.omp_threads;
  Alcotest.(check int) "snb threads" 16 snb.Arch.omp_threads;
  Alcotest.(check int) "opteron numa" 4 opteron.Arch.numa_nodes;
  Alcotest.(check int) "opteron cores" 8 (Arch.physical_cores opteron);
  Alcotest.(check int) "bdw cores" 16 (Arch.physical_cores bdw);
  Alcotest.(check (float 1e-9)) "bdw frequency" 2.1 bdw.Arch.freq_ghz;
  Alcotest.(check bool) "only Intel throttles AVX" true
    (opteron.Arch.avx256_throttle = 0.0 && bdw.Arch.avx256_throttle > 0.0)

let test_effective_cores () =
  Alcotest.(check (float 1e-9)) "bdw: one thread per core" 16.0
    (Arch.effective_cores bdw);
  Alcotest.(check bool) "opteron SMT helps but less than 2x" true
    (Arch.effective_cores opteron > 8.0 && Arch.effective_cores opteron < 16.0)

let test_aggregate_bandwidth () =
  Alcotest.(check bool) "bdw has more bandwidth than opteron" true
    (Arch.aggregate_dram_gbs bdw > Arch.aggregate_dram_gbs opteron)

(* --- Quirk ------------------------------------------------------------- *)

let test_quirk_deterministic () =
  let rng = Ft_util.Rng.create 41 in
  let cv = Ft_flags.Space.sample rng in
  let f () =
    Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r" cv
  in
  Alcotest.(check (float 1e-12)) "memoized and stable" (f ()) (f ())

let test_quirk_bounds () =
  let rng = Ft_util.Rng.create 42 in
  for _ = 1 to 100 do
    let cv = Ft_flags.Space.sample rng in
    let q =
      Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r" cv
    in
    Alcotest.(check bool) "within (1 -/+ 0.002)^33" true
      (q >= 0.998 ** 33.0 && q <= 1.002 ** 33.0)
  done

let test_quirk_varies_by_region () =
  let cv = Cv.o3 in
  let a = Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r1" cv in
  let b = Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r2" cv in
  Alcotest.(check bool) "regions have their own texture" true (a <> b)

let test_flag_factor_bounds () =
  Array.iter
    (fun flag ->
      for v = 0 to Flag.arity flag - 1 do
        let q =
          Quirk.flag_factor ~platform:Platform.Opteron ~program:"p"
            ~region:"r" flag v
        in
        Alcotest.(check bool) "per-flag amplitude" true
          (q >= 0.998 && q <= 1.002)
      done)
    Flag.all

(* The memoized product must be the fold of [flag_factor] over [Flag.all],
   bit for bit, whether the region's tables are cold or warm. *)
let test_quirk_product_exact () =
  let rng = Ft_util.Rng.create 43 in
  for _ = 1 to 50 do
    let cv = Ft_flags.Space.sample rng in
    let expected =
      Array.fold_left
        (fun acc flag ->
          acc
          *. Quirk.flag_factor ~platform:Platform.Sandy_bridge ~program:"p"
               ~region:"exact" flag (Cv.get cv flag))
        1.0 Flag.all
    in
    for _ = 1 to 2 do
      let q =
        Quirk.factor ~platform:Platform.Sandy_bridge ~program:"p"
          ~region:"exact" cv
      in
      Alcotest.(check int64) "bit-identical product"
        (Int64.bits_of_float expected) (Int64.bits_of_float q)
    done
  done

(* A long-lived domain prices CV after CV; each region's memo must stay
   bounded, and results must not depend on what it has forgotten. *)
let test_quirk_memo_bounded () =
  let price cv =
    Quirk.factor ~platform:Platform.Opteron ~program:"p" ~region:"cap" cv
  in
  let rng = Ft_util.Rng.create 44 in
  let first = Ft_flags.Space.sample rng in
  let q0 = price first in
  for _ = 1 to Quirk.memo_cap + 500 do
    ignore (price (Ft_flags.Space.sample rng));
    let n =
      Quirk.memo_entries ~platform:Platform.Opteron ~program:"p" ~region:"cap"
    in
    if n > Quirk.memo_cap then
      Alcotest.failf "memo holds %d entries, cap is %d" n Quirk.memo_cap
  done;
  Alcotest.(check int64) "same product after the memo was cleared"
    (Int64.bits_of_float q0) (Int64.bits_of_float (price first))

(* --- Exec: determinism and structure ------------------------------------ *)

let test_evaluate_deterministic () =
  let r1 = o3_run () and r2 = o3_run () in
  Alcotest.(check (float 1e-12)) "noise-free evaluate is pure"
    r1.Exec.total_s r2.Exec.total_s

let test_total_is_sum_of_regions () =
  let r = o3_run () in
  let sum =
    List.fold_left (fun acc (x : Exec.region_report) -> acc +. x.Exec.seconds)
      r.Exec.nonloop.Exec.seconds r.Exec.loops
  in
  Alcotest.(check (float 1e-6)) "additive regions" r.Exec.total_s sum

let test_region_names_cover_program () =
  let r = o3_run () in
  Alcotest.(check int) "one report per loop" (Program.loop_count program)
    (List.length r.Exec.loops)

(* --- Exec: monotonicities ------------------------------------------------ *)

let test_more_steps_longer () =
  let at steps =
    (Exec.evaluate ~arch:bdw ~input:(Input.make ~size:2000.0 ~steps ())
       (Toolchain.compile_uniform toolchain ~cv:Cv.o3 program))
      .Exec.total_s
  in
  Alcotest.(check bool) "60 steps > 30 steps" true (at 60 > at 30);
  Alcotest.(check (float 0.2)) "roughly linear in steps" 2.0
    (at 60 /. at 30)

let test_bigger_input_longer () =
  let at size =
    (Exec.evaluate ~arch:bdw ~input:(Input.make ~size ~steps:30 ())
       (Toolchain.compile_uniform toolchain ~cv:Cv.o3 program))
      .Exec.total_s
  in
  Alcotest.(check bool) "4000 > 2000 cells" true (at 4000.0 > at 2000.0)

let test_platforms_ranked () =
  (* Same program and input: the Opteron (8 slower cores, less bandwidth)
     must be slower than Broadwell. *)
  let bdw_t = (o3_run ()).Exec.total_s in
  let opt_t =
    (o3_run ~arch:opteron ~platform:Platform.Opteron ()).Exec.total_s
  in
  Alcotest.(check bool) "opteron slower" true (opt_t > bdw_t)

let test_o1_slower_than_o3 () =
  let o3_t = (o3_run ()).Exec.total_s in
  let o1 = Cv.set Cv.o3 Flag.Base_opt 0 in
  let o1_t = (o3_run ~cv:o1 ()).Exec.total_s in
  Alcotest.(check bool) "O1 noticeably slower" true (o1_t > o3_t *. 1.05)

(* --- Exec: couplings ------------------------------------------------------ *)

let test_avx_throttle_engages () =
  let forced =
    Cv.o3
    |> (fun cv -> Cv.set cv Flag.Simd_width 2)
    |> fun cv -> Cv.set cv Flag.Dep_analysis 2
  in
  let r = o3_run ~cv:forced () in
  Alcotest.(check bool) "256-bit code derates frequency" true
    (r.Exec.freq_factor < 1.0);
  let novec = Cv.set Cv.o3 Flag.Vec 0 in
  let r' = o3_run ~cv:novec () in
  Alcotest.(check (float 1e-9)) "scalar binaries run at nominal clock" 1.0
    r'.Exec.freq_factor

let test_no_throttle_on_opteron () =
  let forced = Cv.set Cv.o3 Flag.Simd_width 2 in
  let r = o3_run ~arch:opteron ~platform:Platform.Opteron ~cv:forced () in
  Alcotest.(check (float 1e-9)) "no AVX license on Opteron" 1.0
    r.Exec.freq_factor

let test_icache_pressure () =
  (* Maximal unrolling everywhere blows the code footprint up. *)
  let fat = Cv.set (Cv.set Cv.o3 Flag.Unroll 5) Flag.Unroll_aggressive 1 in
  let r = o3_run ~cv:fat () in
  Alcotest.(check bool) "i-cache multiplier engages" true
    (r.Exec.icache_mult > 1.0);
  Alcotest.(check bool) "baseline fits" true
    ((o3_run ()).Exec.icache_mult < r.Exec.icache_mult)

(* --- Exec: measurement ----------------------------------------------------- *)

let test_measure_noise_small_and_seeded () =
  let binary = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let truth = (o3_run ()).Exec.total_s in
  let m1 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 1) binary
  in
  let m2 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 1) binary
  in
  let m3 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 2) binary
  in
  Alcotest.(check (float 1e-12)) "same seed, same sample" m1.Exec.elapsed_s
    m2.Exec.elapsed_s;
  Alcotest.(check bool) "different seed differs" true
    (m1.Exec.elapsed_s <> m3.Exec.elapsed_s);
  Alcotest.(check bool) "noise within ±5%" true
    (Float.abs (m1.Exec.elapsed_s -. truth) /. truth < 0.05)

let test_instrumented_overhead_small () =
  let plain = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let instrumented =
    Toolchain.compile_uniform toolchain ~cv:Cv.o3 ~instrumented:true program
  in
  let t0 = (Exec.evaluate ~arch:bdw ~input plain).Exec.total_s in
  let t1 = (Exec.evaluate ~arch:bdw ~input instrumented).Exec.total_s in
  let overhead = (t1 -. t0) /. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "Caliper overhead %.1f%% is under 3%%" (100.0 *. overhead))
    true
    (overhead > 0.0 && overhead < 0.03)

let test_samples_only_when_instrumented () =
  let rng = Ft_util.Rng.create 3 in
  let plain = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let inst =
    Toolchain.compile_uniform toolchain ~cv:Cv.o3 ~instrumented:true program
  in
  Alcotest.(check int) "no samples from plain binaries" 0
    (List.length (Exec.measure ~arch:bdw ~input ~rng plain).Exec.region_samples);
  Alcotest.(check int) "one sample per loop"
    (Program.loop_count program)
    (List.length (Exec.measure ~arch:bdw ~input ~rng inst).Exec.region_samples)

(* --- Explain ----------------------------------------------------------- *)

let test_explain_classification () =
  let run = o3_run () in
  let entries = Ft_machine.Explain.of_run run in
  Alcotest.(check int) "one entry per region"
    (Program.loop_count program + 1)
    (List.length entries);
  (* Entries are sorted hottest first. *)
  let seconds = List.map (fun e -> e.Ft_machine.Explain.seconds) entries in
  Alcotest.(check (list (float 1e-9))) "sorted descending"
    (List.sort (fun a b -> compare b a) seconds)
    seconds;
  (* Shares sum to 1. *)
  let total =
    List.fold_left (fun acc e -> acc +. e.Ft_machine.Explain.share) 0.0 entries
  in
  Alcotest.(check (float 1e-6)) "shares sum to 1" 1.0 total

let test_explain_boundedness_names () =
  Alcotest.(check string) "compute" "compute-bound"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Compute_bound);
  Alcotest.(check string) "memory" "memory-bound"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Memory_bound);
  Alcotest.(check string) "balanced" "balanced"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Balanced)

let test_explain_render () =
  let text = Ft_machine.Explain.render (o3_run ()) in
  Alcotest.(check bool) "mentions dt" true (Test_helpers.contains text "dt");
  Alcotest.(check bool) "mentions derating" true
    (Test_helpers.contains text "derating")

let prop_measure_positive =
  QCheck.Test.make ~count:30 ~name:"measured times are positive"
    QCheck.small_int (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let cv = Ft_flags.Space.sample rng in
      let binary = Toolchain.compile_uniform toolchain ~cv program in
      (Exec.measure ~arch:bdw ~input ~rng binary).Exec.elapsed_s > 0.0)

let suite =
  ( "machine",
    [
      Alcotest.test_case "table 2 parameters" `Quick test_arch_table2;
      Alcotest.test_case "effective cores" `Quick test_effective_cores;
      Alcotest.test_case "bandwidth ordering" `Quick test_aggregate_bandwidth;
      Alcotest.test_case "quirk deterministic" `Quick test_quirk_deterministic;
      Alcotest.test_case "quirk bounds" `Quick test_quirk_bounds;
      Alcotest.test_case "quirk per-region" `Quick test_quirk_varies_by_region;
      Alcotest.test_case "flag factor bounds" `Quick test_flag_factor_bounds;
      Alcotest.test_case "evaluate pure" `Quick test_evaluate_deterministic;
      Alcotest.test_case "regions additive" `Quick test_total_is_sum_of_regions;
      Alcotest.test_case "region coverage" `Quick
        test_region_names_cover_program;
      Alcotest.test_case "steps monotone" `Quick test_more_steps_longer;
      Alcotest.test_case "size monotone" `Quick test_bigger_input_longer;
      Alcotest.test_case "platform ranking" `Quick test_platforms_ranked;
      Alcotest.test_case "O1 slower" `Quick test_o1_slower_than_o3;
      Alcotest.test_case "avx throttle" `Quick test_avx_throttle_engages;
      Alcotest.test_case "no throttle on opteron" `Quick
        test_no_throttle_on_opteron;
      Alcotest.test_case "icache pressure" `Quick test_icache_pressure;
      Alcotest.test_case "measurement noise" `Quick
        test_measure_noise_small_and_seeded;
      Alcotest.test_case "instrumentation overhead" `Quick
        test_instrumented_overhead_small;
      Alcotest.test_case "samples gated" `Quick
        test_samples_only_when_instrumented;
      Alcotest.test_case "explain classification" `Quick
        test_explain_classification;
      Alcotest.test_case "explain names" `Quick test_explain_boundedness_names;
      Alcotest.test_case "explain render" `Quick test_explain_render;
      QCheck_alcotest.to_alcotest prop_measure_positive;
      Alcotest.test_case "quirk product exact" `Quick test_quirk_product_exact;
      Alcotest.test_case "quirk memo bounded" `Quick test_quirk_memo_bounded;
    ] )
