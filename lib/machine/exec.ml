open Ft_prog
open Ft_compiler
module Rng = Ft_util.Rng

type region_report = {
  name : string;
  seconds : float;
  compute_s : float;
  memory_s : float;
  width : Decision.width;
  decision : Decision.t;
}

type run = {
  total_s : float;
  nonloop : region_report;
  loops : region_report list;
  freq_factor : float;
  icache_mult : float;
}

(* Raw (pre-coupling) cost of one region, split into components. *)
type raw = {
  r_name : string;
  r_compute : float;  (* seconds at nominal frequency *)
  r_memory : float;  (* seconds; DRAM-bound part is frequency-insensitive *)
  r_fixed : float;  (* fork/join etc. *)
  r_cv : Ft_flags.Cv.t;
  r_decision : Decision.t;
  r_vectorized : bool;
  r_code_aligned : bool;
}

let shares (f : Feature.t) =
  let total = Feature.bytes_per_iter f in
  if total <= 0.0 then (0.0, 0.0)
  else (f.Feature.gather_bytes /. total, f.Feature.strided_bytes /. total)

let raw_region ~(arch : Arch.t) ~scale ~steps (r : Linker.region) =
  let u = r.Linker.cunit in
  let d = r.Linker.final in
  let f = Loop.features_at ~scale u.Cunit.loop in
  let gshare, sshare = shares f in
  let lanes = float_of_int (Decision.lanes d.Decision.width) in
  let vectorized = d.Decision.width <> Decision.Scalar in
  let unroll = float_of_int d.Decision.unroll in
  let iters = f.Feature.trip_count *. f.Feature.invocations *. float_of_int steps in
  let freq_hz = arch.Arch.freq_ghz *. 1e9 in
  (* --- compute component ------------------------------------------- *)
  let both_path =
    (* Masked SIMD touches both branch paths' work and data; scalar cmov
       conversion only straightens the assignments, so its tax is
       smaller. *)
    if d.Decision.if_converted && f.Feature.divergence > 0.0 then
      if vectorized then 1.0 +. (0.55 *. f.Feature.divergence)
      else 1.0 +. (0.25 *. f.Feature.divergence)
    else 1.0
  in
  let work_flops = f.Feature.flops_per_iter *. d.Decision.redundancy *. both_path in
  let fma_eff =
    if d.Decision.fma_used then 1.0 +. (0.6 *. f.Feature.fma_fraction) else 1.0
  in
  let eff_lanes =
    if not vectorized then 1.0
    else
      (* Gathers and shuffles cost one extra op per extra lane; mask
         bookkeeping for divergent control flow grows superlinearly with
         width (wider masks, more blend/permute pressure) — this is what
         makes 256-bit code on divergent kernels lose to scalar even though
         128-bit code may break even (paper §4.4, observation 1). *)
      let linear = lanes -. 1.0 in
      let mask_growth = linear ** 1.5 in
      let hostility =
        (gshare *. arch.Arch.gather_cost *. linear)
        +. (sshare *. arch.Arch.strided_cost *. linear)
        +. (f.Feature.divergence *. arch.Arch.mask_cost *. mask_growth)
      in
      lanes /. (1.0 +. hostility)
  in
  let throughput_cycles =
    work_flops
    /. (arch.Arch.issue_flops *. fma_eff *. eff_lanes)
    /. (d.Decision.sched_quality *. d.Decision.isel_quality)
  in
  let latency_cycles =
    if f.Feature.dep_chain <= 0.0 then 0.0
    else if f.Feature.reduction then
      f.Feature.dep_chain *. arch.Arch.fp_latency
      /. (unroll *. lanes *. d.Decision.sched_quality)
    else
      f.Feature.dep_chain *. arch.Arch.fp_latency *. 0.9
      /. d.Decision.sched_quality
  in
  let core_cycles = Float.max throughput_cycles latency_cycles in
  let mispredict_cycles =
    if d.Decision.if_converted || f.Feature.divergence <= 0.0 then 0.0
    else
      f.Feature.divergence
      *. (1.0 -. f.Feature.branch_predictability)
      *. arch.Arch.mispredict_cycles
      *. if d.Decision.profile_guided then 0.75 else 1.0
  in
  let spill_cycles = d.Decision.spills *. 3.0 in
  let call_cycles = f.Feature.calls_per_iter *. 12.0 in
  let loop_overhead = 2.0 /. (unroll *. lanes) in
  (* Software prefetches occupy issue slots: a small compute-side tax that
     makes maximal prefetch levels a real trade-off for compute-bound
     loops. *)
  let prefetch_overhead = 0.15 *. float_of_int d.Decision.prefetch in
  let remainder_waste =
    let w = unroll *. lanes /. (2.0 *. f.Feature.trip_count) in
    if d.Decision.profile_guided then 0.25 *. w else w
  in
  let tiling_overhead = if d.Decision.tiled then 1.03 else 1.0 in
  let cycles_per_iter =
    (core_cycles +. mispredict_cycles +. spill_cycles +. call_cycles
   +. loop_overhead +. prefetch_overhead)
    *. (1.0 +. remainder_waste)
    *. tiling_overhead
  in
  let capacity =
    if f.Feature.parallel then Arch.effective_cores arch else 1.0
  in
  let compute_s = iters *. cycles_per_iter /. (freq_hz *. capacity) in
  (* --- memory component -------------------------------------------- *)
  let ws_kb = f.Feature.working_set_kb in
  let per_thread_kb = ws_kb /. float_of_int arch.Arch.omp_threads in
  let llc_total_kb =
    arch.Arch.llc_kb_per_socket *. float_of_int arch.Arch.sockets
  in
  let dram_resident = ws_kb > llc_total_kb in
  let write_factor =
    if f.Feature.write_bytes <= 0.0 then 1.0
    else if d.Decision.streaming then
      if dram_resident then 1.0 (* no read-for-ownership *)
      else 1.35 (* bypassed a cache-resident set: forced reloads *)
    else 1.35
  in
  let reload_penalty =
    if d.Decision.streaming && not dram_resident then f.Feature.write_bytes
    else 0.0
  in
  let traffic_per_iter =
    (f.Feature.read_bytes +. f.Feature.strided_bytes +. f.Feature.gather_bytes
   +. (f.Feature.write_bytes *. write_factor)
   +. reload_penalty)
    *. both_path
  in
  let traffic_total = iters *. traffic_per_iter in
  let dram_traffic, llc_traffic, l2_traffic =
    if per_thread_kb <= arch.Arch.l2_kb then (0.0, 0.0, traffic_total)
    else if not dram_resident then (0.0, traffic_total, 0.0)
    else if d.Decision.tiled then
      (0.45 *. traffic_total, 0.55 *. traffic_total, 0.0)
    else (traffic_total, 0.0, 0.0)
  in
  let prefetch_util =
    let level = float_of_int d.Decision.prefetch in
    let base = 0.83 +. (0.01 *. level) in
    let base = Ft_util.Stats.clamp ~lo:0.3 ~hi:0.87 base in
    let base =
      if gshare > 0.3 then base *. (0.45 +. (0.012 *. level)) else base
    in
    let base =
      if d.Decision.prefetch_far then
        if dram_resident && d.Decision.prefetch > 0 then base +. 0.02
        else base -. 0.05
      else base
    in
    Ft_util.Stats.clamp ~lo:0.2 ~hi:0.88 base
  in
  let dram_bw_gbs =
    if f.Feature.parallel then Arch.aggregate_dram_gbs arch *. prefetch_util
    else
      arch.Arch.dram_gbs_per_socket *. arch.Arch.serial_bw_fraction
      *. prefetch_util
  in
  let llc_bw_gbs =
    if f.Feature.parallel then arch.Arch.llc_gbs
    else arch.Arch.llc_gbs /. float_of_int arch.Arch.omp_threads *. 2.0
  in
  let l2_bw_bytes_per_s =
    arch.Arch.l2_bytes_per_cycle *. freq_hz
    *. if f.Feature.parallel then Arch.effective_cores arch else 1.0
  in
  let memory_s =
    (dram_traffic /. (dram_bw_gbs *. 1e9))
    +. (llc_traffic /. (llc_bw_gbs *. 1e9))
    +. (l2_traffic /. l2_bw_bytes_per_s)
  in
  (* --- fixed component --------------------------------------------- *)
  let fixed_s =
    if f.Feature.parallel then
      f.Feature.invocations *. float_of_int steps *. arch.Arch.barrier_us
      *. 1e-6
    else 0.0
  in
  {
    r_name = u.Cunit.region_name;
    r_compute = compute_s;
    r_memory = memory_s;
    r_fixed = fixed_s;
    r_cv = u.Cunit.cv;
    r_decision = d;
    r_vectorized = vectorized;
    r_code_aligned = d.Decision.code_aligned;
  }

let nominal_seconds r = Float.max r.r_compute r.r_memory +. r.r_fixed

let evaluate ~(arch : Arch.t) ~(input : Input.t) (binary : Linker.binary) =
  let program = binary.Linker.program in
  let scale = Input.scale ~reference:program.Program.reference_size input in
  let steps = input.Input.steps in
  let raw_nonloop = raw_region ~arch ~scale ~steps binary.Linker.nonloop in
  let raw_loops =
    List.map (raw_region ~arch ~scale ~steps) binary.Linker.regions
  in
  let all = raw_nonloop :: raw_loops in
  (* Coupling 1: AVX-256 frequency license. *)
  let total_nominal =
    List.fold_left (fun acc r -> acc +. nominal_seconds r) 0.0 all
  in
  let share_256 =
    if total_nominal <= 0.0 then 0.0
    else
      List.fold_left
        (fun acc r ->
          if r.r_decision.Decision.width = Decision.W256 then
            acc +. nominal_seconds r
          else acc)
        0.0 all
      /. total_nominal
  in
  let freq_factor = 1.0 -. (arch.Arch.avx256_throttle *. share_256) in
  (* Coupling 2: aggregate hot-code footprint vs the i-cache. *)
  let code_bytes =
    float_of_int binary.Linker.total_code_bytes
    *. if binary.Linker.layout_hot then 0.85 else 1.0
  in
  let overflow =
    Float.max 0.0 ((code_bytes /. (arch.Arch.icache_kb *. 1024.0)) -. 1.0)
  in
  let icache_mult = 1.0 +. (0.06 *. Float.min 2.0 overflow) in
  (* Coupling 3: shared-array padding decided by the non-loop module. *)
  let padded = binary.Linker.data_padded in
  let quirks =
    Quirk.table ~platform:arch.Arch.platform ~program:program.Program.name
  in
  let finalize r =
    let align_c = if padded && r.r_vectorized then 0.992 else 1.0 in
    let align_c = if r.r_code_aligned then align_c *. 0.995 else align_c in
    (* Padding aligns vector streams but wastes line/TLB capacity. *)
    let align_m =
      if padded then if r.r_vectorized then 0.985 else 1.015 else 1.0
    in
    let compute =
      r.r_compute *. icache_mult *. align_c *. binary.Linker.link_luck
      /. freq_factor
    in
    let memory = r.r_memory *. align_m in
    let quirk = Quirk.lookup quirks ~region:r.r_name r.r_cv in
    let caliper_mult =
      if binary.Linker.instrumented && r.r_name <> raw_nonloop.r_name then
        1.02
      else 1.0
    in
    let seconds =
      (Float.max compute memory +. r.r_fixed) *. quirk *. caliper_mult
    in
    {
      name = r.r_name;
      seconds;
      compute_s = compute;
      memory_s = memory;
      width = r.r_decision.Decision.width;
      decision = r.r_decision;
    }
  in
  let nonloop = finalize raw_nonloop in
  let loops = List.map finalize raw_loops in
  let total_s =
    List.fold_left (fun acc r -> acc +. r.seconds) nonloop.seconds loops
  in
  { total_s; nonloop; loops; freq_factor; icache_mult }

type measurement = {
  elapsed_s : float;
  region_samples : (string * float) list;
}

type summary = {
  sum_total_s : float;
  sum_nonloop_s : float;
  sum_loops : (string * float) list;
}

let summarize run =
  {
    sum_total_s = run.total_s;
    sum_nonloop_s = run.nonloop.seconds;
    sum_loops = List.map (fun r -> (r.name, r.seconds)) run.loops;
  }

let output_signature s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "%h:%h" s.sum_total_s s.sum_nonloop_s);
  List.iter
    (fun (name, seconds) ->
      Buffer.add_string buf (Printf.sprintf ":%s=%h" name seconds))
    s.sum_loops;
  Rng.hash_string (Buffer.contents buf)

let lognormal rng ~sigma =
  exp (Rng.gauss rng ~mu:0.0 ~sigma)

let sample ~rng ~instrumented s =
  let noisy_loops =
    List.map
      (fun (name, seconds) -> (name, seconds *. lognormal rng ~sigma:0.01))
      s.sum_loops
  in
  let noisy_nonloop = s.sum_nonloop_s *. lognormal rng ~sigma:0.01 in
  let elapsed_s =
    List.fold_left (fun acc (_, t) -> acc +. t) noisy_nonloop noisy_loops
  in
  let region_samples = if instrumented then noisy_loops else [] in
  { elapsed_s; region_samples }

let measure ~arch ~input ~rng binary =
  sample ~rng
    ~instrumented:binary.Ft_compiler.Linker.instrumented
    (summarize (evaluate ~arch ~input binary))
