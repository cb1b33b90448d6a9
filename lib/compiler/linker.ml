open Ft_prog
module Rng = Ft_util.Rng
module Cv = Ft_flags.Cv

type region = { cunit : Cunit.t; final : Decision.t }

type binary = {
  program : Program.t;
  target : Target.t;
  nonloop : region;
  regions : region list;
  uniform : bool;
  data_padded : bool;
  layout_hot : bool;
  total_code_bytes : int;
  link_luck : float;
  instrumented : bool;
}

(* Keyed on the *object code* (decision records), not the flag spelling:
   two CVs producing identical per-module decisions link identically. *)
let assignment_fingerprint units =
  List.fold_left
    (fun acc (u : Cunit.t) ->
      let h = Decision.hash u.Cunit.decision in
      (acc * 1000003) + h + Rng.hash_string u.Cunit.region_name)
    5381 units

(* Link-time perturbation of one region's decision.  Drawn from a stream
   seeded by (program, region, whole-assignment fingerprint): deterministic
   per assembled binary, different across assignments.  The seed is the
   hash of ["lto:<program>:<region>:<fingerprint>"], streamed: [lto] is the
   FNV state of ["lto:<program>:"] and [fp] the fingerprint's decimal
   digits, both computed once per link. *)
let perturb ~(target : Target.t) ~lto ~fp (u : Cunit.t) =
  let d = u.Cunit.decision in
  let f = u.Cunit.loop.Loop.features in
  let seed = Rng.(fnv_feed (fnv_feed lto u.Cunit.region_name) ":") in
  let rng = Rng.(create (fnv_finish (fnv_feed seed fp))) in
  let x = Rng.float rng 1.0 in
  if x < 0.30 then d
  else if x < 0.48 then
    (* Re-vectorize at full width with whole-program dependence info. *)
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
  else
    (* Cross-module register allocation degrades the schedule. *)
    { d with Decision.sched_quality = d.Decision.sched_quality *. 0.85 }

let mismatch () =
  invalid_arg "Linker.link: units do not match the program's regions"

let link ~target ~(program : Program.t) ?(instrumented = false) units =
  (* [Program.make] guarantees distinct region names, so equal lengths plus
     finding every region below is multiset equality.  Regions are looked
     up in program order, which is the order [Cunit.compile_program] emits
     units in: the next unit is tried first, a permuted list falls back to
     a search. *)
  if List.length units <> 1 + List.length program.Program.loops then
    mismatch ();
  let next = ref units in
  let find name =
    match !next with
    | (u : Cunit.t) :: rest when String.equal u.Cunit.region_name name ->
        next := rest;
        u
    | _ -> (
        match
          List.find_opt
            (fun (u : Cunit.t) -> String.equal u.Cunit.region_name name)
            units
        with
        | Some u -> u
        | None -> mismatch ())
  in
  let uniform =
    match units with
    | [] -> true
    | (u0 : Cunit.t) :: rest ->
        let cv0 = u0.Cunit.cv in
        List.for_all
          (fun (u : Cunit.t) -> u.Cunit.cv == cv0 || Cv.equal u.Cunit.cv cv0)
          rest
  in
  let perturbed =
    (not uniform) && List.exists (fun (u : Cunit.t) -> Cv.ipo u.Cunit.cv) units
  in
  (* Only perturbed links draw from the fingerprint-seeded streams, so
     only they pay for the fingerprint. *)
  let fp =
    if perturbed then string_of_int (assignment_fingerprint units) else ""
  in
  let name = program.Program.name in
  let lto = Rng.(fnv_feed (fnv_feed (fnv_feed fnv_offset "lto:") name) ":") in
  let finalize (u : Cunit.t) =
    let final =
      if perturbed then perturb ~target ~lto ~fp u else u.Cunit.decision
    in
    { cunit = u; final }
  in
  let nonloop_unit = find program.Program.nonloop.Loop.name in
  let loop_regions =
    List.map
      (fun (l : Loop.t) -> finalize (find l.Loop.name))
      program.Program.loops
  in
  let nonloop = finalize nonloop_unit in
  let total_code_bytes =
    List.fold_left
      (fun acc r -> acc + r.final.Decision.code_bytes)
      nonloop.final.Decision.code_bytes loop_regions
  in
  let link_luck =
    if not perturbed then 1.0
    else
      let luck = Rng.(fnv_feed (fnv_feed fnv_offset "luck:") name) in
      let rng = Rng.(create (fnv_finish (fnv_feed (fnv_feed luck ":") fp))) in
      1.0 +. Float.abs (Rng.gauss rng ~mu:0.0 ~sigma:0.07)
  in
  {
    program;
    target;
    nonloop;
    regions = loop_regions;
    uniform;
    data_padded = Cv.pad_arrays nonloop_unit.Cunit.cv;
    layout_hot = Cv.code_layout nonloop_unit.Cunit.cv = Cv.Layout_hot;
    total_code_bytes;
    link_luck;
    instrumented;
  }
