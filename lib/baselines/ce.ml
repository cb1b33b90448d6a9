module Flag = Ft_flags.Flag
module Cv = Ft_flags.Cv
module Exec = Ft_machine.Exec
module Toolchain = Ft_machine.Toolchain
module Fault = Ft_fault.Fault

type step = { eliminated : Flag.id; rip : float }

type t = {
  algorithm : string;
  cv : Cv.t;
  seconds : float;
  speedup : float;
  steps : step list;
  evaluations : int;
  failures : int;
}

(* Shared measurement state for all three algorithms. *)
type env = {
  toolchain : Toolchain.t;
  program : Ft_prog.Program.t;
  input : Ft_prog.Input.t;
  rng : Ft_util.Rng.t;
  faults : Fault.t option;
  mutable evaluations : int;
  mutable failures : int;
}

(* CE predates fault-tolerant tuning frameworks, and its reproduction here
   deliberately has no retry/quarantine layer: a configuration that fails
   to build, crashes, hangs or miscompiles simply yields no measurement
   ([None]) and can never look like an improvement.  That asymmetry — the
   engine-backed searches recover, the baseline just loses evaluations —
   is part of what the faults experiment measures. *)
let measure env cv =
  env.evaluations <- env.evaluations + 1;
  let faulted =
    match env.faults with
    | None -> false
    | Some f ->
        let key =
          "ce:" ^ env.program.Ft_prog.Program.name ^ ":" ^ Cv.to_compact cv
        in
        Fault.ice f ~program:env.program.Ft_prog.Program.name
          ~module_name:"<whole-program>" cv
        || Fault.run_fault f ~key ~attempt:0 <> Fault.Run_ok
  in
  if faulted then begin
    env.failures <- env.failures + 1;
    None
  end
  else
    let binary = Toolchain.compile_uniform env.toolchain ~cv env.program in
    Some
      (Exec.measure ~arch:env.toolchain.Toolchain.arch ~input:env.input
         ~rng:env.rng binary)
        .Exec.elapsed_s

let rip_of env bits current_s id =
  let trial = Array.copy bits in
  trial.(Flag.index id) <- false;
  match measure env (Cv.of_bits trial) with
  | Some s -> Some (s, (s -. current_s) /. current_s)
  | None -> None

let finish env ~algorithm ~bits ~steps =
  let baseline_o3 =
    Ft_caliper.Profiler.baseline_seconds ~toolchain:env.toolchain
      ~program:env.program ~input:env.input
  in
  let cv = Cv.of_bits bits in
  let binary = Toolchain.compile_uniform env.toolchain ~cv env.program in
  let seconds =
    (Exec.evaluate ~arch:env.toolchain.Toolchain.arch ~input:env.input binary)
      .Exec.total_s
  in
  {
    algorithm;
    cv;
    seconds;
    speedup = baseline_o3 /. seconds;
    steps = List.rev steps;
    evaluations = env.evaluations;
    failures = env.failures;
  }

let make_env ~toolchain ~program ~input ~rng ~faults =
  { toolchain; program; input; rng; faults; evaluations = 0; failures = 0 }

let on_flags bits =
  Array.to_list Flag.all |> List.filter (fun id -> bits.(Flag.index id))

let run_batch ?faults ?(trace = Ft_obs.Trace.counting ()) ~toolchain ~program
    ~input ~rng () =
  Ft_obs.Trace.span trace Ft_obs.Event.Search @@ fun () ->
  let env = make_env ~toolchain ~program ~input ~rng ~faults in
  let bits = Array.make Flag.count true in
  match measure env (Cv.of_bits bits) with
  | None ->
      (* The all-on baseline itself faulted: there is nothing to compare
         RIPs against, so no flag can be eliminated. *)
      finish env ~algorithm:"BE" ~bits ~steps:[]
  | Some base_s ->
      let steps =
        on_flags bits
        |> List.filter_map (fun id ->
               match rip_of env bits base_s id with
               | Some (_, rip) when rip < 0.0 ->
                   Some { eliminated = id; rip }
               | Some _ | None -> None)
      in
      List.iter (fun s -> bits.(Flag.index s.eliminated) <- false) steps;
      finish env ~algorithm:"BE" ~bits ~steps:(List.rev steps)

let eliminate ~algorithm ~refine ?faults ?(trace = Ft_obs.Trace.counting ())
    ~toolchain ~program ~input
    ~rng () =
  Ft_obs.Trace.span trace Ft_obs.Event.Search @@ fun () ->
  let env = make_env ~toolchain ~program ~input ~rng ~faults in
  let bits = Array.make Flag.count true in
  match measure env (Cv.of_bits bits) with
  | None -> finish env ~algorithm ~bits ~steps:[]
  | Some base_s ->
      let current_s = ref base_s in
      let steps = ref [] in
      let continue = ref true in
      while !continue do
        (* RIPs of all remaining flags against the current baseline;
           unmeasurable candidates (injected faults) drop out here. *)
        let candidates =
          on_flags bits
          |> List.filter_map (fun id ->
                 match rip_of env bits !current_s id with
                 | Some (s, rip) when rip < 0.0 -> Some (id, s, rip)
                 | Some _ | None -> None)
          |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
        in
        match candidates with
        | [] -> continue := false
        | (first, s, rip) :: rest ->
            bits.(Flag.index first) <- false;
            current_s := s;
            steps := { eliminated = first; rip } :: !steps;
            if refine then
              (* ...then re-try the other candidates against the *updated*
                 baseline within the same iteration (the "combined"
                 part). *)
              List.iter
                (fun (id, _, _) ->
                  match rip_of env bits !current_s id with
                  | Some (s', rip') when rip' < 0.0 ->
                      bits.(Flag.index id) <- false;
                      current_s := s';
                      steps := { eliminated = id; rip = rip' } :: !steps
                  | Some _ | None -> ())
                rest
      done;
      finish env ~algorithm ~bits ~steps:!steps

let run_iterative ?faults ?trace ~toolchain ~program ~input ~rng () =
  eliminate ~algorithm:"IE" ~refine:false ?faults ?trace ~toolchain ~program
    ~input ~rng ()

let run ?faults ?trace ~toolchain ~program ~input ~rng () =
  eliminate ~algorithm:"CE" ~refine:true ?faults ?trace ~toolchain ~program
    ~input ~rng ()
