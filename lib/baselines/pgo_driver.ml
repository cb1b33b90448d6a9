module Toolchain = Ft_machine.Toolchain
module Exec = Ft_machine.Exec
module Pgo = Ft_compiler.Pgo

type t = {
  succeeded : bool;
  diagnostic : string option;
  seconds : float;
  speedup : float;
}

let tuned_binary ~toolchain ~program ~input =
  match Pgo.collect ~program ~input with
  | Error _ -> Toolchain.compile_uniform toolchain ~cv:Ft_flags.Cv.o3 program
  | Ok db ->
      Toolchain.compile_uniform toolchain ~pgo:(Some db) ~cv:Ft_flags.Cv.o3
        program

let run ?(trace = Ft_obs.Trace.counting ()) ~toolchain ~program ~input ~rng () =
  Ft_obs.Trace.span trace Ft_obs.Event.Search @@ fun () ->
  let baseline =
    Ft_caliper.Profiler.baseline_seconds ~toolchain ~program ~input
  in
  let succeeded, diagnostic =
    match Pgo.collect ~program ~input with
    | Ok _ -> (true, None)
    | Error msg -> (false, Some msg)
  in
  let binary = tuned_binary ~toolchain ~program ~input in
  let seconds =
    (Exec.measure ~arch:toolchain.Toolchain.arch ~input ~rng binary)
      .Exec.elapsed_s
  in
  { succeeded; diagnostic; seconds; speedup = baseline /. seconds }
