module Exec = Ft_machine.Exec
module Engine = Ft_engine.Engine
module Rng = Ft_util.Rng

let run (ctx : Context.t) =
  let rng = Context.stream ctx "random" in
  let batch =
    Array.mapi
      (fun i cv ->
        {
          Engine.build = Engine.Uniform { cv; instrumented = false };
          rng = Rng.of_label rng (string_of_int i);
        })
      ctx.Context.pool
  in
  let engine = ctx.Context.engine in
  let outcomes =
    Ft_obs.Trace.span (Engine.trace engine) Ft_obs.Event.Search (fun () ->
        Ft_obs.Trace.time (Engine.trace engine) "random" (fun () ->
            Engine.try_measure_batch engine ~toolchain:ctx.Context.toolchain
              ~program:ctx.Context.program ~input:ctx.Context.input batch))
  in
  let times =
    Array.map
      (function Engine.Ok m -> m.Exec.elapsed_s | _ -> Float.infinity)
      outcomes
  in
  let best = Ft_util.Stats.argmin times in
  (* Every pool CV faulting leaves nothing to pick: fall back to O3, the
     build the user already had. *)
  let winner =
    if Float.is_finite times.(best) then ctx.Context.pool.(best)
    else Ft_flags.Cv.o3
  in
  Result.make ~algorithm:"Random"
    ~configuration:(Result.Whole_program winner)
    ~baseline_s:ctx.Context.baseline_s
    ~evaluations:(Array.length times)
    ~trace:(Result.best_so_far (Array.to_list times))
    ~best_seconds:(Context.evaluate_uniform ctx winner)
