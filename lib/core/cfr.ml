module Rng = Ft_util.Rng

let default_top_x = 20

let pruned_pools ?(top_x = default_top_x) (collection : Collection.t) =
  Array.to_list collection.Collection.modules
  |> List.map (fun m -> (m, Collection.top_k_for collection m top_x))

let traced_pruned_pools ?top_x (ctx : Context.t) collection =
  let trace = Context.trace ctx in
  Ft_obs.Trace.span trace Ft_obs.Event.Prune (fun () ->
      let pools = pruned_pools ?top_x collection in
      List.iter
        (fun (m, pool) ->
          Ft_obs.Trace.emit trace
            (Ft_obs.Event.Prune_kept
               { module_name = m; kept = Array.length pool }))
        pools;
      pools)

let run ?(top_x = default_top_x) (ctx : Context.t)
    (collection : Collection.t) =
  let pools = traced_pruned_pools ~top_x ctx collection in
  (* Line 15: re-sample each module's CV inside its pruned space. *)
  Fr.search_assignments ctx collection.Collection.outline ~algorithm:"CFR"
    ~label:"cfr" ~draw:(fun rng ->
      List.map (fun (m, pool) -> (m, Rng.choose rng pool)) pools)
