(** Compatibility shim for the [--backend sharded] entry points.

    [--backend sharded] is a spelling of [--backend processes]: the
    engine runs both on {!Ft_engine.Procpool}, sized by [--nodes] and
    [--jobs] respectively.  This library survives only so that existing
    callers of [Shard.map] and [Shard.install] keep linking; new code
    should call {!Ft_engine.Procpool.map} directly. *)

val map :
  nodes:int ->
  ?on_result:(int -> ('b, Ft_engine.Procpool.failure) result -> unit) ->
  ?kill_first_node_after:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, Ft_engine.Procpool.failure) result array
(** [map ~nodes f a] is [Ft_engine.Procpool.map ~workers:nodes f a];
    [kill_first_node_after] is the pool's [kill_first_worker_after].
    @raise Invalid_argument if [nodes < 1]. *)

val install : unit -> unit
(** Does nothing: the engine reaches the forked-worker pool directly, so
    there is nothing left to register. *)
