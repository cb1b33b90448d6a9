(** Which execution substrate runs a batch of engine jobs.

    [Domains] (the default) is the original shared-memory {!Pool}: jobs
    run on OCaml 5 domains inside the engine's process, sharing its
    cache, quarantine and event sink directly.  [Processes] runs
    each batch on a fixed-size {!Procpool} of [--jobs] forked workers: a
    crashing or leaking evaluation takes down only its worker, never the
    search — the failure surfaces as a typed
    {!Engine.job_outcome.Worker_crashed} and flows through the engine's
    retry/quarantine machinery.  [Sharded] is a spelling of [Processes]
    sized by [--nodes] instead of [--jobs]: the same pool, the same wire
    frames, the same crash handling.  All backends compute bit-identical
    results (and byte-identical logical-clock traces): the choice trades
    isolation and address-space hygiene against fork/IPC overhead, never
    outcomes. *)

type t = Domains | Processes | Sharded

val default : t
(** [Domains] — single-process, so all historical output is unchanged. *)

val all : t list

val to_name : t -> string
(** ["domains"] / ["processes"] / ["sharded"] (the [--backend]
    spelling). *)

val of_name : string -> t option
