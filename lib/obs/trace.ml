type clock = Wall | Logical

let clock_name = function Wall -> "wall" | Logical -> "logical"

let clock_of_name = function
  | "wall" -> Some Wall
  | "logical" -> Some Logical
  | _ -> None

type stamped = {
  serial : int;
  job : int;
  seq : int;
  ts : int;
  event : Event.t;
}

type shard = { lock : Mutex.t; mutable events : stamped list }

let shard_count = 16 (* power of two: sharded by domain id, below *)

type t = {
  clock : clock;
  keep : bool;  (* false: a counting-only sink *)
  counters : Counters.t Atomic.t;
  t0 : int;  (* wall microseconds at creation: the [Wall] epoch *)
  next_serial : int Atomic.t;
  shards : shard array;
}

(* Whole microseconds on the wall clock: [gettimeofday]'s resolution, so
   the integer loses nothing and exports without float printing. *)
let wall_us () = int_of_float (Ft_util.Clock.wall () *. 1e6)

let make ~clock ~keep =
  {
    clock;
    keep;
    counters = Atomic.make Counters.zero;
    t0 = wall_us ();
    next_serial = Atomic.make 0;
    shards =
      (if keep then
         Array.init shard_count (fun _ ->
             { lock = Mutex.create (); events = [] })
       else [||]);
  }

let create ?(clock = Wall) () = make ~clock ~keep:true
let counting () = make ~clock:Wall ~keep:false
let clock t = t.clock
let counters t = Atomic.get t.counters

(* The active job scope of the current domain: (batch serial, job index,
   per-job event counter).  Pool workers process jobs sequentially, so a
   plain domain-local slot (saved/restored around each job) suffices. *)
let job_scope : (int * int * int ref) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let own_shard t = t.shards.((Domain.self () :> int) land (shard_count - 1))

let record_stamped t st =
  let shard = own_shard t in
  Mutex.protect shard.lock (fun () -> shard.events <- st :: shard.events)

(* In-job events are batched in a domain-local buffer and drained into
   the domain's shard under a single mutex acquisition — at job exit
   ({!in_job}'s finally, which runs in the recording domain, so a pool
   join can never observe an undrained job), at [flush_threshold], or
   when the domain switches traces.  Per-event locking remains only for
   out-of-job emissions, which are rare by construction. *)

let flush_threshold = 512

type pending_buf = {
  tr : t;
  mutable buffered : stamped list;  (* newest first, like a shard *)
  mutable count : int;
}

let pending : pending_buf option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let drain_buf b =
  match b.buffered with
  | [] -> ()
  | evs ->
      b.buffered <- [];
      b.count <- 0;
      let shard = own_shard b.tr in
      Mutex.protect shard.lock (fun () -> shard.events <- evs @ shard.events)

let drain_pending () =
  match Domain.DLS.get pending with
  | None -> ()
  | Some b ->
      drain_buf b;
      Domain.DLS.set pending None

let record_buffered t st =
  match Domain.DLS.get pending with
  | Some b when b.tr == t ->
      b.buffered <- st :: b.buffered;
      b.count <- b.count + 1;
      if b.count >= flush_threshold then drain_buf b
  | other ->
      (match other with Some b -> drain_buf b | None -> ());
      Domain.DLS.set pending (Some { tr = t; buffered = [ st ]; count = 1 })

(* Flush this domain's buffer when the caller is about to read [t]'s
   shards directly (insurance for readers inside a job scope). *)
let flush_local t =
  match Domain.DLS.get pending with
  | Some b when b.tr == t -> drain_buf b
  | _ -> ()

let now t = match t.clock with Wall -> wall_us () - t.t0 | Logical -> 0

let record t event =
  match Domain.DLS.get job_scope with
  | Some (batch, index, counter) ->
      let s = !counter in
      incr counter;
      record_buffered t { serial = batch; job = index; seq = s; ts = now t; event }
  | None ->
      let serial = Atomic.fetch_and_add t.next_serial 1 in
      record_stamped t { serial; job = -1; seq = 0; ts = now t; event }

(* -- the emit point ----------------------------------------------------- *)

let project clock event =
  match (clock, event) with
  | Wall, e -> Some e
  (* Which racing worker takes the miss is scheduling, not search. *)
  | Logical, (Event.Cache_hit { key } | Event.Cache_miss { key }) ->
      Some (Event.Cache_query { key })
  (* Wall-only schedule detail: who performed the build, inserted the
     quarantine entry, crashed or saved the snapshot, and for how long. *)
  | ( Logical,
      ( Event.Build_done _ | Event.Run_done _ | Event.Timer _
      | Event.Checkpoint_saved _ | Event.Checkpoint_loaded _
      | Event.Quarantine_added _ | Event.Worker_crashed _ ) ) ->
      None
  | Logical, e -> Some e

(* Publish [fold] of the current counters with one CAS, retried only
   when another domain published in between. *)
let rec count t fold =
  let c = Atomic.get t.counters in
  let c' = fold c in
  if c' != c && not (Atomic.compare_and_set t.counters c c') then count t fold

(* Every event enters a sink here: folded into the counters at its full
   (wall-level) detail, then buffered as the clock's projection of it. *)
let emit t event =
  count t (fun c -> Counters.step c event);
  if t.keep then Option.iter (record t) (project t.clock event)

let epoch t = t.t0

(* A worker's shadow stamps already carry the canonical (serial, job,
   seq) key — the parent allocated the batch serial before forking — so
   replay is order-free; only wall timestamps need rebasing from the
   shadow's epoch onto ours (logical stamps are 0).  A whole shipment is
   one step for the sink: its events fold into one counters value,
   published with one CAS, and its projections land under one lock. *)
let replay t ~epoch:e0 stamps =
  count t (fun c ->
      List.fold_left (fun c st -> Counters.step c st.event) c stamps);
  if t.keep then begin
    let dt = e0 - t.t0 in
    let projected =
      List.fold_left
        (fun acc st ->
          match project t.clock st.event with
          | None -> acc
          | Some event ->
              let ts = match t.clock with Wall -> st.ts + dt | Logical -> 0 in
              { st with ts; event } :: acc)
        [] stamps
    in
    let shard = own_shard t in
    Mutex.protect shard.lock (fun () ->
        shard.events <- List.rev_append projected shard.events)
  end

let events t =
  flush_local t;
  let all =
    Array.fold_left
      (fun acc shard ->
        List.rev_append (Mutex.protect shard.lock (fun () -> shard.events)) acc)
      [] t.shards
  in
  List.sort
    (fun a b ->
      match compare a.serial b.serial with
      | 0 -> (
          match compare a.job b.job with
          | 0 -> compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let length t =
  flush_local t;
  Array.fold_left
    (fun acc shard ->
      acc + Mutex.protect shard.lock (fun () -> List.length shard.events))
    0 t.shards

(* -- structure --------------------------------------------------------- *)

let batch t ~size =
  if not t.keep then 0
  else begin
    let serial = Atomic.fetch_and_add t.next_serial 1 in
    (* job = -1 sorts the submission record ahead of the batch's jobs. *)
    record_stamped t
      {
        serial;
        job = -1;
        seq = 0;
        ts = now t;
        event = Event.Batch_submitted { size };
      };
    serial
  end

let in_job t ~batch ~index f =
  if not t.keep then f ()
  else begin
    let saved = Domain.DLS.get job_scope in
    Domain.DLS.set job_scope (Some (batch, index, ref 0));
    Fun.protect
      ~finally:(fun () ->
        (* Drain before the scope closes: this runs in the recording
           domain, so every in-job event is in its shard before the
           pool can join the batch and a reader can ask for it. *)
        drain_pending ();
        Domain.DLS.set job_scope saved)
      f
  end

let span t phase f =
  emit t (Event.Phase_begin { phase });
  Fun.protect ~finally:(fun () -> emit t (Event.Phase_end { phase })) f

(* Durations are kept to whole nanoseconds, the grain the counters sum
   them in, so the exported seconds print in 15 digits or fewer. *)
let time t name f =
  let t0 = Ft_util.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let ns = Float.round ((Ft_util.Clock.now () -. t0) *. 1e9) in
      emit t (Event.Timer { name; seconds = ns /. 1e9 }))
    f

(* -- resume-invariant normalization ------------------------------------ *)

(* Project an event onto the resume-invariant skeleton (see the .mli for
   the rule-by-rule rationale), or [None] to drop it: the logical
   projection, minus the resume boundary and the server's traffic. *)
let normalize_event event =
  match project Logical event with
  (* The documented resume boundary: a key whose fault verdict was
     snapshotted replays as one Quarantine_hit instead of the original
     Fault_injected/Retry sequence — same verdict, different evidence. *)
  | Some (Event.Fault_injected _ | Event.Retry _ | Event.Quarantine_hit _) ->
      None
  (* Server request-lifecycle events are live-traffic facts (arrival
     order, coalescing, queue depth), not search facts: a resumed search
     owes them nothing, so they are outside the invariant skeleton. *)
  | Some
      ( Event.Request_received _ | Event.Request_admitted _
      | Event.Request_coalesced _ | Event.Request_cached _
      | Event.Request_rejected _ | Event.Group_started _
      | Event.Group_finished _ | Event.Group_cancelled _
      | Event.Request_expired _ | Event.Request_replayed _
      | Event.Server_recovered _ ) ->
      None
  | projected -> projected

let normalized_lines ?(is_quarantined = fun _ -> false) t =
  List.filter_map
    (fun st ->
      match normalize_event st.event with
      | None -> None
      (* A key that ends the run quarantined only queried the cache on the
         runs that derived its verdict the hard way (fresh fault path),
         never on the runs that replayed the verdict from a snapshot —
         the one cache-query asymmetry resume can produce.  The verdict
         itself stays: its Job_finished outcome must and does agree. *)
      | Some (Event.Cache_query { key }) when is_quarantined key -> None
      | Some e ->
          Some
            (Json.to_string
               (Json.Obj (("ev", Json.String (Event.name e)) :: Event.fields e))))
    (events t)
