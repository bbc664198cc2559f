(* The policy DSL: an Ekiben-style combinator layer over [Ghost.Abi].

   Policies built on this module are tens of lines: pick a run-queue order
   (FIFO, least-key/EDF, priority buckets), pick a scheduling template
   (centralized spinning agent vs. per-CPU agents), declare knobs, and hook
   the few decisions that are genuinely policy — everything else (message
   dispatch, dedup bookkeeping, group-commit assembly, preemption
   accounting, fastpath publication, rebuild-after-upgrade) lives here,
   written once and model-checked once (test/test_properties.ml).

   The layer is expressed strictly in terms of [Ghost.Abi]; the re-exports
   below are the only module paths a DSL policy needs, which is what the
   "dsl" ruleset of tools/abi_lint.ml enforces. *)

module Abi = Ghost.Abi
module Txn = Ghost.Txn
module Msg = Ghost.Msg
module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module Topology = Hw.Topology
module Status_word = Ghost.Status_word
module Fastpath = Fastpath
module Msg_class = Msg_class

(* --- Commit outcomes -------------------------------------------------------- *)

(* What became of a submitted transaction, pre-classified so policies match
   on scheduling-relevant cases instead of raw txn status codes. *)
module Outcome = struct
  type t =
    | Committed of { tid : int; cpu : int }
    | Gone of int  (* ENOENT: the thread died before the commit landed *)
    | Rejected of { tid : int; estale : bool }  (* retry: requeue the tid *)
    | Pending

  let of_txn (txn : Txn.t) =
    match txn.Txn.status with
    | Txn.Committed -> Committed { tid = txn.Txn.tid; cpu = txn.Txn.target_cpu }
    | Txn.Failed Txn.Enoent -> Gone txn.Txn.tid
    | Txn.Failed f -> Rejected { tid = txn.Txn.tid; estale = f = Txn.Estale }
    | Txn.Pending -> Pending
end

(* --- Declarative knobs ------------------------------------------------------- *)

(* A knob is a declared, typed parameter: the registry parses it from the
   spec string ("shinjuku?timeslice=30us"), the CLI lists it with its
   default, and resolved values auto-publish as [policy.<name>.knob.<key>]
   Obs gauges at stats-publication time. *)
module Knob = struct
  type kind = Time | Int | Bool | Float | String

  type spec = {
    key : string;
    kind : kind;
    default : Ghost_policy.value option;  (* [None] renders as "unset" *)
    doc : string;
  }

  let time key ~default doc =
    { key; kind = Time; default = Some (Ghost_policy.Int default); doc }

  let time_opt key doc = { key; kind = Time; default = None; doc }

  let int key ~default doc =
    { key; kind = Int; default = Some (Ghost_policy.Int default); doc }

  let bool key ~default doc =
    { key; kind = Bool; default = Some (Ghost_policy.Bool default); doc }

  let string key ~default doc =
    { key; kind = String; default = Some (Ghost_policy.String default); doc }

  let render_time ns =
    if ns <> 0 && ns mod 1_000_000_000 = 0 then
      Printf.sprintf "%ds" (ns / 1_000_000_000)
    else if ns <> 0 && ns mod 1_000_000 = 0 then
      Printf.sprintf "%dms" (ns / 1_000_000)
    else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
    else Printf.sprintf "%dns" ns

  let render_value spec (v : Ghost_policy.value) =
    match (spec.kind, v) with
    | Time, Ghost_policy.Int ns -> render_time ns
    | _, v -> Ghost_policy.value_to_string v

  let render_default spec =
    match spec.default with None -> "unset" | Some v -> render_value spec v
end

(* --- Ordered run-queues ------------------------------------------------------ *)

(* A growable ring of tids: the FIFO order's storage.  Unlike a linked
   [Queue], a push allocates nothing (until the ring doubles) and a scan
   walks one array. *)
module Tidq = struct
  type t = {
    mutable buf : int array;  (* length a power of two *)
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = Array.make 16 0; head = 0; len = 0 }
  let length q = q.len
  let is_empty q = q.len = 0

  let push tid q =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      let buf = Array.make (2 * cap) 0 in
      for i = 0 to q.len - 1 do
        buf.(i) <- q.buf.((q.head + i) land (cap - 1))
      done;
      q.buf <- buf;
      q.head <- 0
    end;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- tid;
    q.len <- q.len + 1

  (* Callers check [is_empty] first. *)
  let pop q =
    let tid = q.buf.(q.head) in
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    tid

  let iter f q =
    let mask = Array.length q.buf - 1 in
    for i = 0 to q.len - 1 do
      f q.buf.((q.head + i) land mask)
    done
end

(* One run-queue implementation for the whole library (the former
   [Policies.Runq] and the per-policy queue clones, folded together).

   The dedup discipline is shared by every order: {!push} ignores tids
   already queued, {!drop} only clears the dedup bit (lazy removal), and
   {!pop} validates the popped tid against the live task table — so a tid
   re-pushed after a drop may briefly appear twice, the duplicate commit
   fails EBUSY and is requeued, exactly the pre-DSL behavior.

   Stale FIFO entries therefore accumulate between pops: under the
   saturated shinjuku fastpath benchmark the class-0 FIFO holds about
   140 entries on average for about 7 live tids.  Everything that reads the
   queue's size counts them — {!length}, [Centralized.backlog], the
   [fp_publish_min] test and the adaptive [policy.adaptive.backlog] gauge —
   and the pop order they produce is part of the recorded digests (a
   stale entry pops at its old position).  Any per-pass scan ({!iter})
   must therefore cost O(1) per entry. *)
module Rq = struct
  type dedup = Tidtbl.Set.t

  let create_dedup ?size () = Tidtbl.Set.create ?size ()

  type order =
    | Fifo
    | Least of (Abi.t -> Task.t -> int)  (* min-key first; EDF with a deadline key *)

  type t = {
    order : order;
    fifo : Tidq.t;
    heap : int Minheap.t;
    queued : dedup;
    validate : Abi.t -> Task.t -> bool;
  }

  let make ?(size = 256) ?dedup ?validate order =
    {
      order;
      fifo = Tidq.create ();
      heap = Minheap.create ();
      queued = (match dedup with Some d -> d | None -> create_dedup ~size ());
      validate =
        (match validate with
        | Some v -> v
        | None -> fun _ task -> Task.is_runnable task);
    }

  let fifo ?size ?dedup ?validate () = make ?size ?dedup ?validate Fifo
  let least ?size ?dedup ?validate key = make ?size ?dedup ?validate (Least key)

  let edf ?size ?dedup ?validate deadline =
    least ?size ?dedup ?validate deadline

  let length t =
    match t.order with
    | Fifo -> Tidq.length t.fifo
    | Least _ -> Minheap.length t.heap

  let is_empty t = length t = 0

  let iter f t =
    (* Raw tids, dedup and liveness not consulted (fastpath publication
       filters with its own [task_by_tid] check). *)
    match t.order with
    | Fifo -> Tidq.iter f t.fifo
    | Least _ -> Minheap.iter f t.heap

  let mem t tid = Tidtbl.Set.mem t.queued tid

  (* Raw enqueue: no dedup check (the caller did it, e.g. {!Buckets}). *)
  let enqueue t tid =
    match t.order with
    | Fifo -> Tidq.push tid t.fifo
    | Least _ -> invalid_arg "Dsl.Rq.enqueue: keyed order needs push"

  let push t ctx tid =
    match t.order with
    | Fifo ->
      if not (Tidtbl.Set.mem t.queued tid) then begin
        Tidtbl.Set.add t.queued tid;
        Tidq.push tid t.fifo
      end
    | Least key ->
      if not (Tidtbl.Set.mem t.queued tid) then begin
        match Abi.task_by_tid ctx tid with
        | Some task ->
          Tidtbl.Set.add t.queued tid;
          Minheap.push t.heap ~key:(key ctx task) tid
        | None -> ()
      end

  let drop t tid = Tidtbl.Set.remove t.queued tid

  let rec pop t ctx =
    match t.order with
    | Fifo -> if Tidq.is_empty t.fifo then None else take t ctx (Tidq.pop t.fifo)
    | Least _ -> (
      match Minheap.pop t.heap with
      | None -> None
      | Some (_, tid) -> take t ctx tid)

  (* A popped tid: clear its dedup bit, return it if live and valid (the
     task table's own [Some] cell, no allocation), else keep popping. *)
  and take t ctx tid =
    Tidtbl.Set.remove t.queued tid;
    match Abi.task_by_tid ctx tid with
    | Some task as found when t.validate ctx task -> found
    | Some _ | None -> pop t ctx

  (* Raw keyed-entry protocol (the Search policy's revisit loop): pop the
     minimum (key, tid) without touching the dedup bit, requeue with the
     saved key.  Validation and dedup stay with the caller. *)
  let pop_entry t =
    match t.order with
    | Least _ -> Minheap.pop t.heap
    | Fifo -> invalid_arg "Dsl.Rq.pop_entry: FIFO order has no keys"

  let requeue_entry t ~key tid =
    match t.order with
    | Least _ -> Minheap.push t.heap ~key tid
    | Fifo -> invalid_arg "Dsl.Rq.requeue_entry: FIFO order has no keys"
end

(* --- Running-interval bookkeeping (timeslice rotation) ----------------------- *)

module Running = struct
  (* tid -> cpu and tid -> started_at; [cpu] says whether the tid is
     running, [started] is only read while it is. *)
  type t = { cpu : Tidtbl.Map.t; started : Tidtbl.Map.t }

  let create () = { cpu = Tidtbl.Map.create (); started = Tidtbl.Map.create () }

  let note t tid ~cpu ~at =
    Tidtbl.Map.set t.cpu tid cpu;
    Tidtbl.Map.set t.started tid at

  let forget t tid = Tidtbl.Map.remove t.cpu tid

  let over_slice t tid ~cpu ~now ~slice =
    let c = Tidtbl.Map.find t.cpu tid in
    c >= 0 && c = cpu && now - Tidtbl.Map.find t.started tid >= slice

  let forget_cpu t cpu =
    Tidtbl.Map.iter (fun tid c -> if c = cpu then Tidtbl.Map.remove t.cpu tid) t.cpu
end

(* --- Keyed bucket queues ------------------------------------------------------ *)

(* A family of FIFO run-queues keyed by an integer (per-CPU queues, per-VM
   cookie queues), sharing one dedup table so a tid lives in at most one
   bucket.  Buckets are created lazily on first touch — push, pop or even a
   length query — preserving each policy's original table layout. *)
module Buckets = struct
  type t = {
    tbl : (int, Rq.t) Hashtbl.t;
    queued : Rq.dedup;
    bucket_of : Task.t -> int;
    mk : int -> Rq.t;
  }

  let create ?(size = 16) ?(dedup_size = 256) ?validate
      ?(bucket_of = fun _ -> 0) () =
    let queued = Rq.create_dedup ~size:dedup_size () in
    let mk k =
      match validate with
      | None -> Rq.fifo ~dedup:queued ()
      | Some v -> Rq.fifo ~dedup:queued ~validate:(v k) ()
    in
    { tbl = Hashtbl.create size; queued; bucket_of; mk }

  let bucket t k =
    match Hashtbl.find_opt t.tbl k with
    | Some rq -> rq
    | None ->
      let rq = t.mk k in
      Hashtbl.replace t.tbl k rq;
      rq

  let push_to t k tid =
    (* Dedup first, bucket creation only when actually enqueueing. *)
    if not (Tidtbl.Set.mem t.queued tid) then begin
      Tidtbl.Set.add t.queued tid;
      Rq.enqueue (bucket t k) tid
    end

  let push_auto t ctx tid =
    (* Route by the task's own key ([bucket_of]); unknown tids are ignored. *)
    if not (Tidtbl.Set.mem t.queued tid) then begin
      match Abi.task_by_tid ctx tid with
      | Some task ->
        Tidtbl.Set.add t.queued tid;
        Rq.enqueue (bucket t (t.bucket_of task)) tid
      | None -> ()
    end

  let pop t ctx k = Rq.pop (bucket t k) ctx
  let len t k = Rq.length (bucket t k)
  let drop t tid = Tidtbl.Set.remove t.queued tid
  let queued_mem t tid = Tidtbl.Set.mem t.queued tid
  let fold f t acc = Hashtbl.fold f t.tbl acc

  let take t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> None
    | Some rq ->
      Hashtbl.remove t.tbl k;
      Some rq
end

(* --- Group-commit assembly ---------------------------------------------------- *)

module Commit = struct
  type t = Txn.t list ref

  let create () : t = ref []
  let pending (t : t) = !t <> []

  let add ctx (t : t) ?charge (task : Task.t) cpu =
    (match charge with None -> () | Some ns -> Abi.charge ctx ns);
    let seq = Abi.thread_seq ctx task in
    t := Abi.make_txn ctx ~tid:task.Task.tid ~target:cpu ?thread_seq:seq () :: !t

  let submit ctx (t : t) =
    if !t <> [] then begin
      let txns = List.rev !t in
      t := [];
      Abi.submit ctx txns
    end
end

(* --- The centralized template -------------------------------------------------- *)

(* One spinning global agent, N priority classes (class 0 highest), the
   standard five-phase pass: drain messages, fill idle CPUs with class-0
   work, evict lower classes for it, rotate over-slice threads, donate
   leftover idle CPUs down-class, publish the remainder to the BPF pick
   ring.  Fifo-centralized, central, shinjuku, snap and adaptive are all
   parameterizations of this one loop. *)
module Centralized = struct
  type stats = {
    scheduled : int array;  (* committed dispatches per class *)
    mutable preemptions : int;  (* timeslice expirations acted on *)
    mutable evictions : int;  (* lower-class threads displaced for class 0 *)
    mutable estales : int;
  }

  (* Hash width of the wakeup-eligibility map: the gated wakeup program
     indexes cls_map by [tid land cls_mask]. *)
  let cls_mask = 1023

  type t = {
    nclasses : int;
    classify : Abi.t -> Task.t -> int;
    donate_idle : bool;
    evict_lower : bool;
    msg_charge : int;
    assign_charge : int;
    track_assigned : bool;
        (* central-style pass: agent CPU filtered once, an assigned set
           keeps later phases off CPUs already committed this pass.  Off:
           the original fifo-centralized shape (no set, fresh CPU scans). *)
    forget_on_preempt : bool;
    cpu_rank : Abi.t -> int list -> int list;
    donate_rank : Abi.t -> int list -> int list;
    queues : Rq.t array;
    cls_of : Tidtbl.Map.t;  (* tid -> class; -1 = not yet classified *)
    running : Running.t;
    stats : stats;
    fp : Fastpath.t option;
    wakeup_gated : bool;
    (* Live-tunable knob cells: static policies set them once at build
       time; the adaptive controller rewrites them between passes. *)
    mutable timeslice : int option;
    mutable donate_max : int option;  (* cap on down-class grants per pass *)
    mutable fp_publish_min : int;  (* publish to the ring at this backlog *)
    (* Lifecycle hooks, all optional and free when unset. *)
    mutable on_pass : (Abi.t -> unit) option;
    mutable on_event : (Abi.t -> Msg_class.event -> unit) option;
    mutable on_committed : (Abi.t -> tid:int -> cpu:int -> unit) option;
    (* Per-pass working state, reused so an idle pass allocates nothing. *)
    com : Commit.t;  (* this pass's group commit; [submit] empties it *)
    mutable pass : int;  (* stamp of the current pass *)
    mutable assigned : int array;  (* cpu -> stamp of the pass that granted it *)
    mutable cpus_src : int list;  (* enclave CPU list [base_cpus] came from *)
    mutable cpus_agent : int;  (* agent CPU [base_cpus] excludes *)
    mutable base_cpus : int list;
  }

  let stats t = t.stats
  let backlog t = Rq.length t.queues.(0)
  let timeslice t = t.timeslice
  let donate_max t = t.donate_max
  let fp_publish_min t = t.fp_publish_min
  let set_on_pass t f = t.on_pass <- Some f
  let set_on_event t f = t.on_event <- Some f
  let set_on_committed t f = t.on_committed <- Some f
  let set_donate_max t v = t.donate_max <- v
  let set_fp_publish_min t v = t.fp_publish_min <- v

  let set_timeslice t ctx slice =
    t.timeslice <- slice;
    match t.fp with
    | None -> ()
    | Some _ ->
      Fastpath.set_slice ctx (match slice with Some s -> s | None -> 0)

  let class_of t ctx tid =
    let c = Tidtbl.Map.find t.cls_of tid in
    if c >= 0 then c
    else
      match Abi.task_by_tid ctx tid with
      | Some task ->
        let c = t.classify ctx task in
        Tidtbl.Map.set t.cls_of tid c;
        (* Only class-0 threads may take the expedited wakeup placement;
           the rest wait for an agent pass (collisions in the hashed map
           can let one through — a valid placement, just undeserved). *)
        (match t.fp with
        | Some _ when t.wakeup_gated ->
          Fastpath.set_cls ctx ~cls_mask ~tid (c = 0)
        | Some _ | None -> ());
        c
      | None -> t.nclasses - 1

  let push t ctx tid =
    if t.nclasses = 1 then Rq.push t.queues.(0) ctx tid
    else Rq.push t.queues.(class_of t ctx tid) ctx tid

  let rec feed t ctx = function
    | [] -> ()
    | msg :: rest ->
      Abi.charge ctx t.msg_charge;
      let ev = Msg_class.classify msg in
      (match t.on_event with None -> () | Some f -> f ctx ev);
      (match ev with
      | Msg_class.Became_runnable tid ->
        Running.forget t.running tid;
        push t ctx tid
      | Msg_class.Not_runnable tid ->
        Running.forget t.running tid;
        Array.iter (fun q -> Rq.drop q tid) t.queues
      | Msg_class.Died tid ->
        Running.forget t.running tid;
        Array.iter (fun q -> Rq.drop q tid) t.queues;
        Tidtbl.Map.remove t.cls_of tid
      | Msg_class.Affinity_changed _ | Msg_class.Tick _
      | Msg_class.Cpu_available _ | Msg_class.Cpu_taken _ -> ());
      feed t ctx rest

  (* The phases below are written as plain recursions over the CPU list so
     a pass that finds nothing to do allocates nothing: the global agent
     runs one pass per iteration, and most of them are idle. *)

  (* The enclave CPUs minus the agent's own, refiltered only when the
     enclave's CPU list is replaced or the agent moves. *)
  let base_cpus t ctx ~agent_cpu =
    let src = Abi.enclave_cpu_list ctx in
    if src != t.cpus_src || agent_cpu <> t.cpus_agent then begin
      t.cpus_src <- src;
      t.cpus_agent <- agent_cpu;
      t.base_cpus <- List.filter (fun c -> c <> agent_cpu) src
    end;
    t.base_cpus

  let assigned t cpu = cpu < Array.length t.assigned && t.assigned.(cpu) = t.pass
  let free t ctx cpu = (not (assigned t cpu)) && Abi.cpu_is_idle ctx cpu

  let make_assign t ctx task cpu =
    let n = Array.length t.assigned in
    if cpu >= n then begin
      let grown = Array.make (Int.max (2 * n) (cpu + 1)) 0 in
      Array.blit t.assigned 0 grown 0 n;
      t.assigned <- grown
    end;
    t.assigned.(cpu) <- t.pass;
    Commit.add ctx t.com ~charge:t.assign_charge task cpu

  (* 1. Idle CPUs go to class-0 work first. *)
  let rec fill_idle t ctx = function
    | [] -> ()
    | cpu :: rest ->
      (if free t ctx cpu then
         match Rq.pop t.queues.(0) ctx with
         | Some task -> make_assign t ctx task cpu
         | None -> ());
      fill_idle t ctx rest

  (* 2. Remaining class-0 work evicts lower-class threads. *)
  let lower_running t ctx cpu =
    (not (assigned t cpu))
    &&
    match Abi.curr_on ctx cpu with
    | Some task when task.Task.policy = Task.Ghost ->
      class_of t ctx task.Task.tid <> 0
    | Some _ | None -> false

  let rec evict t ctx = function
    | [] -> ()
    | cpu :: rest ->
      (if (not (Rq.is_empty t.queues.(0))) && lower_running t ctx cpu then
         match Rq.pop t.queues.(0) ctx with
         | Some task ->
           make_assign t ctx task cpu;
           t.stats.evictions <- t.stats.evictions + 1
         | None -> ());
      evict t ctx rest

  (* 3. Timeslice: rotate class-0 threads that ran past their slice. *)
  let rec rotate t ctx ~now ~slice = function
    | [] -> ()
    | cpu :: rest ->
      (if (not (assigned t cpu)) && not (Rq.is_empty t.queues.(0)) then
         match Abi.curr_on ctx cpu with
         | Some task when task.Task.policy = Task.Ghost ->
           if
             Running.over_slice t.running task.Task.tid ~cpu ~now ~slice
             && (t.nclasses = 1 || class_of t ctx task.Task.tid = 0)
           then begin
             match Rq.pop t.queues.(0) ctx with
             | Some next ->
               make_assign t ctx next cpu;
               t.stats.preemptions <- t.stats.preemptions + 1;
               if t.forget_on_preempt then Running.forget t.running task.Task.tid
             | None -> ()
           end
         | Some _ | None -> ());
      rotate t ctx ~now ~slice rest

  (* 4. Leftover idle CPUs are donated to lower classes. *)
  let rec pop_lower t ctx c =
    if c >= t.nclasses then None
    else
      match Rq.pop t.queues.(c) ctx with
      | Some _ as found -> found
      | None -> pop_lower t ctx (c + 1)

  let rec donate t ctx donated = function
    | [] -> ()
    | cpu :: rest ->
      let under = match t.donate_max with None -> true | Some m -> donated < m in
      let donated =
        if under && free t ctx cpu then
          match pop_lower t ctx 1 with
          | Some task ->
            make_assign t ctx task cpu;
            donated + 1
          | None -> donated
        else donated
      in
      donate t ctx donated rest

  (* The fifo-centralized shape: no assigned set, the idle fill and the
     timeslice scan each walk the CPU list afresh (Fig. 4). *)
  let rec fill_idle_unassigned t ctx ~agent_cpu = function
    | [] -> ()
    | cpu :: rest ->
      (if cpu <> agent_cpu && Abi.cpu_is_idle ctx cpu then
         match Rq.pop t.queues.(0) ctx with
         | Some task -> Commit.add ctx t.com ~charge:t.assign_charge task cpu
         | None -> ());
      fill_idle_unassigned t ctx ~agent_cpu rest

  let rec rotate_unassigned t ctx ~now ~slice = function
    | [] -> ()
    | cpu :: rest ->
      (if not (Rq.is_empty t.queues.(0)) then
         match Abi.curr_on ctx cpu with
         | Some task when task.Task.policy = Task.Ghost ->
           if Running.over_slice t.running task.Task.tid ~cpu ~now ~slice then begin
             match Rq.pop t.queues.(0) ctx with
             | Some next ->
               Commit.add ctx t.com ~charge:t.assign_charge next cpu;
               t.stats.preemptions <- t.stats.preemptions + 1;
               if t.forget_on_preempt then Running.forget t.running task.Task.tid
             | None -> ()
           end
         | Some _ | None -> ());
      rotate_unassigned t ctx ~now ~slice rest

  let schedule t ctx msgs =
    feed t ctx msgs;
    (match t.fp with None -> () | Some fp -> Fastpath.reconcile fp ctx);
    (match t.on_pass with None -> () | Some f -> f ctx);
    let agent_cpu = Abi.cpu ctx in
    if t.track_assigned then begin
      t.pass <- t.pass + 1;
      let base_cpus = base_cpus t ctx ~agent_cpu in
      let cpus = t.cpu_rank ctx base_cpus in
      fill_idle t ctx cpus;
      if t.evict_lower then evict t ctx cpus;
      (match t.timeslice with
      | None -> ()
      | Some slice -> rotate t ctx ~now:(Abi.now ctx) ~slice cpus);
      if t.donate_idle && t.nclasses > 1 then
        donate t ctx 0 (t.donate_rank ctx base_cpus)
    end
    else begin
      fill_idle_unassigned t ctx ~agent_cpu
        (t.cpu_rank ctx (Abi.enclave_cpu_list ctx));
      match t.timeslice with
      | None -> ()
      | Some slice ->
        rotate_unassigned t ctx ~now:(Abi.now ctx) ~slice
          (Abi.enclave_cpu_list ctx)
    end;
    (* 5. §3.5: class-0 work still waiting goes to the BPF pick ring so a
       CPU idling before our next pass dispatches it without a round-trip.
       The O(1) membership test runs first: the queue's stale entries
       make it many times longer than its live tids, and [publish] would
       refuse these without touching the ring anyway. *)
    (match t.fp with
    | None -> ()
    | Some fp ->
      if Rq.length t.queues.(0) >= t.fp_publish_min then
        Rq.iter
          (fun tid ->
            if not (Fastpath.published fp tid) then
              match Abi.task_by_tid ctx tid with
              | Some task when Task.is_runnable task ->
                ignore (Fastpath.publish fp ctx tid)
              | Some _ | None -> ())
          t.queues.(0));
    Commit.submit ctx t.com

  let on_outcome t ctx (o : Outcome.t) =
    match o with
    | Outcome.Committed { tid; cpu } ->
      let c = if t.nclasses = 1 then 0 else class_of t ctx tid in
      t.stats.scheduled.(c) <- t.stats.scheduled.(c) + 1;
      Running.note t.running tid ~cpu ~at:(Abi.now ctx);
      (match t.on_committed with None -> () | Some f -> f ctx ~tid ~cpu)
    | Outcome.Gone _ -> ()
    | Outcome.Rejected { tid; estale } ->
      if estale then t.stats.estales <- t.stats.estales + 1;
      push t ctx tid
    | Outcome.Pending -> ()

  let make ~name ?(nclasses = 1) ?(classify = fun _ _ -> 0) ?timeslice
      ?(donate_idle = false) ?(evict_lower = false) ?(fastpath = false)
      ?(wakeup_gated = false) ?(msg_charge = 25) ?(assign_charge = 40)
      ?(track_assigned = true) ?(forget_on_preempt = false) ?(rq_size = 512)
      ?(queue_order = fun _ -> Rq.Fifo) ?(cpu_rank = fun _ cpus -> cpus)
      ?(donate_rank = fun _ cpus -> cpus) () =
    if nclasses < 1 then invalid_arg "Dsl.Centralized.make: nclasses < 1";
    let fp = if fastpath then Some (Fastpath.create ()) else None in
    let t =
      {
        nclasses;
        classify;
        donate_idle;
        evict_lower;
        msg_charge;
        assign_charge;
        track_assigned;
        forget_on_preempt;
        cpu_rank;
        donate_rank;
        queues = Array.init nclasses (fun c -> Rq.make ~size:rq_size (queue_order c));
        cls_of = Tidtbl.Map.create ~size:512 ();
        running = Running.create ();
        stats =
          {
            scheduled = Array.make nclasses 0;
            preemptions = 0;
            evictions = 0;
            estales = 0;
          };
        fp;
        wakeup_gated;
        timeslice;
        donate_max = None;
        fp_publish_min = 0;
        on_pass = None;
        on_event = None;
        on_committed = None;
        com = Commit.create ();
        pass = 0;
        assigned = Array.make 64 0;
        cpus_src = [];
        cpus_agent = -1;
        base_cpus = [];
      }
    in
    let pol =
      Ghost.Agent.make_policy ~name
        ~init:(fun ctx ->
          (* Rebuild after an in-place upgrade: runnable threads re-enter
             their class queues (§3.4). *)
          List.iter
            (fun (task : Task.t) ->
              if Task.is_runnable task then push t ctx task.Task.tid)
            (Abi.managed_threads ctx);
          match t.fp with
          | None -> ()
          | Some fp ->
            ignore (Fastpath.install_pick fp ctx);
            ignore
              (if t.wakeup_gated then
                 Fastpath.install_wakeup_gated ctx ~cls_mask
               else Fastpath.install_wakeup ctx);
            (match t.timeslice with
            | None -> ()
            | Some slice ->
              ignore (Fastpath.install_tick fp ctx);
              Fastpath.set_slice ctx slice))
        ~schedule:(fun ctx msgs -> schedule t ctx msgs)
        ~on_result:(fun ctx txn -> on_outcome t ctx (Outcome.of_txn txn))
        ~on_cpu_removed:(fun _ cpu -> Running.forget_cpu t.running cpu)
        ()
    in
    (t, pol)
end

(* --- The per-CPU template ------------------------------------------------------ *)

(* One local agent per enclave CPU, per-CPU bucket queues, round-robin
   placement of new threads (ASSOCIATE_QUEUE), agent-seq-stamped local
   commits, and work stealing from the busiest sibling queue (§3.1/3.2). *)
module Percpu = struct
  type stats = {
    mutable scheduled : int;
    mutable estales : int;
    mutable steals : int;
  }

  type t = {
    msg_charge : int;
    assign_charge : int;
    steal_min : int;  (* only steal from queues at least this deep *)
    runqs : Buckets.t;  (* cpu -> tids *)
    home : Tidtbl.Map.t;  (* tid -> cpu; -1 = not yet placed *)
    mutable next_home : int;
    stats : stats;
  }

  let stats t = t.stats

  (* Spread new threads round-robin and move their message flow onto the
     per-CPU queue (ASSOCIATE_QUEUE, §3.1). *)
  let place_new t ctx tid =
    let cpus = Abi.enclave_cpu_list ctx in
    let n = List.length cpus in
    let home = List.nth cpus (t.next_home mod n) in
    t.next_home <- t.next_home + 1;
    Tidtbl.Map.set t.home tid home;
    (match (Abi.task_by_tid ctx tid, Abi.queue_of_cpu ctx home) with
    | Some task, Some q -> (
      match Abi.associate_queue ctx task q with
      | Ok () -> ()
      | Error `Pending_messages ->
        (* Messages already queued for it on the default queue: leave the
           association for the next pass; they will still reach agent 0. *)
        ())
    | _ -> ());
    home

  let home_of t ctx tid =
    let cpu = Tidtbl.Map.find t.home tid in
    if cpu >= 0 then cpu else place_new t ctx tid

  (* Work stealing (§3.1): an idle agent pulls a thread from the most loaded
     CPU's runqueue and re-routes its messages to its own queue with
     ASSOCIATE_QUEUE.  The association fails while the old queue still holds
     messages for the thread; the thread then stays home this pass and the
     steal is retried later — exactly the drain-and-reissue protocol. *)
  let try_steal t ctx ~cpu =
    let busiest =
      Buckets.fold
        (fun home rq acc ->
          if home = cpu then acc
          else begin
            match acc with
            | Some (_, best) when Rq.length best >= Rq.length rq -> acc
            | _ when Rq.length rq >= t.steal_min -> Some (home, rq)
            | _ -> acc
          end)
        t.runqs None
    in
    match busiest with
    | None -> None
    | Some (home, _) -> (
      match Buckets.pop t.runqs ctx home with
      | None -> None
      | Some task -> (
        match Abi.queue_of_cpu ctx cpu with
        | None -> Some task
        | Some q -> (
          match Abi.associate_queue ctx task q with
          | Ok () ->
            t.stats.steals <- t.stats.steals + 1;
            Tidtbl.Map.set t.home task.Task.tid cpu;
            Some task
          | Error `Pending_messages ->
            (* Old queue not drained yet: put it back and retry later. *)
            Buckets.push_to t.runqs home task.Task.tid;
            None)))

  let try_schedule_local t ctx =
    let cpu = Abi.cpu ctx in
    if Abi.latched_on ctx cpu = None then begin
      let candidate =
        match Buckets.pop t.runqs ctx cpu with
        | Some task -> Some task
        | None -> try_steal t ctx ~cpu
      in
      match candidate with
      | Some task ->
        Abi.charge ctx t.assign_charge;
        let txn =
          Abi.make_txn ctx ~tid:task.Task.tid ~target:cpu ~with_aseq:true ()
        in
        Abi.submit ctx [ txn ]
      | None -> ()
    end

  let schedule t ctx msgs =
    List.iter
      (fun msg ->
        Abi.charge ctx t.msg_charge;
        match Msg_class.classify msg with
        | Msg_class.Became_runnable tid ->
          let home = home_of t ctx tid in
          Buckets.push_to t.runqs home tid;
          (* The home CPU's agent sleeps on its own (empty) queue: poke it
             so it runs a pass and schedules the newcomer. *)
          if home <> Abi.cpu ctx then Abi.poke ctx home
        | Msg_class.Not_runnable tid | Msg_class.Died tid ->
          Buckets.drop t.runqs tid
        | Msg_class.Affinity_changed _ | Msg_class.Tick _
        | Msg_class.Cpu_available _ | Msg_class.Cpu_taken _ -> ())
      msgs;
    try_schedule_local t ctx

  let on_outcome t ctx (o : Outcome.t) =
    match o with
    | Outcome.Committed _ -> t.stats.scheduled <- t.stats.scheduled + 1
    | Outcome.Gone _ -> ()
    | Outcome.Rejected { tid; estale } ->
      if estale then t.stats.estales <- t.stats.estales + 1;
      let home = home_of t ctx tid in
      Buckets.push_to t.runqs home tid;
      if home <> Abi.cpu ctx then Abi.poke ctx home
    | Outcome.Pending -> ()

  let make ~name ?(msg_charge = 25) ?(assign_charge = 40) ?(steal_min = 2) ()
      =
    let t =
      {
        msg_charge;
        assign_charge;
        steal_min;
        runqs = Buckets.create ~size:16 ~dedup_size:256 ();
        home = Tidtbl.Map.create ();
        next_home = 0;
        stats = { scheduled = 0; estales = 0; steals = 0 };
      }
    in
    (* A departed CPU's runqueue and home assignments migrate to the live
       CPUs; running threads re-place via their THREAD_PREEMPTED message. *)
    let on_cpu_removed ctx cpu =
      Tidtbl.Map.iter (fun tid h -> if h = cpu then Tidtbl.Map.remove t.home tid) t.home;
      match Buckets.take t.runqs cpu with
      | None -> ()
      | Some rq ->
        Rq.iter
          (fun tid ->
            Buckets.drop t.runqs tid;
            match Abi.task_by_tid ctx tid with
            | Some task when Task.is_runnable task ->
              let home = home_of t ctx tid in
              Buckets.push_to t.runqs home tid;
              if home <> Abi.cpu ctx then Abi.poke ctx home
            | Some _ | None -> ())
          rq
    in
    let pol =
      Ghost.Agent.make_policy ~name
        ~init:(fun ctx ->
          List.iter
            (fun (task : Task.t) ->
              if Task.is_runnable task then begin
                let home = home_of t ctx task.Task.tid in
                Buckets.push_to t.runqs home task.Task.tid
              end)
            (Abi.managed_threads ctx))
        ~schedule:(fun ctx msgs -> schedule t ctx msgs)
        ~on_result:(fun ctx txn -> on_outcome t ctx (Outcome.of_txn txn))
        ~on_cpu_removed ()
    in
    (t, pol)
end

(* --- Custom-policy wrappers ----------------------------------------------------- *)

(* Build an agent policy from DSL callbacks: commit results arrive
   pre-classified as {!Outcome.t}.  For policies whose pass is genuinely
   bespoke (Search's cache-distance placement, secure-vm's core commits)
   but which still use the DSL queues and commit assembly. *)
let agent ~name ?init ~schedule ?on_outcome ?on_cpu_added ?on_cpu_removed () =
  let on_result =
    Option.map
      (fun f -> fun ctx txn -> f ctx (Outcome.of_txn txn))
      on_outcome
  in
  Ghost.Agent.make_policy ~name ?init ~schedule ?on_result ?on_cpu_added
    ?on_cpu_removed ()

(* Re-badge a policy built by a template (shinjuku and snap are renamed
   parameterizations of the central engine). *)
let rename pol name = { pol with Ghost.Agent.name }
