(** Deterministic merge of N independent event lanes.

    The engine layer of the cluster subsystem: each simulated machine runs
    on its own {!Engine} (wheel + overflow heap), and the merge advances
    lanes in lowest-[(time, lane_id, seq)] order — bit-reproducible at a
    fixed seed, with no contention on a single global queue.  The merge
    caches every lane's head time in an int array (refreshed when
    {!run_until} starts, lowered by {!post}, set exactly after each drain),
    picks the minimum there and checks only the winner against
    [Engine.next_time]; the winning lane then fires events back-to-back
    until its head reaches the runner-up's entry or the earliest
    cross-lane post made meanwhile.  A pick costs one pass over ints and
    one engine peek, whatever the lane count.

    {b Merge invariant}: every lane clock stays [<=] the global fire time
    until {!run_until}'s final alignment pass, so cross-lane posts at
    [>= now] can never land in a destination lane's past.

    Cross-lane posts must go through {!post}/{!post_in}: they keep the
    cached heads right, so the contract carries the merge order, not only
    the batching.  A post made straight into another lane's engine during
    {!run_until} raises [Invalid_argument] naming the lane once the merge
    sees it.  Same-lane posts, and any posts made before {!run_until}
    starts, may hit the engines directly. *)

type t

val create : ?on_lane_switch:(int -> unit) -> Engine.t array -> t
(** Merge the given engines (index = lane id).  All lane clocks should
    start equal (normally 0).  [on_lane_switch i] fires whenever the merge
    starts draining a different lane — the hook the cluster harness uses to
    scope trace output to machine [i].  Raises [Invalid_argument] on an
    empty array. *)

val lanes : t -> int
(** Number of lanes. *)

val engine : t -> int -> Engine.t
(** The lane's engine (for same-lane posting and inspection). *)

val now : t -> int
(** Time of the last event fired through the merge (the global clock). *)

val events_fired : t -> int
(** Events fired through {!run_until} since creation. *)

val post : t -> lane:int -> time:int -> (unit -> unit) -> Engine.handle
(** Cross-lane post: schedule [fn] at absolute [time] in [lane].  Must be
    used for any post made from one lane's callback into another lane —
    it maintains the cross-post watermark that bounds batching.  Raises
    [Invalid_argument] if [time] is before {!now}. *)

val post_in : t -> lane:int -> delay:int -> (unit -> unit) -> Engine.handle
(** [post_in t ~lane ~delay fn] is [post] at [now t + delay]. *)

val run_until : t -> int -> unit
(** Fire every event across all lanes with timestamp [<= horizon] in
    lowest-[(time, lane_id, seq)] order, then align every lane clock (and
    the global clock) to [horizon].  Raises [Invalid_argument] naming the
    lane when an event posted around {!post} into another lane during the
    run is found ahead of that lane's cached head, or still inside the
    window before the alignment. *)
