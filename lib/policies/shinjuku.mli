(** The ghOSt-Shinjuku policy (§4.2) and its Shenango extension.

    A centralized global agent keeps a FIFO of runnable worker threads and
    schedules them on the enclave's CPUs, preempting any worker that has run
    for a full 30 us timeslice while others wait — Shinjuku's preemptive
    centralized scheduling, reimplemented as a ghOSt policy (710 LoC in the
    paper vs 2,535 for the custom data plane).

    With [shenango_ext] (the paper's +17 lines), threads recognized as
    batch get whatever CPUs the latency-critical workers leave idle, and are
    evicted the instant an LC worker needs the CPU — combining Shinjuku's
    tails with Shenango's CPU reallocation (Fig. 6b/c). *)

type t

val default_timeslice : int
(** 30 us: the preemption quantum {!policy} uses when none is given (and
    the registry's [shinjuku] knob default). *)

val policy :
  ?timeslice:int ->
  ?shenango_ext:bool ->
  ?fastpath:bool ->
  is_batch:(Kernel.Task.t -> bool) ->
  unit ->
  t * Ghost.Agent.policy
(** Defaults: 30 us timeslice, [shenango_ext = false], [fastpath = false].
    [fastpath] installs the §3.5 BPF expedited tier (see {!Central.policy}). *)

val stats : t -> Central.stats
val lc_backlog : t -> int
