(* Tests for the agent runtime itself: sequence numbers, charging, pokes,
   handoff cycling, and attachment bookkeeping. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent
module Abi = Ghost.Abi
module Txn = Ghost.Txn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "agent-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let setup ncores =
  let k = Kernel.create (machine ncores) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  (k, sys, e)

let test_aseq_tracks_messages () =
  (* The global agent's aseq must advance by exactly one writer section —
     bump-to-odd, bump-to-even — per message posted to the queue it is
     associated with, and always read even (quiescent). *)
  let k, sys, e = setup 2 in
  let seqs = ref [] in
  let pol =
    Agent.make_policy ~name:"aseq-probe"
      ~schedule:(fun ctx msgs -> if msgs <> [] then seqs := Abi.aseq ctx :: !seqs)
      ()
  in
  let _g = Agent.attach_global sys e pol in
  let task = Kernel.create_task k ~name:"w" (Task.compute_forever ~slice:(us 100)) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (ms 1);
  let after_create = match !seqs with s :: _ -> s | [] -> -1 in
  check_bool "aseq advanced on CREATED" true (after_create >= 2);
  check_int "aseq reads even" 0 (after_create land 1);
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:2 [ 0; 1 ]);
  Kernel.run_until k (ms 2);
  let after_affinity = match !seqs with s :: _ -> s | [] -> -1 in
  check_int "one more message, one more write section" (after_create + 2)
    after_affinity

let test_charge_lengthens_passes () =
  (* A policy that charges heavily makes the agent pass longer, so fewer
     iterations fit in the same simulated window. *)
  let iters charge_ns =
    let k, sys, e = setup 2 in
    let pol =
      Agent.make_policy ~name:"burner"
        ~schedule:(fun ctx _ -> Abi.charge ctx charge_ns)
        ()
    in
    let g = Agent.attach_global sys e ~idle_gap:500 pol in
    Kernel.run_until k (ms 5);
    Agent.iterations g
  in
  let cheap = iters 0 and costly = iters 10_000 in
  check_bool
    (Printf.sprintf "charging slows the loop (%d vs %d iters)" cheap costly)
    true
    (costly * 5 < cheap)

let test_handoff_returns_after_cfs_leaves () =
  (* The global agent hops away from a CFS intruder, and hops again if the
     intruder follows — each CPU keeps serving CFS work promptly. *)
  let k, sys, e = setup 3 in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 1);
  let hops = ref [] in
  let chase n =
    let rec go n () =
      if n > 0 then begin
        let target = Agent.global_cpu g in
        let intruder =
          Kernel.create_task k
            ~name:(Printf.sprintf "intruder%d" n)
            ~affinity:(Cpumask.singleton ~ncpus:3 target)
            (Task.compute_total ~slice:(us 100) ~total:(us 500) (fun () -> Task.Exit))
        in
        Kernel.start k intruder;
        ignore
          (Sim.Engine.post_in (Kernel.engine k) ~delay:(ms 2) (fun () ->
               hops := Agent.global_cpu g :: !hops;
               go (n - 1) ()))
      end
    in
    go n ()
  in
  chase 3;
  Kernel.run_until k (ms 10);
  check_int "three hops recorded" 3 (List.length !hops);
  (* The agent moved at least once and the enclave still works. *)
  check_bool "agent moved" true
    (List.exists (fun c -> c <> List.hd !hops) !hops || List.hd !hops <> 0);
  check_bool "agent group alive" true (Agent.is_attached g)

let test_stop_is_idempotent () =
  let k, sys, e = setup 2 in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 1);
  Agent.stop g;
  Agent.stop g;
  Kernel.run_until k (ms 2);
  check_bool "agents exited" true
    (List.for_all
       (fun (t : Task.t) -> t.Task.state = Task.Dead)
       (System.agent_tasks e)
    || System.agent_tasks e = [])

let test_queue_of_cpu_modes () =
  let _k, sys, e = setup 2 in
  let seen = ref None in
  let pol =
    Agent.make_policy ~name:"probe"
      ~init:(fun ctx -> seen := Some (Abi.queue_of_cpu ctx 0 <> None))
      ~schedule:(fun _ _ -> ())
      ()
  in
  let _g = Agent.attach_local sys e pol in
  check_bool "local mode has per-cpu queues" true (!seen = Some true);
  let _k2, sys2, e2 = setup 2 in
  let seen2 = ref None in
  let pol2 = { pol with Agent.init = (fun ctx -> seen2 := Some (Abi.queue_of_cpu ctx 0 <> None)) } in
  let _g2 = Agent.attach_global sys2 e2 pol2 in
  check_bool "global mode has none" true (!seen2 = Some false)

let test_submit_estale_on_interleaved_message () =
  (* A commit stamped with an aseq taken before new traffic arrives must
     fail ESTALE when that traffic lands during the agent's busy interval. *)
  let k, sys, e = setup 2 in
  let results = ref [] in
  let victim = ref None in
  let pol =
    Agent.make_policy ~name:"estale-maker"
      ~schedule:(fun ctx msgs ->
        match (msgs, !victim) with
        | _ :: _, Some (task : Task.t) when Task.is_runnable task ->
          (* Deliberately long decision time so the driver's affinity
             change lands mid-pass. *)
          Abi.charge ctx (us 50);
          let txn =
            Abi.make_txn ctx ~tid:task.Task.tid ~target:1 ~with_aseq:true ()
          in
          Abi.submit ctx [ txn ]
        | _ -> ())
      ~on_result:(fun _ txn -> results := txn.Txn.status :: !results)
      ()
  in
  let _g = Agent.attach_global sys e pol in
  let task = Kernel.create_task k ~name:"w" (Task.compute_forever ~slice:(us 100)) in
  victim := Some task;
  System.manage e task;
  Kernel.start k task;
  (* Affinity churn every 20us: some changes will land inside the 50us
     decision window. *)
  let rec churn n () =
    if n > 0 then begin
      Kernel.set_affinity k task (Cpumask.of_list ~ncpus:2 [ 0; 1 ]);
      ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 20) (churn (n - 1)))
    end
  in
  ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 10) (churn 50));
  Kernel.run_until k (ms 5);
  let estales =
    List.length (List.filter (fun s -> s = Txn.Failed Txn.Estale) !results)
  in
  check_bool
    (Printf.sprintf "ESTALE observed under churn (%d)" estales)
    true (estales > 0)

(* --- Global-agent runtime golden ------------------------------------------- *)

(* A short [central] run on xeon-e5-1s (SMT siblings are adjacent CPUs) over
   enclave CPUs 0-5, each with a pinned, mostly sleeping CFS spinner, and a
   hung-agent window from a fault plan.  Between requests the agent makes idle-gap
   passes; each spinner wakeup on the agent's CPU forces a hot handoff; the
   agent then runs beside a busy SMT sibling and pays the contention scaling;
   the stall occupies the agent CPU without passing.  The digest pins the
   runtime's modeled behaviour on all four paths (golden case
   global-runtime); it may only change with a deliberate behaviour change. *)
let global_runtime_report () =
  let m = Hw.Machines.xeon_e5_1s in
  let k = Kernel.create m in
  let ncpus = Kernel.ncpus k in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus [ 0; 1; 2; 3; 4; 5 ]) ()
  in
  let inst = Policies.Registry.make "central" in
  let g = Policies.Registry.attach ~min_iteration:(us 2) ~idle_gap:(us 5) sys e inst in
  let plan =
    Faults.Plan.make ~name:"hang"
      [ { Faults.Plan.at = ms 4; jitter = 0; kind = Faults.Plan.Stall { duration = us 300 } } ]
  in
  let inj =
    Faults.Injector.arm ~rng:(Kernel.rng k)
      { Faults.Injector.sys; enclave = e; group = Some g; replace = None }
      plan
  in
  let spinner cpu ~run ~sleep =
    let self = ref None in
    let rec beh () =
      Task.Run
        {
          ns = run;
          after =
            (fun () ->
              ignore
                (Sim.Engine.post_in (Kernel.engine k) ~delay:sleep (fun () ->
                     Option.iter (Kernel.wake k) !self));
              Task.Block { after = beh });
        }
    in
    let t =
      Kernel.create_task k
        ~name:(Printf.sprintf "spin%d" cpu)
        ~affinity:(Cpumask.singleton ~ncpus cpu)
        beh
    in
    self := Some t;
    Kernel.start k t;
    t
  in
  let spinners =
    List.map
      (fun (cpu, run, sleep) -> spinner cpu ~run:(us run) ~sleep:(us sleep))
      [ (0, 40, 230); (1, 30, 310); (2, 25, 170); (3, 35, 410); (4, 20, 290); (5, 30, 370) ]
  in
  let ol =
    Workloads.Openloop.create k ~seed:5 ~rate:120_000.0
      ~service:(Sim.Dist.Exponential 12_000.0) ~nworkers:12
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "worker%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 8);
  (* Step the clock to observe the paths the digest must cover: handoffs
     (the agent CPU moves) and passes next to a busy SMT sibling. *)
  let handoffs = ref 0 and beside_busy = ref 0 in
  let last = ref (Agent.global_cpu g) in
  while Kernel.now k < ms 10 do
    Kernel.run_until k (Kernel.now k + us 5);
    let c = Agent.global_cpu g in
    if c <> !last then incr handoffs;
    last := c;
    (match Hw.Topology.sibling_of (Kernel.topo k) c with
    | Some s when Kernel.curr k s <> None -> incr beside_busy
    | _ -> ())
  done;
  let rec_ = Workloads.Openloop.recorder ol in
  let ks = Kernel.stats k and gs = System.stats sys in
  let report =
    Printf.sprintf
      "offered=%d completed=%d p50=%d p99=%d\n\
       kernel ctx=%d ipis=%d wakeups=%d resched=%d\n\
       ghost msgs=%d commits=%d fails=%d estales=%d drops=%d\n\
       agent iters=%d gcpu=%d faults=%s\n\
       spinners exec=%s idle=%s\n"
      (Workloads.Openloop.offered ol)
      (Workloads.Recorder.completed rec_)
      (Workloads.Recorder.p rec_ 50.0) (Workloads.Recorder.p rec_ 99.0)
      ks.Kernel.ctx_switches ks.Kernel.ipis ks.Kernel.wakeups ks.Kernel.reschedules
      gs.System.msgs_posted gs.System.commits gs.System.commit_failures
      gs.System.estales gs.System.msg_drops (Agent.iterations g)
      (Agent.global_cpu g)
      (String.concat ","
         (List.map (fun (t, kind) -> Printf.sprintf "%s@%d" kind t)
            (Faults.Injector.fired inj)))
      (String.concat "/"
         (List.map (fun (t : Task.t) -> string_of_int t.Task.sum_exec) spinners))
      (String.concat ","
         (List.map (fun c -> string_of_int (Kernel.idle_total k c)) [ 0; 1; 2; 3; 4; 5 ]))
  in
  (report, !handoffs, !beside_busy, Faults.Injector.fired inj)

let test_global_runtime_golden () =
  let report, handoffs, beside_busy, fired = global_runtime_report () in
  check_bool (Printf.sprintf "hot handoffs (%d)" handoffs) true (handoffs > 0);
  check_bool
    (Printf.sprintf "agent beside a busy sibling (%d)" beside_busy)
    true (beside_busy > 0);
  check_bool "stall fired" true (List.exists (fun (_, k) -> k = "stall") fired);
  Golden.check "global-runtime" report

let () =
  Alcotest.run "agent"
    [
      ( "sequence-numbers",
        [
          Alcotest.test_case "aseq tracks messages" `Quick test_aseq_tracks_messages;
          Alcotest.test_case "estale mid-pass" `Quick
            test_submit_estale_on_interleaved_message;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "charging slows passes" `Quick test_charge_lengthens_passes;
          Alcotest.test_case "handoff chase" `Quick test_handoff_returns_after_cfs_leaves;
          Alcotest.test_case "stop idempotent" `Quick test_stop_is_idempotent;
          Alcotest.test_case "queue_of_cpu by mode" `Quick test_queue_of_cpu_modes;
          Alcotest.test_case "global-agent golden" `Quick test_global_runtime_golden;
        ] );
    ]
