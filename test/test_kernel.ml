(* Tests for the simulated kernel: dispatcher, CFS, RT, MicroQuanta,
   affinity, core scheduling. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny ?(smt = 1) ncores =
  {
    Hw.Machines.name = Printf.sprintf "tiny-%dx%d" ncores smt;
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt;
    costs = Hw.Costs.skylake;
  }

let ms = Sim.Units.ms

(* A task that consumes [total] ns of CPU then exits, noting completion. *)
let finite_task k ~name ?policy ?nice ?affinity ?cookie ~total () =
  let done_at = ref (-1) in
  let task =
    Kernel.create_task k ?policy ?nice ?affinity ?cookie ~name
      (Task.compute_total ~slice:(Sim.Units.us 100) ~total (fun () ->
           done_at := Kernel.now k;
           Task.Exit))
  in
  (task, done_at)

let test_single_task_runs () =
  let k = Kernel.create (tiny 1) in
  let task, done_at = finite_task k ~name:"worker" ~total:(ms 5) () in
  Kernel.start k task;
  Kernel.run_until k (ms 50);
  check_bool "completed" true (!done_at > 0);
  check_int "consumed requested cpu" (ms 5) task.Task.sum_exec;
  check_bool "dead" true (task.Task.state = Task.Dead)

let test_fair_sharing () =
  let k = Kernel.create (tiny 1) in
  let a, _ = finite_task k ~name:"a" ~total:(ms 200) () in
  let b, _ = finite_task k ~name:"b" ~total:(ms 200) () in
  Kernel.start k a;
  Kernel.start k b;
  Kernel.run_until k (ms 100);
  (* Both should have ~50ms +- a couple of timeslices. *)
  let diff = abs (a.Task.sum_exec - b.Task.sum_exec) in
  check_bool
    (Printf.sprintf "fair split: a=%d b=%d" a.Task.sum_exec b.Task.sum_exec)
    true
    (diff < ms 15 && a.Task.sum_exec > ms 30 && b.Task.sum_exec > ms 30)

let test_nice_weighting () =
  let k = Kernel.create (tiny 1) in
  let a, _ = finite_task k ~name:"fast" ~nice:0 ~total:(ms 500) () in
  let b, _ = finite_task k ~name:"slow" ~nice:5 ~total:(ms 500) () in
  Kernel.start k a;
  Kernel.start k b;
  Kernel.run_until k (ms 300);
  (* weight(0)/weight(5) = 1024/335 ~ 3.06. *)
  let ratio = float_of_int a.Task.sum_exec /. float_of_int (max 1 b.Task.sum_exec) in
  check_bool
    (Printf.sprintf "nice ratio %.2f in [2.2, 4.0]" ratio)
    true
    (ratio > 2.2 && ratio < 4.0)

let test_two_cpus_parallel () =
  let k = Kernel.create (tiny 2) in
  let a, da = finite_task k ~name:"a" ~total:(ms 10) () in
  let b, db = finite_task k ~name:"b" ~total:(ms 10) () in
  Kernel.start k a;
  Kernel.start k b;
  Kernel.run_until k (ms 12);
  check_bool "both done in parallel" true (!da > 0 && !db > 0);
  check_bool "ran on different cpus" true (a.Task.cpu <> b.Task.cpu)

let test_block_wake () =
  let k = Kernel.create (tiny 1) in
  let phases = ref [] in
  let task =
    Kernel.create_task k ~name:"sleeper" (fun () ->
        Task.Run
          {
            ns = ms 1;
            after =
              (fun () ->
                phases := ("slept", Kernel.now k) :: !phases;
                Task.Block
                  {
                    after =
                      (fun () ->
                        phases := ("woke", Kernel.now k) :: !phases;
                        Task.Run { ns = ms 1; after = (fun () -> Task.Exit) });
                  });
          })
  in
  Kernel.start k task;
  Kernel.run_until k (ms 5);
  check_bool "blocked" true (task.Task.state = Task.Blocked);
  Kernel.wake k task;
  Kernel.run_until k (ms 10);
  check_bool "exited after wake" true (task.Task.state = Task.Dead);
  check_int "saw both phases" 2 (List.length !phases)

let test_wake_is_noop_unless_blocked () =
  let k = Kernel.create (tiny 1) in
  let task, _ = finite_task k ~name:"t" ~total:(ms 1) () in
  Kernel.wake k task;
  check_bool "created task not woken" true (task.Task.state = Task.Created);
  Kernel.start k task;
  Kernel.wake k task;
  Kernel.run_until k (ms 5);
  check_bool "ran to exit" true (task.Task.state = Task.Dead)

let test_rt_preempts_cfs () =
  let k = Kernel.create (tiny 1) in
  let cfs_task, _ = finite_task k ~name:"cfs" ~total:(ms 100) () in
  Kernel.start k cfs_task;
  Kernel.run_until k (ms 2);
  let started = ref (-1) in
  let rt_task =
    Kernel.create_task k ~policy:Task.Rt ~name:"rt" (fun () ->
        started := Kernel.now k;
        Task.Run { ns = ms 1; after = (fun () -> Task.Exit) })
  in
  Kernel.start k rt_task;
  Kernel.run_until k (ms 4);
  check_bool "rt started quickly" true
    (!started >= 0 && !started - ms 2 < Sim.Units.us 10);
  check_bool "cfs was preempted" true (cfs_task.Task.nr_preemptions > 0)

let test_rt_priority_order () =
  let k = Kernel.create (tiny 1) in
  let order = ref [] in
  let mk name prio =
    Kernel.create_task k ~policy:Task.Rt ~rt_prio:prio ~name (fun () ->
        Task.Run
          {
            ns = ms 1;
            after =
              (fun () ->
                order := name :: !order;
                Task.Exit);
          })
  in
  (* A running CFS hog so RT tasks queue together at the same instant. *)
  let hog, _ = finite_task k ~name:"hog" ~total:(ms 100) () in
  Kernel.start k hog;
  Kernel.run_until k (ms 1);
  let low = mk "low" 1 and high = mk "high" 99 in
  Kernel.start k low;
  Kernel.start k high;
  Kernel.run_until k (ms 10);
  Alcotest.(check (list string)) "high priority first" [ "high"; "low" ]
    (List.rev !order)

let test_microquanta_budget () =
  let k = Kernel.create (tiny 1) in
  (* An MQ hog wants 100% CPU but is capped at 0.9ms/1ms; a CFS task soaks
     the blackouts. *)
  let mq =
    Kernel.create_task k ~policy:Task.Microquanta ~name:"mq"
      (Task.compute_forever ~slice:(Sim.Units.us 50))
  in
  let cfs, _ = finite_task k ~name:"cfs" ~total:(ms 1000) () in
  Kernel.start k mq;
  Kernel.start k cfs;
  Kernel.run_until k (ms 100);
  let mq_share = float_of_int mq.Task.sum_exec /. float_of_int (ms 100) in
  let cfs_share = float_of_int cfs.Task.sum_exec /. float_of_int (ms 100) in
  check_bool
    (Printf.sprintf "mq share %.3f ~ 0.9" mq_share)
    true
    (mq_share > 0.85 && mq_share < 0.93);
  check_bool
    (Printf.sprintf "cfs share %.3f ~ 0.1" cfs_share)
    true
    (cfs_share > 0.05)

let test_microquanta_wakeup_latency () =
  let k = Kernel.create (tiny 1) in
  (* MQ thread wakes instantly over a busy CFS machine while within budget. *)
  let woke = ref [] in
  let mq =
    Kernel.create_task k ~policy:Task.Microquanta ~name:"poller" (fun () ->
        let rec loop () =
          Task.Block
            {
              after =
                (fun () ->
                  woke := Kernel.now k :: !woke;
                  Task.Run { ns = Sim.Units.us 10; after = loop });
            }
        in
        loop ())
  in
  let hog, _ = finite_task k ~name:"hog" ~total:(ms 1000) () in
  Kernel.start k hog;
  Kernel.start k mq;
  Kernel.run_until k (ms 1);
  let wake_at = Kernel.now k in
  Kernel.wake k mq;
  Kernel.run_until k (ms 2);
  (match !woke with
  | t :: _ ->
    check_bool
      (Printf.sprintf "woke within 2us (%d ns)" (t - wake_at))
      true
      (t - wake_at < Sim.Units.us 2)
  | [] -> Alcotest.fail "mq thread never woke")

let test_affinity_respected () =
  let m = tiny 4 in
  let k = Kernel.create m in
  let mask = Cpumask.of_list ~ncpus:4 [ 2 ] in
  let t, _ = finite_task k ~name:"pinned" ~affinity:mask ~total:(ms 5) () in
  Kernel.start k t;
  Kernel.run_until k (ms 10);
  check_bool "ran" true (t.Task.state = Task.Dead);
  check_int "stayed on cpu 2" 2 t.Task.cpu

let test_set_affinity_migrates () =
  let k = Kernel.create (tiny 2) in
  let t =
    Kernel.create_task k ~name:"roamer"
      ~affinity:(Cpumask.of_list ~ncpus:2 [ 0 ])
      (Task.compute_forever ~slice:(Sim.Units.us 100))
  in
  Kernel.start k t;
  Kernel.run_until k (ms 2);
  check_int "on cpu 0" 0 t.Task.cpu;
  Kernel.set_affinity k t (Cpumask.of_list ~ncpus:2 [ 1 ]);
  Kernel.run_until k (ms 4);
  check_int "migrated to cpu 1" 1 t.Task.cpu;
  check_bool "still running" true (Task.is_runnable t)

let test_load_balance_spreads () =
  (* 4 infinite tasks started while 3 CPUs idle must end up spread out. *)
  let k = Kernel.create (tiny 4) in
  let tasks =
    List.init 4 (fun i ->
        Kernel.create_task k
          ~name:(Printf.sprintf "spin%d" i)
          (Task.compute_forever ~slice:(Sim.Units.us 100)))
  in
  List.iter (Kernel.start k) tasks;
  Kernel.run_until k (ms 50);
  let shares = List.map (fun (t : Task.t) -> t.Task.sum_exec) tasks in
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "each task got most of a cpu (%d)" s)
        true
        (s > ms 40))
    shares

let test_idle_accounting () =
  let k = Kernel.create (tiny 1) in
  let t, _ = finite_task k ~name:"t" ~total:(ms 10) () in
  Kernel.start k t;
  Kernel.run_until k (ms 100);
  let idle = Kernel.idle_total k 0 in
  check_bool
    (Printf.sprintf "idle ~90ms (%d)" idle)
    true
    (idle > ms 88 && idle < ms 91)

let test_kill () =
  let k = Kernel.create (tiny 1) in
  let t =
    Kernel.create_task k ~name:"victim" (Task.compute_forever ~slice:(ms 1))
  in
  Kernel.start k t;
  Kernel.run_until k (ms 3);
  check_bool "running" true (Task.is_runnable t);
  Kernel.kill k t;
  Kernel.run_until k (ms 5);
  check_bool "dead" true (t.Task.state = Task.Dead);
  check_bool "cpu reused (idle)" true (Kernel.cpu_idle k 0)

(* The tid-indexed task table: a lookup answers only for live tasks. *)
let test_task_table () =
  let k = Kernel.create (tiny 1) in
  let finite, _ = finite_task k ~name:"finite" ~total:(ms 1) () in
  let victim =
    Kernel.create_task k ~name:"victim" (Task.compute_forever ~slice:(ms 1))
  in
  let is_live tid = Kernel.task_by_tid k tid <> None in
  check_bool "tid 0" false (is_live 0);
  check_bool "negative tid" false (is_live (-1));
  check_bool "tid never assigned" false (is_live (victim.Task.tid + 1));
  check_bool "far past the table" false (is_live 1_000_000);
  let lands_on (t : Task.t) =
    match Kernel.task_by_tid k t.Task.tid with
    | Some found -> found == t
    | None -> false
  in
  check_bool "created task found" true (lands_on finite);
  Kernel.start k finite;
  Kernel.start k victim;
  Kernel.run_until k (ms 5);
  check_bool "exited task gone" false (is_live finite.Task.tid);
  check_bool "victim alive" true (is_live victim.Task.tid);
  Kernel.kill k victim;
  check_bool "killed task gone" false (is_live victim.Task.tid);
  check_int "no live tasks" 0 (List.length (Kernel.tasks k));
  (* Past the table's initial size: every lookup still lands on its task,
     and [tasks] lists exactly the live ones. *)
  let many =
    Array.init 600 (fun i ->
        Kernel.create_task k ~name:(Printf.sprintf "t%d" i)
          (Task.compute_forever ~slice:(ms 1)))
  in
  check_bool "every lookup lands on its task" true (Array.for_all lands_on many);
  Kernel.kill k many.(300);
  check_bool "killed past the initial size" false (is_live many.(300).Task.tid);
  check_int "live tasks listed" 599 (List.length (Kernel.tasks k));
  check_bool "tids dense, never reused" true
    (many.(599).Task.tid = victim.Task.tid + 600)

let test_core_scheduling_isolation () =
  (* One physical core, two hyperthreads, tasks of two different VMs: with
     core scheduling they must never run concurrently. *)
  let m = tiny ~smt:2 1 in
  let k = Kernel.create ~core_sched:true m in
  let a, _ = finite_task k ~name:"vm1" ~cookie:1 ~total:(ms 40) () in
  let b, _ = finite_task k ~name:"vm2" ~cookie:2 ~total:(ms 40) () in
  Kernel.start k a;
  Kernel.start k b;
  let violations = ref 0 in
  let rec sample () =
    (match (Kernel.curr k 0, Kernel.curr k 1) with
    | Some x, Some y
      when x.Task.cookie <> 0 && y.Task.cookie <> 0 && x.Task.cookie <> y.Task.cookie
      ->
      incr violations
    | _ -> ());
    ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(Sim.Units.us 20) sample)
  in
  ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(Sim.Units.us 20) sample);
  Kernel.run_until k (ms 100);
  check_int "no cross-VM SMT sharing" 0 !violations;
  check_bool "both finished eventually" true
    (a.Task.state = Task.Dead && b.Task.state = Task.Dead)

let test_no_core_sched_shares_smt () =
  (* Without core scheduling the two VMs do share the core concurrently. *)
  let m = tiny ~smt:2 1 in
  let k = Kernel.create ~core_sched:false m in
  let a, _ = finite_task k ~name:"vm1" ~cookie:1 ~total:(ms 40) () in
  let b, _ = finite_task k ~name:"vm2" ~cookie:2 ~total:(ms 40) () in
  Kernel.start k a;
  Kernel.start k b;
  let concurrent = ref 0 in
  let rec sample () =
    (match (Kernel.curr k 0, Kernel.curr k 1) with
    | Some x, Some y when x.Task.cookie <> y.Task.cookie -> incr concurrent
    | _ -> ());
    ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(Sim.Units.us 20) sample)
  in
  ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(Sim.Units.us 20) sample);
  Kernel.run_until k (ms 50);
  check_bool "smt shared without core scheduling" true (!concurrent > 100)

let test_core_sched_throughput_cost () =
  (* Table 4's effect: core scheduling costs some throughput. *)
  let run core_sched =
    let m = tiny ~smt:2 2 in
    let k = Kernel.create ~core_sched m in
    let tasks =
      List.init 3 (fun i ->
          let t, d =
            finite_task k
              ~name:(Printf.sprintf "vm%d" (i + 1))
              ~cookie:(i + 1) ~total:(ms 50) ()
          in
          Kernel.start k t;
          (t, d))
    in
    Kernel.run_until k (ms 500);
    List.fold_left (fun acc (_, d) -> max acc !d) 0 tasks
  in
  let plain = run false and cs = run true in
  check_bool
    (Printf.sprintf "core sched slower: %d vs %d" cs plain)
    true
    (cs >= plain)

(* The kernel answers [cpu_idle] from a per-CPU counter fed by class
   enqueue/dequeue callbacks; the classes answer [nr_runnable] from their own
   cached counts.  Cross-check both against ground truth (tasks with
   [on_rq] set) at every tick of a churny multi-class workload — blocking,
   waking, throttling, affinity migration, kills. *)
let test_queued_count_invariant () =
  let k = Kernel.create (tiny 4) in
  let checks = ref 0 in
  let check_counts where =
    let tasks = Kernel.tasks k in
    for c = 0 to Kernel.ncpus k - 1 do
      let truth =
        List.length
          (List.filter (fun (x : Task.t) -> x.on_rq && x.cpu = c) tasks)
      in
      let cached =
        List.fold_left
          (fun acc policy ->
            acc + (Kernel.find_class k policy).Kernel.Class_intf.nr_runnable ~cpu:c)
          0
          [ Task.Rt; Task.Microquanta; Task.Cfs ]
      in
      incr checks;
      check_int (Printf.sprintf "%s: queued on cpu %d" where c) truth cached;
      check_bool
        (Printf.sprintf "%s: cpu_idle consistent on cpu %d" where c)
        (Kernel.curr k c = None && cached = 0)
        (Kernel.cpu_idle k c)
    done
  in
  Kernel.on_tick k (fun cpu -> if cpu = 0 then check_counts "tick");
  let spawn n policy total =
    List.init n (fun i ->
        let task, _ =
          finite_task k ~name:(Printf.sprintf "%s%d" "t" i) ~policy ~total ()
        in
        Kernel.start k task;
        task)
  in
  let cfs_tasks = spawn 6 Task.Cfs (ms 20) in
  let _rt = spawn 2 Task.Rt (ms 3) in
  let _mq = spawn 2 Task.Microquanta (ms 10) in
  (* A sleeper that blocks and gets woken repeatedly. *)
  let sleeper =
    let rec body () = Task.Run { ns = ms 1; after = (fun () -> Task.Block { after = body }) } in
    Kernel.create_task k ~name:"sleeper" body
  in
  Kernel.start k sleeper;
  let engine = Kernel.engine k in
  let rec waker () =
    Kernel.wake k sleeper;
    ignore (Sim.Engine.post_in engine ~delay:(ms 3) waker)
  in
  ignore (Sim.Engine.post_in engine ~delay:(ms 2) waker);
  (* Affinity churn: bounce a CFS task between CPU pairs. *)
  let rec flip i () =
    (match cfs_tasks with
    | victim :: _ when victim.Task.state <> Task.Dead ->
      Kernel.set_affinity k victim
        (Cpumask.of_list ~ncpus:4 [ i mod 4; (i + 1) mod 4 ])
    | _ -> ());
    ignore (Sim.Engine.post_in engine ~delay:(ms 2) (flip (i + 1)))
  in
  ignore (Sim.Engine.post_in engine ~delay:(ms 1) (flip 0));
  (* Kill one mid-flight. *)
  ignore
    (Sim.Engine.post_in engine ~delay:(ms 7) (fun () ->
         match cfs_tasks with
         | _ :: second :: _ when second.Task.state <> Task.Dead ->
           Kernel.kill k second
         | _ -> ()));
  Kernel.run_until k (ms 60);
  check_counts "end";
  check_bool (Printf.sprintf "enough checkpoints (%d)" !checks) true (!checks > 100)

let test_context_switch_counting () =
  let k = Kernel.create (tiny 1) in
  let a, _ = finite_task k ~name:"a" ~total:(ms 50) () in
  let b, _ = finite_task k ~name:"b" ~total:(ms 50) () in
  Kernel.start k a;
  Kernel.start k b;
  Kernel.run_until k (ms 100);
  check_bool "switches recorded" true ((Kernel.stats k).Kernel.ctx_switches > 10)

let () =
  Alcotest.run "kernel"
    [
      ( "dispatch",
        [
          Alcotest.test_case "single task" `Quick test_single_task_runs;
          Alcotest.test_case "two cpus parallel" `Quick test_two_cpus_parallel;
          Alcotest.test_case "block/wake" `Quick test_block_wake;
          Alcotest.test_case "wake noop" `Quick test_wake_is_noop_unless_blocked;
          Alcotest.test_case "kill" `Quick test_kill;
          Alcotest.test_case "task table lookups" `Quick test_task_table;
          Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
          Alcotest.test_case "switch counting" `Quick test_context_switch_counting;
          Alcotest.test_case "queued-count invariant" `Quick
            test_queued_count_invariant;
        ] );
      ( "cfs",
        [
          Alcotest.test_case "fair sharing" `Quick test_fair_sharing;
          Alcotest.test_case "nice weighting" `Quick test_nice_weighting;
          Alcotest.test_case "load balance" `Quick test_load_balance_spreads;
        ] );
      ( "rt",
        [
          Alcotest.test_case "preempts cfs" `Quick test_rt_preempts_cfs;
          Alcotest.test_case "priority order" `Quick test_rt_priority_order;
        ] );
      ( "microquanta",
        [
          Alcotest.test_case "budget cap" `Quick test_microquanta_budget;
          Alcotest.test_case "wakeup latency" `Quick test_microquanta_wakeup_latency;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "respected" `Quick test_affinity_respected;
          Alcotest.test_case "migration" `Quick test_set_affinity_migrates;
        ] );
      ( "core-sched",
        [
          Alcotest.test_case "isolation" `Quick test_core_scheduling_isolation;
          Alcotest.test_case "smt shared without" `Quick test_no_core_sched_shares_smt;
          Alcotest.test_case "throughput cost" `Quick test_core_sched_throughput_cost;
        ] );
    ]
