(* Golden reports: the paper-facing experiments (Fig. 5, Fig. 6, Table 3,
   colocation), a 2-machine cluster, a 1 ms smoke run of every registered
   policy, and the BPF tier's no-program control, each rendered as
   canonical text and checked against golden.txt.  Canonical text lists
   every report field (ints with %d, floats with %h, so no rounding hides a
   change); these reports are deterministic, so any difference is a change
   in modeled behaviour. *)

let ms = Sim.Units.ms
let pf = Printf.bprintf
let opt f = function None -> "none" | Some x -> f x
let float = Printf.sprintf "%h"

let fault_report b (r : Faults.Report.t) =
  let {
    Faults.Report.plan;
    fired;
    destroyed_at;
    destroy_reason;
    fallback_ns;
    stopped_at;
    replaced_at;
    rejected_at;
    handoff_ns;
    enclave_drops;
    watchdog_fires;
    degraded_requests;
    recovered_p99_ratio;
  } =
    r
  in
  pf b "  faults plan=%S drops=%d watchdog_fires=%d\n" plan enclave_drops
    watchdog_fires;
  List.iter (fun (t, kind) -> pf b "    fired %d %S\n" t kind) fired;
  pf b
    "    destroyed_at=%s reason=%s fallback=%s stopped_at=%s replaced_at=%s \
     rejected_at=%s handoff=%s degraded=%s recovered_p99=%s\n"
    (opt string_of_int destroyed_at)
    (opt (Printf.sprintf "%S") destroy_reason)
    (opt string_of_int fallback_ns) (opt string_of_int stopped_at)
    (opt string_of_int replaced_at) (opt string_of_int rejected_at)
    (opt string_of_int handoff_ns)
    (opt string_of_int degraded_requests)
    (opt float recovered_p99_ratio)

let enclave_report b (e : Scenario.enclave_report) =
  let {
    Scenario.ename;
    policy;
    offered_qps;
    achieved_qps;
    latency;
    batch_share;
    jobs_completed;
    jobs_total;
    finished_at;
    stats_at_measure_start;
    stats_at_measure_end;
    destroy_reason;
    all_cfs_at_destroy;
    faults;
  } =
    e
  in
  let lat { Scenario.p50_ns; p90_ns; p99_ns; p999_ns } =
    Printf.sprintf "%d/%d/%d/%d" p50_ns p90_ns p99_ns p999_ns
  in
  pf b
    "enclave %S policy=%S offered_qps=%s achieved_qps=%s latency=%s \
     batch_share=%s jobs=%d/%d finished_at=%s destroy_reason=%s \
     all_cfs_at_destroy=%s\n"
    ename policy (opt float offered_qps) (opt float achieved_qps)
    (opt lat latency) (opt float batch_share) jobs_completed jobs_total
    (opt string_of_int finished_at)
    (opt (Printf.sprintf "%S") destroy_reason)
    (opt string_of_bool all_cfs_at_destroy);
  List.iter (fun (k, v) -> pf b "  start %s=%d\n" k v) stats_at_measure_start;
  List.iter (fun (k, v) -> pf b "  end %s=%d\n" k v) stats_at_measure_end;
  fault_report b faults

let scenario_report b (r : Scenario.report) =
  let { Scenario.scenario; seed; measure_ns; enclaves } = r in
  pf b "scenario %S seed=%d measure_ns=%d\n" scenario seed measure_ns;
  List.iter (enclave_report b) enclaves

let render f x =
  let b = Buffer.create 4096 in
  f b x;
  Buffer.contents b

let fig5 b =
  List.iter (fun (machine, points) ->
      List.iter
        (fun { Experiments.Fig5.cpus; txns_per_sec } ->
          pf b "%s cpus=%d txns_per_sec=%h\n" machine cpus txns_per_sec)
        points)

let fig6 b =
  List.iter
    (fun
      {
        Experiments.Fig6.system;
        offered_kqps;
        achieved_kqps;
        p50_us;
        p99_us;
        p999_us;
        batch_share;
      }
    ->
      pf b "%s offered=%h achieved=%h p50=%h p99=%h p999=%h batch_share=%h\n"
        (Experiments.Fig6.system_name system)
        offered_kqps achieved_kqps p50_us p99_us p999_us batch_share)

let table3 b =
  List.iter (fun { Experiments.Table3.label; paper_ns; measured_ns; samples } ->
      pf b "%S paper=%d measured=%d samples=%d\n" label paper_ns measured_ns
        samples)

let colocation b { Experiments.Colocation.dynamic; static_ } =
  List.iter
    (fun
      {
        Experiments.Colocation.label;
        achieved_kqps;
        p50_us;
        p99_us;
        p999_us;
        batch_share;
        moves;
      }
    ->
      pf b "%S achieved=%h p50=%h p99=%h p999=%h batch_share=%h moves=%d\n"
        label achieved_kqps p50_us p99_us p999_us batch_share moves)
    [ dynamic; static_ ]

let bpf_identity b
    {
      Experiments.Bpf_ablation.id_completed;
      id_p50_ns;
      id_p99_ns;
      id_mean_ns;
      id_commits;
      id_msgs;
      id_ctx_switches;
    } =
  pf b "completed=%d p50=%d p99=%d mean=%h commits=%d msgs=%d ctx=%d\n"
    id_completed id_p50_ns id_p99_ns id_mean_ns id_commits id_msgs
    id_ctx_switches

(* Two passive shinjuku machines (no fleet traffic) under the lane merge. *)
let cluster_reports () =
  let scn i =
    Scenario.make ~seed:(100 + i) ~warmup_ns:(ms 5) ~measure_ns:(ms 10)
      ~cooldown_ns:(ms 5) ~machine:Hw.Machines.xeon_e5_1s
      ~enclaves:
        [
          Scenario.enclave ~policy:"shinjuku"
            ~cpus:(List.init 8 (fun c -> c))
            ~workloads:
              [
                Scenario.Openloop
                  {
                    wseed = 7 + i;
                    rate = 20_000.0;
                    service = Sim.Dist.Exponential 50_000.0;
                    nworkers = 50;
                    prefix = "worker";
                  };
              ]
            "serve";
        ]
      (Printf.sprintf "dsl-m%d" i)
  in
  let r = Cluster.run (Cluster.make ~machines:(Array.init 2 scn) "dsl-cluster") in
  Array.to_list
    (Array.map (fun (m : Cluster.machine_report) -> m.Cluster.scenario)
       r.Cluster.machines)

(* fifo-percpu on 16 CPUs under an open loop plus spinners: idle agents
   steal constantly, and [Percpu.try_steal] breaks ties between equally deep
   sibling queues in [Dsl.Buckets] fold order, so this case pins that
   order. *)
let percpu_scenario ?controller ?(extra = []) ~cpus name =
  Scenario.make ~seed:11 ~warmup_ns:(ms 5) ~measure_ns:(ms 20) ~cooldown_ns:(ms 5)
    ~machine:Hw.Machines.xeon_e5_1s ?controller
    ~enclaves:
      (Scenario.enclave ~policy:"fifo-percpu" ~cpus
         ~workloads:
           [
             Scenario.Openloop
               {
                 wseed = 5;
                 rate = 400_000.0;
                 service = Sim.Dist.Exponential 25_000.0;
                 nworkers = 128;
                 prefix = "w";
               };
             Scenario.Spin { threads = 8; thread_ns = 50_000; prefix = "spin" };
           ]
         "serve"
      :: extra)
    name

let percpu_steal () =
  Scenario.run (percpu_scenario ~cpus:(List.init 16 Fun.id) "percpu-steal")

(* Local-agent resizing: a controller lends CPU 15 from a batch enclave to
   the fifo-percpu enclave and later takes CPU 1 away from it, so the
   local-mode resize path (agent spawn/retire, queue orphaning, watcher
   re-pointing) and the policy's home migration run. *)
let percpu_resize () =
  let tick (live : Scenario.live) =
    let now = Scenario.now live in
    if now = ms 8 then Scenario.move_cpu live ~src:"batch" ~dst:"serve" 15
    else if now = ms 14 then Scenario.move_cpu live ~src:"serve" ~dst:"batch" 1
  in
  Scenario.run
    (percpu_scenario
       ~controller:{ Scenario.period_ns = ms 1; tick }
       ~cpus:(List.init 12 Fun.id)
       ~extra:
         [
           Scenario.enclave ~policy:"search" ~cpus:[ 12; 13; 14; 15 ]
             ~workloads:[ Scenario.Batch { n = 4; prefix = "batch" } ]
             "batch";
         ]
       "percpu-resize")

(* [Shinjuku.policy] at its own default timeslice, attached directly (not
   through the registry), under requests long enough to be preempted: the
   report changes when that one default does. *)
let shinjuku_default_slice b () =
  let k = Kernel.create Hw.Machines.xeon_e5_1s in
  let sys = Ghost.System.install k in
  let cpus = Kernel.Cpumask.of_list ~ncpus:(Kernel.ncpus k) (List.init 4 Fun.id) in
  let e = Ghost.System.create_enclave sys ~cpus () in
  let st, pol = Policies.Shinjuku.policy ~is_batch:(fun _ -> false) () in
  let _g = Ghost.Agent.attach_global sys e pol in
  let ol =
    Workloads.Openloop.create k ~seed:3 ~rate:40_000.0
      ~service:(Sim.Dist.Exponential 60_000.0) ~nworkers:32
      ~spawn:(fun ~idx body ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) body in
        Ghost.System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 20);
  Kernel.run_until k (ms 40);
  let rec_ = Workloads.Openloop.recorder ol in
  let { Policies.Central.lc_scheduled; be_scheduled; lc_preemptions; be_evictions; estales } =
    Policies.Shinjuku.stats st
  in
  pf b "offered=%d completed=%d p50=%d p99=%d\n"
    (Workloads.Openloop.offered ol)
    (Workloads.Recorder.completed rec_)
    (Workloads.Recorder.p rec_ 50.0)
    (Workloads.Recorder.p rec_ 99.0);
  pf b "lc_scheduled=%d be_scheduled=%d lc_preemptions=%d be_evictions=%d estales=%d\n"
    lc_scheduled be_scheduled lc_preemptions be_evictions estales

let case name run = Alcotest.test_case name `Quick (fun () -> Golden.check name (run ()))

let () =
  Alcotest.run "golden"
    [
      ( "experiments",
        [
          case "fig5" (fun () ->
              render fig5 (Experiments.Fig5.run ~measure_ns:(ms 10) ()));
          case "fig6" (fun () ->
              render fig6
                (Experiments.Fig6.run ~rates:[ 100_000.; 250_000. ]
                   ~warmup_ns:(ms 50) ~measure_ns:(ms 100) ()));
          case "table3" (fun () ->
              render table3 (Experiments.Table3.run ~samples:120 ()));
          case "colocation" (fun () ->
              render colocation
                (Experiments.Colocation.run ~seed:42 ~warmup_ns:(ms 30)
                   ~measure_ns:(ms 90) ()));
          case "cluster" (fun () ->
              render (fun b -> List.iter (scenario_report b)) (cluster_reports ()));
          case "bpf-no-program" (fun () ->
              render bpf_identity (Experiments.Bpf_ablation.run_identity ()));
          case "colocation-resize" (fun () ->
              render colocation
                (Experiments.Colocation.run ~seed:42 ~warmup_ns:(ms 5)
                   ~measure_ns:(ms 110) ~high:300_000. ()));
          case "percpu-steal" (fun () -> render scenario_report (percpu_steal ()));
          case "percpu-resize" (fun () -> render scenario_report (percpu_resize ()));
          case "shinjuku-default-slice" (fun () -> render shinjuku_default_slice ());
        ] );
      ( "smoke",
        List.map
          (fun (name, r) ->
            case ("smoke-" ^ name) (fun () -> render scenario_report r))
          (Scenario.smoke ()) );
    ]
