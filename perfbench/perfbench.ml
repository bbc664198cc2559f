(* The repository benchmark: three scenario workloads driven through the
   public Scenario / Cluster entry points, end-to-end metrics from untraced
   runs, per-layer metrics from a separate traced run.

     perfbench.exe --workload bpf-sat|percpu-traced|fleet-8 --seed N
                   --seconds S --trace 0|1

   The seed fixes K independent modeled sub-runs (replications).  One
   replay runs all K; a run repeats the replay, each followed by a fixed
   calibration kernel, until S host seconds have passed.  Host times are
   medians over replays, scaled to a reference host speed by the
   calibration kernel's median time.  Modeled numbers are identical across
   replays, and the benchmark fails when they are not.  Human-readable
   lines (manifest, model accuracy, host speed, every metric) come first;
   the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.  See README.md for why each
   workload exists and which end-to-end metric each layer metric moves. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* --- Pass-through policy probe -------------------------------------------- *)

(* Every workload names its policy through a benchmark-only registry entry
   that wraps [Registry.make <inner spec>].  Untraced runs use a wrapper
   that only notes the host time of the first scheduling pass (the end of
   fleet set-up); traced runs time every callback.  The wrappers charge no
   simulated time, so the modeled run is the same either way. *)
module Probe = struct
  let timed = ref false
  let first_pass = ref (-1)
  let last_pass = ref (-1)
  let sched_calls = ref 0
  let sched_ns = ref 0
  let result_calls = ref 0
  let result_ns = ref 0
  let commits = ref 0
  let failures = ref 0
  let estales = ref 0

  let reset () =
    List.iter (fun r -> r := 0)
      [ sched_calls; sched_ns; result_calls; result_ns; commits; failures;
        estales ];
    first_pass := -1;
    last_pass := -1

  let note_result (txn : Ghost.Txn.t) =
    match txn.Ghost.Txn.status with
    | Ghost.Txn.Committed -> incr commits
    | Ghost.Txn.Failed f ->
      incr failures;
      if f = Ghost.Txn.Estale then incr estales
    | Ghost.Txn.Pending -> ()

  let light (p : Ghost.Agent.policy) =
    { p with
      Ghost.Agent.schedule =
        (fun abi msgs ->
          if !first_pass < 0 then first_pass := clock_ns ();
          p.Ghost.Agent.schedule abi msgs) }

  let timing (p : Ghost.Agent.policy) =
    { p with
      Ghost.Agent.schedule =
        (fun abi msgs ->
          let t0 = clock_ns () in
          if !first_pass < 0 then first_pass := t0;
          p.Ghost.Agent.schedule abi msgs;
          let t1 = clock_ns () in
          last_pass := t1;
          sched_ns := !sched_ns + (t1 - t0);
          incr sched_calls);
      on_result =
        (fun abi txn ->
          let t0 = clock_ns () in
          p.Ghost.Agent.on_result abi txn;
          result_ns := !result_ns + (clock_ns () - t0);
          incr result_calls;
          note_result txn) }

  let register ~name ~inner =
    let inner_name, _ = Policies.Ghost_policy.parse_spec inner in
    let mode = (Policies.Registry.info inner_name).Policies.Registry.info_mode in
    Policies.Registry.register ~name ~mode
      ~doc:(Printf.sprintf "benchmark probe around %s" inner)
      (fun _params ->
        let inst = Policies.Registry.make inner in
        let wrap = if !timed then timing else light in
        (wrap inst.Policies.Ghost_policy.policy, inst.Policies.Ghost_policy.stats))
end

(* --- Request latencies ------------------------------------------------------ *)

(* Sojourn times of the requests that arrived in the measure window and
   completed; percentiles rank over every request offered in the window, so
   an unfinished request sits beyond every completed one. *)
module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 65536 0; n = 0 }

  let record t ~now ~arrival =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- now - arrival;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort compare a;
    a

  (* Nearest-rank percentile over [offered] requests; [None] when the rank
     falls on an unfinished request. *)
  let percentile sorted ~offered q =
    let rank = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int offered))) in
    if rank > Array.length sorted then None else Some sorted.(rank - 1)
end

(* --- Workloads --------------------------------------------------------------- *)

type single = {
  policy : string;  (* inner registry spec *)
  cpus : int list;
  min_iteration : int option;
  idle_gap : int option;
  rate : float;
  service : Sim.Dist.t;
  nworkers : int;
  spin : int;  (* Spin threads beside the open loop *)
  sink : bool;  (* full-fidelity Obs sink installed as part of the workload *)
}

type kind = Single of single | Fleet of { machines : int }

type workload = {
  name : string;
  kind : kind;
  subruns : int;
  warmup_ns : int;
  measure_ns : int;
  cooldown_ns : int;
}

let us = Sim.Units.us
let ms = Sim.Units.ms

(* Fleet-8 parameters: per machine, shinjuku on 8 CPUs with 32 pool
   workers; the fleet-wide rate is this times the machine count. *)
let fleet_rate_per_machine = 20_000.0
let fleet_service = Sim.Dist.Exponential 80_000.0

(* Sub-run counts and windows keep one replay at a few host seconds while
   the modeled percentiles, averaged over the sub-runs, move little from
   seed to seed. *)
let workloads =
  [
    { name = "bpf-sat";
      kind =
        Single
          { policy = "shinjuku?fastpath=true"; cpus = [ 0; 1; 2; 3; 4 ];
            min_iteration = Some (us 10); idle_gap = Some (us 25);
            rate = 330_000.0; service = Sim.Dist.Const 10_000.0;
            nworkers = 64; spin = 0; sink = false };
      subruns = 8; warmup_ns = ms 10; measure_ns = ms 100; cooldown_ns = ms 10 };
    { name = "percpu-traced";
      kind =
        Single
          { policy = "fifo-percpu"; cpus = List.init 16 Fun.id;
            min_iteration = None; idle_gap = None; rate = 400_000.0;
            service = Sim.Dist.Exponential 25_000.0; nworkers = 128;
            spin = 8; sink = true };
      subruns = 8; warmup_ns = ms 10; measure_ns = ms 100; cooldown_ns = ms 10 };
    { name = "fleet-8"; kind = Fleet { machines = 8 };
      subruns = 2; warmup_ns = ms 10; measure_ns = ms 50; cooldown_ns = ms 10 };
  ]

let probe_name w = "perfbench-" ^ w.name

(* Inputs of sub-run [k] of a seed: one derived seed per consumer, so no two
   RNG streams of a run share a state. *)
type seeds = { kernel : int; work : int; arrivals : int }

let seeds_of seed k =
  let r = Sim.Rng.stream (Sim.Rng.create seed) ~label:(Printf.sprintf "perfbench.%d" k) in
  let draw () = Sim.Rng.int r 1_000_000_000 in
  let kernel = draw () in
  let work = draw () in
  let arrivals = draw () in
  { kernel; work; arrivals }

let single_scenario w (s : single) sd =
  let workloads =
    Scenario.Openloop
      { wseed = sd.work; rate = s.rate; service = s.service;
        nworkers = s.nworkers; prefix = "w" }
    ::
    (if s.spin > 0 then
       [ Scenario.Spin { threads = s.spin; thread_ns = us 50; prefix = "spin" } ]
     else [])
  in
  Scenario.make ~seed:sd.kernel ~warmup_ns:w.warmup_ns
    ~cooldown_ns:w.cooldown_ns ~machine:Hw.Machines.xeon_e5_1s
    ~measure_ns:w.measure_ns
    ~enclaves:
      [ Scenario.enclave ?min_iteration:s.min_iteration ?idle_gap:s.idle_gap
          ~policy:(probe_name w) ~cpus:s.cpus ~workloads "serve" ]
    w.name

let fleet_cluster w ~machines sd =
  let machine i =
    Scenario.make ~seed:(sd.kernel + i) ~warmup_ns:w.warmup_ns
      ~cooldown_ns:w.cooldown_ns ~machine:Hw.Machines.xeon_e5_1s
      ~measure_ns:w.measure_ns
      ~enclaves:
        [ Scenario.enclave ~policy:(probe_name w) ~cpus:(List.init 8 Fun.id)
            ~workloads:[] "serve" ]
      (Printf.sprintf "%s-m%d" w.name i)
  in
  Cluster.make
    ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 32 }
    ~arrivals:
      { Cluster.aseed = sd.arrivals;
        rate = fleet_rate_per_machine *. float_of_int machines;
        service = fleet_service }
    ~routing:Cluster.Balancer.Weighted
    ~machines:(Array.init machines machine)
    (Printf.sprintf "%s-x%d" w.name machines)

(* Requests the coordinator emits in [warmup, horizon): a replay of the
   cluster's "cluster.arrival" stream, which draws only inter-arrival gaps. *)
let fleet_offered w ~rate sd =
  let arr = Sim.Rng.stream (Sim.Rng.create sd.arrivals) ~label:"cluster.arrival" in
  let gap = Sim.Dist.Exponential (1e9 /. rate) in
  let horizon = w.warmup_ns + w.measure_ns in
  let rec go t n =
    if t >= horizon then n
    else go (t + Sim.Dist.sample_ns arr gap) (if t >= w.warmup_ns then n + 1 else n)
  in
  go (Sim.Dist.sample_ns arr gap) 0

(* --- One sub-run, and one replay of all sub-runs ------------------------------- *)

type mode = {
  traced : bool;  (* time policy callbacks, sample the event queue, passive sink *)
  with_sink : bool;  (* the workload's own sink (percpu-traced); off = variant *)
  fleet_size : int;  (* fleet-8 only: machines in the fleet *)
}

(* One sub-run's figures.  A replay combines its sub-runs: host times stay
   per sub-run, the percentiles are averaged, [pending_max] is the max and
   everything else is summed. *)
type run = {
  setup_s : float array;  (* per sub-run *)
  run_s : float array;  (* per sub-run *)
  finish_s : float;
  events : int;
  pending_max : int;
  offered : int;
  completed : int;
  p50_us : float;
  p99_us : float;
  rendering : string;  (* canonical text of the modeled report *)
  kernel : int array;  (* ctx_switches, wakeups, ipis, reschedules *)
  drops : int;
  rebalances : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  sched_calls : int;
  sched_ns : int;
  result_calls : int;
  result_ns : int;
  commits : int;
  failures : int;
  estales : int;
  obs_records : int;
  obs_dropped : int;
}

let render_enclave b (er : Scenario.enclave_report) =
  let pr fmt = Printf.bprintf b fmt in
  pr "enclave %s policy=%s\n" er.Scenario.ename er.Scenario.policy;
  Option.iter (pr " achieved_qps=%.3f\n") er.Scenario.achieved_qps;
  Option.iter
    (fun (l : Scenario.latency) ->
      pr " hist p50=%d p90=%d p99=%d p999=%d\n" l.Scenario.p50_ns
        l.Scenario.p90_ns l.Scenario.p99_ns l.Scenario.p999_ns)
    er.Scenario.latency;
  List.iter (fun (k, v) -> pr " stat %s=%d\n" k v) er.Scenario.stats_at_measure_end;
  pr " destroy=%s\n" (Option.value ~default:"none" er.Scenario.destroy_reason);
  pr "%s" (Faults.Report.to_string er.Scenario.faults)

let enclave_drops (ers : Scenario.enclave_report list) =
  List.fold_left
    (fun acc (er : Scenario.enclave_report) ->
      acc + er.Scenario.faults.Faults.Report.enclave_drops)
    0 ers

(* A percentile that falls on an unfinished request reads as the whole
   modeled run (a floor on that request's sojourn). *)
let lat_us w = function
  | Some ns -> float_of_int ns /. 1e3
  | None -> float_of_int (w.warmup_ns + w.measure_ns + w.cooldown_ns) /. 1e3

let with_sink on f =
  if not on then f None
  else begin
    let s = Obs.Sink.create () in
    Obs.Sink.install s;
    Fun.protect ~finally:Obs.Sink.uninstall (fun () -> f (Some s))
  end

let failf fmt = Printf.ksprintf failwith fmt

let subrun w sd ~mode =
  Probe.timed := mode.traced;
  Probe.reset ();
  let sink_on =
    mode.traced
    || (match w.kind with Single s -> s.sink && mode.with_sink | Fleet _ -> false)
  in
  Gc.compact ();
  with_sink sink_on @@ fun sink ->
  let gc0 = Gc.quick_stat () in
  let b = Buffer.create 4096 in
  (* Closes the sub-run once the modeled report is rendered into [b]. *)
  let finish ~setup ~run_s ~finish_s ~events ~pending_max ~offered ~completed
      ~p50_us ~p99_us ~kernel ~drops ~rebalances =
    let gc1 = Gc.quick_stat () in
    Printf.bprintf b "events=%d offered=%d completed=%d p50_us=%.3f p99_us=%.3f\n"
      events offered completed p50_us p99_us;
    let rendering = Buffer.contents b in
    { setup_s = [| setup |]; run_s = [| run_s |]; finish_s; events; pending_max; offered;
      completed; p50_us; p99_us; rendering; kernel;
      drops; rebalances;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      sched_calls = !Probe.sched_calls; sched_ns = !Probe.sched_ns;
      result_calls = !Probe.result_calls; result_ns = !Probe.result_ns;
      commits = !Probe.commits; failures = !Probe.failures;
      estales = !Probe.estales;
      obs_records = Option.fold ~none:0 ~some:Obs.Sink.recorded sink;
      obs_dropped = Option.fold ~none:0 ~some:Obs.Sink.dropped sink }
  in
  match w.kind with
  | Single s ->
    let scn = single_scenario w s sd in
    let t0 = clock_ns () in
    let st = Scenario.start scn in
    let t1 = clock_ns () in
    let kernel = Scenario.kernel_of st in
    let engine = Kernel.engine kernel in
    let ol = Option.get (Scenario.openloop (Scenario.find (Scenario.live_of st) "serve")) in
    let lat = Lat.create () in
    Workloads.Openloop.set_on_complete ol (Some (Lat.record lat));
    let pending_max = ref 0 in
    (* The traced run samples the live event count between 100 us slices;
       slicing [run_until] does not change the event order. *)
    let advance until =
      if not mode.traced then Kernel.run_until kernel until
      else
        while Kernel.now kernel < until do
          Kernel.run_until kernel (min until (Kernel.now kernel + us 100));
          pending_max := max !pending_max (Sim.Engine.pending engine)
        done
    in
    let horizon = w.warmup_ns + w.measure_ns in
    advance (w.warmup_ns - 1);
    let before = Workloads.Openloop.offered ol in
    advance w.warmup_ns;
    Scenario.mark_measure_start st;
    advance horizon;
    Scenario.mark_measure_end st;
    let offered = Workloads.Openloop.offered ol - before in
    advance (horizon + w.cooldown_ns);
    let t2 = clock_ns () in
    let report = Scenario.finish st in
    let t3 = clock_ns () in
    let completed = lat.Lat.n in
    let recorded = Workloads.Recorder.completed (Workloads.Openloop.recorder ol) in
    let queued = Workloads.Openloop.queued_now ol in
    (* Cross-checks of the failure accounting: every completion the workload
       recorded reached us, and every request still queued at the end counts
       as unfinished. *)
    if recorded <> completed || offered - completed < queued then
      failf "%s: accounting mismatch: offered=%d completed=%d recorded=%d queued=%d"
        w.name offered completed recorded queued;
    Printf.bprintf b "scenario %s seed=%d\n" report.Scenario.scenario
      report.Scenario.seed;
    List.iter (render_enclave b) report.Scenario.enclaves;
    let sorted = Lat.sorted lat in
    let k = Kernel.stats kernel in
    finish ~setup:(secs (t1 - t0)) ~run_s:(secs (t3 - t1)) ~finish_s:(secs (t3 - t2))
      ~events:(Sim.Engine.events_fired engine) ~pending_max:!pending_max ~offered
      ~completed
      ~p50_us:(lat_us w (Lat.percentile sorted ~offered 50.))
      ~p99_us:(lat_us w (Lat.percentile sorted ~offered 99.))
      ~kernel:[| k.Kernel.ctx_switches; k.Kernel.wakeups; k.Kernel.ipis;
                 k.Kernel.reschedules |]
      ~drops:(enclave_drops report.Scenario.enclaves) ~rebalances:0
  | Fleet _ ->
    let n = mode.fleet_size in
    let c = fleet_cluster w ~machines:n sd in
    let t0 = clock_ns () in
    let r = Cluster.run c in
    let t3 = clock_ns () in
    let t1 = !Probe.first_pass in
    let offered = fleet_offered w ~rate:(fleet_rate_per_machine *. float_of_int n) sd in
    let completed = r.Cluster.fleet_served in
    let machines = Array.to_list r.Cluster.machines in
    let per_machine =
      List.fold_left (fun acc (m : Cluster.machine_report) -> acc + m.Cluster.served)
        0 machines
    in
    if per_machine <> completed || completed > offered then
      failf "%s: accounting mismatch: offered=%d served=%d per-machine=%d"
        w.name offered completed per_machine;
    (* The fleet report exposes its latency histogram's percentiles only;
       they rank over the offered requests while every request finished. *)
    let within q v =
      lat_us w
        (if q /. 100. *. float_of_int offered > float_of_int completed then None
         else Some v)
    in
    Buffer.add_string b (Cluster.to_string r);
    let enclaves =
      List.concat_map (fun (m : Cluster.machine_report) -> m.Cluster.scenario.Scenario.enclaves)
        machines
    in
    List.iter (render_enclave b) enclaves;
    finish ~setup:(secs (t1 - t0)) ~run_s:(secs (t3 - t1))
      ~finish_s:(if !Probe.last_pass < 0 then 0. else secs (t3 - !Probe.last_pass))
      ~events:r.Cluster.events_fired ~pending_max:0 ~offered ~completed
      ~p50_us:(within 50. r.Cluster.fleet_p50_ns)
      ~p99_us:(within 99. r.Cluster.fleet_p99_ns)
      (* A fleet's kernels stay inside Cluster.run. *)
      ~kernel:[| 0; 0; 0; 0 |] ~drops:(enclave_drops enclaves)
      ~rebalances:r.Cluster.rebalances

let combine rs =
  let n = float_of_int (List.length rs) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0. rs in
  { setup_s = Array.concat (List.map (fun r -> r.setup_s) rs);
    run_s = Array.concat (List.map (fun r -> r.run_s) rs);
    finish_s = sumf (fun r -> r.finish_s);
    events = sum (fun r -> r.events);
    pending_max = List.fold_left (fun a r -> max a r.pending_max) 0 rs;
    offered = sum (fun r -> r.offered); completed = sum (fun r -> r.completed);
    p50_us = sumf (fun r -> r.p50_us) /. n; p99_us = sumf (fun r -> r.p99_us) /. n;
    rendering = String.concat "" (List.map (fun r -> r.rendering) rs);
    kernel = Array.init 4 (fun i -> sum (fun r -> r.kernel.(i)));
    drops = sum (fun r -> r.drops); rebalances = sum (fun r -> r.rebalances);
    minor_words = sumf (fun r -> r.minor_words);
    promoted_words = sumf (fun r -> r.promoted_words);
    major_collections = sum (fun r -> r.major_collections);
    sched_calls = sum (fun r -> r.sched_calls); sched_ns = sum (fun r -> r.sched_ns);
    result_calls = sum (fun r -> r.result_calls); result_ns = sum (fun r -> r.result_ns);
    commits = sum (fun r -> r.commits); failures = sum (fun r -> r.failures);
    estales = sum (fun r -> r.estales); obs_records = sum (fun r -> r.obs_records);
    obs_dropped = sum (fun r -> r.obs_dropped) }

let digest r = Digest.to_hex (Digest.string r.rendering)

(* All sub-runs of the seed.  Obs metrics accumulate over the replay and
   are read at its end. *)
let replay w ~seed ~mode =
  Obs.Metrics.reset ();
  let r = combine (List.init w.subruns (fun k -> subrun w (seeds_of seed k) ~mode)) in
  (r, Obs.Metrics.snapshot ())

(* --- Host speed calibration ------------------------------------------------------ *)

(* The shared host's speed for this kind of program drifts by up to 1.8x
   over minutes, longer than a run, so raw host times of two runs compare
   only when taken close together.  A fixed kernel of the same kind of work
   as the simulator (allocation and pointer chasing in a balanced tree of a
   few MB) runs after every replay.  It belongs to the benchmark, never to
   the program: a change to the program leaves the kernel's time alone,
   while a slower or faster host moves both, so scaling host times by
   [nominal_s] / (the kernel's median time) reports them at one reference
   speed. *)
module Calibration = struct
  module M = Map.Make (Int)

  (* The kernel's host time at the reference speed, a round figure; it
     took 80-140 ms on the 2-vCPU host the bounds were measured on. *)
  let nominal_s = 0.1

  let kernel () =
    let r = Random.State.make [| 3 |] in
    let m = ref M.empty in
    for i = 1 to 150_000 do
      m := M.add (Random.State.int r 1_000_000) i !m;
      if i land 1 = 0 then m := M.remove (fst (M.min_binding !m)) !m
    done;
    M.cardinal !m

  let time () =
    Gc.compact ();
    let t0 = clock_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    secs (clock_ns () - t0)
end

(* --- Statistics and output ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

type metric = { mname : string; value : float; unit_ : string; is_int : bool }

let m mname unit_ value = { mname; value; unit_; is_int = false }
let mi mname unit_ v = { mname; value = float_of_int v; unit_; is_int = true }

(* Shortest decimal that reads back as the same float. *)
let number x is_int =
  if is_int then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let print_human title metrics =
  print_endline title;
  List.iter
    (fun x -> Printf.printf "  %-36s %22s %s\n" x.mname (number x.value x.is_int) x.unit_)
    metrics

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
             (number x.value x.is_int) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let hist_us obs name pick =
  match List.assoc_opt name obs with
  | Some (Obs.Metrics.Histogram h) -> float_of_int (pick h) /. 1e3
  | _ -> 0.

let counter obs name =
  match List.assoc_opt name obs with Some (Obs.Metrics.Counter n) -> n | _ -> 0

(* --- Model accuracy ------------------------------------------------------------ *)

let model_accuracy () =
  let lines = Experiments.Table3.run ~samples:100 () in
  let errs =
    List.map
      (fun (l : Experiments.Table3.line) ->
        ( Float.abs (ratio_i (l.measured_ns - l.paper_ns) l.paper_ns),
          l.Experiments.Table3.label ))
      lines
  in
  let maxe, maxl = List.fold_left max (0., "") errs in
  let mean = List.fold_left (fun a (e, _) -> a +. e) 0. errs /. float_of_int (List.length errs) in
  Printf.printf
    "model-accuracy: Table 3 primitives vs paper_ns over %d lines: max |err| \
     %.1f%% (%s), mean |err| %.1f%%.  Calibration against tuning data (the \
     cost model was fitted to these numbers), not validation; the three \
     workloads have no reference values, so their modeled numbers are \
     unvalidated.\n"
    (List.length lines) (100. *. maxe) maxl (100. *. mean)

(* --- Metrics ------------------------------------------------------------------- *)

let total xs = Array.fold_left ( +. ) 0. xs

(* Unscaled host times, as medians over replays: of a replay's run, and of
   each sub-run's set-up (then the median over sub-runs). *)
let host_run_s rs = median (List.map (fun (r, _) -> total r.run_s) rs)

let host_setup_s rs =
  let k = Array.length (fst (List.hd rs)).setup_s in
  median (List.init k (fun i -> median (List.map (fun (r, _) -> r.setup_s.(i)) rs)))

let end_to_end ~scale ~peak_words base =
  let first = fst (List.hd base) in
  let run_s = scale *. host_run_s base in
  [ m "setup_s" "s" (scale *. host_setup_s base);
    m "run_s" "s" run_s;
    m "events_per_s" "1/s" (float_of_int first.events /. run_s);
    m "peak_heap_mb" "MB" (float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6);
    m "sim_p50_us" "us" first.p50_us;
    m "sim_p99_us" "us" first.p99_us ]

(* [tr]: traced replays; [base]: untraced replays; [variant]: the
   workload's comparison replays (percpu-traced without its sink, fleet-8
   as a 1-machine fleet), each with the Obs metrics read at its end. *)
let per_layer ~scale ~calibration_s ~fleet ~tr ~base ~variant =
  let t, obs = List.hd tr in
  let med rs f = median (List.map (fun (r, _) -> f r) rs) in
  let sink_share, rate_ratio =
    match variant with
    | [] -> (0., 0.)
    | v when fleet ->
      let rate rs = float_of_int (fst (List.hd rs)).events /. host_run_s rs in
      (0., ratio (rate base) (rate v))
    | v -> (ratio (host_run_s base -. host_run_s v) (host_run_s base), 0.)
  in
  let ctx, wake =
    if fleet then (counter obs "sched.dispatches", counter obs "sched.wakeups")
    else (t.kernel.(0), t.kernel.(1))
  in
  let picks = counter obs "bpf.picks" and misses = counter obs "bpf.misses" in
  [ mi "sim.events" "count" t.events;
    mi "sim.pending_max" "count" t.pending_max;
    m "lanes.rate_ratio_8_1" "ratio" rate_ratio;
    mi "cluster.served" "count" (if fleet then t.completed else 0);
    mi "cluster.rebalances" "count" t.rebalances;
    mi "kernel.ctx_switches" "count" ctx;
    mi "kernel.wakeups" "count" wake;
    mi "kernel.ipis" "count" t.kernel.(2);
    mi "kernel.reschedules" "count" t.kernel.(3);
    m "kernel.wakeup_to_dispatch_p99_us" "us"
      (hist_us obs "sched.wakeup_to_dispatch_ns" (fun h -> h.Obs.Metrics.p99));
    mi "ghost.msgs_posted" "count" (counter obs "msg.produced" + counter obs "msg.dropped");
    mi "ghost.msg_drops" "count" t.drops;
    mi "ghost.commits" "count" t.commits;
    mi "ghost.commit_failures" "count" t.failures;
    mi "ghost.estales" "count" t.estales;
    m "ghost.commit_ok_ratio" "ratio" (ratio_i t.commits (t.commits + t.failures));
    m "ghost.msg_queue_delay_p99_us" "us"
      (hist_us obs "msg.queue_delay_ns" (fun h -> h.Obs.Metrics.p99));
    m "ghost.txn_commit_latency_p99_us" "us"
      (hist_us obs "txn.commit_latency_ns" (fun h -> h.Obs.Metrics.p99));
    m "ghost.agent_pass_p50_us" "us" (hist_us obs "agent.pass_ns" (fun h -> h.Obs.Metrics.p50));
    mi "policy.schedule.calls" "count" t.sched_calls;
    m "policy.schedule.ns_per_call" "ns"
      (scale *. med tr (fun r -> ratio_i r.sched_ns r.sched_calls));
    m "policy.schedule.share" "ratio" (med tr (fun r -> ratio (secs r.sched_ns) (total r.run_s)));
    mi "policy.on_result.calls" "count" t.result_calls;
    m "policy.on_result.ns_per_call" "ns"
      (scale *. med tr (fun r -> ratio_i r.result_ns r.result_calls));
    mi "bpf.picks" "count" picks;
    mi "bpf.misses" "count" misses;
    mi "bpf.fallbacks" "count" (counter obs "bpf.fallbacks");
    m "bpf.miss_per_pick" "ratio" (ratio_i misses picks);
    mi "obs.records" "count" t.obs_records;
    mi "obs.dropped" "count" t.obs_dropped;
    m "obs.sink_share" "ratio" sink_share;
    mi "workloads.offered" "count" t.offered;
    mi "workloads.completed" "count" t.completed;
    mi "workloads.unfinished" "count" (t.offered - t.completed);
    m "unfinished_frac" "ratio" (ratio_i (t.offered - t.completed) t.offered);
    m "scenario.start_s" "s" (scale *. host_setup_s base);
    m "scenario.finish_s" "s" (scale *. med tr (fun r -> r.finish_s));
    m "gc.minor_words_per_event" "words" (ratio t.minor_words (float_of_int t.events));
    m "gc.promoted_words_per_event" "words" (ratio t.promoted_words (float_of_int t.events));
    mi "gc.major_collections" "count" t.major_collections;
    m "residual.ns_per_event" "ns"
      (scale *. med tr (fun r ->
           ratio ((total r.run_s -. secs (r.sched_ns + r.result_ns)) *. 1e9)
             (float_of_int r.events)));
    m "trace.overhead_frac" "ratio" (ratio (host_run_s tr) (host_run_s base) -. 1.);
    m "host.calibration_ms" "ms" (1e3 *. calibration_s);
    m "host.run_s_unscaled" "s" (host_run_s base) ]

(* --- Main ------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME bpf-sat | percpu-traced | fleet-8");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace 0|1"; exit 2);
  List.iter
    (fun w ->
      let inner = match w.kind with Single s -> s.policy | Fleet _ -> "shinjuku" in
      Probe.register ~name:(probe_name w) ~inner)
    workloads;
  let traced = !trace = 1 in
  let fleet, fleet_size =
    match w.kind with Fleet { machines } -> (true, machines) | Single _ -> (false, 1)
  in
  let plain = { traced = false; with_sink = true; fleet_size } in
  let tmode = { plain with traced = true } in
  (* The traced run alternates the traced replay with an untraced one (for
     the overhead) and the workload's comparison variant. *)
  let vmode =
    match w.kind with
    | Single s when traced && s.sink -> Some { plain with with_sink = false }
    | Fleet _ when traced -> Some { plain with fleet_size = 1 }
    | Single _ | Fleet _ -> None
  in
  let cycle = if traced then tmode :: plain :: Option.to_list vmode else [ plain ] in
  let deadline = clock_ns () + (!seconds * 1_000_000_000) in
  let results = Hashtbl.create 4 in
  (* Peak heap of a fresh process after one replay: a fixed amount of work,
     where later replays would add GC peaks in number with host speed. *)
  let peak_words = ref 0 in
  let calibrations = ref [] in
  let rec loop k =
    let t0 = clock_ns () in
    List.iter
      (fun md ->
        let r = replay w ~seed:!seed ~mode:md in
        if k = 1 && md = plain then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
        Hashtbl.replace results md (r :: Option.value ~default:[] (Hashtbl.find_opt results md));
        calibrations := Calibration.time () :: !calibrations)
      cycle;
    (* At least two replays, so the replay check always has a pair; then
       stop where the run ends nearest the deadline. *)
    let now = clock_ns () in
    if k < 2 || now + ((now - t0) / 2) < deadline then loop (k + 1)
  in
  loop 1;
  let runs md = List.rev (Hashtbl.find results md) in
  let base = runs plain in
  let first = fst (List.hd base) in
  (* Output check: every replay of the seed, traced or not, with or without
     the passive sink, renders the same modeled report. *)
  let disagree =
    List.filter
      (fun md ->
        let rs = List.map fst (runs md) in
        let ref_ = if md.fleet_size = fleet_size then first else List.hd rs in
        List.exists (fun r -> r.rendering <> ref_.rendering) rs)
      cycle
  in
  let correct = disagree = [] in
  List.iter
    (fun md ->
      Printf.printf "CHECK FAILED: replays disagree (traced=%b sink=%b machines=%d)\n"
        md.traced md.with_sink md.fleet_size;
      List.iter (fun (r, _) -> Printf.printf "--- %s\n%s" (digest r) r.rendering) (runs md))
    disagree;
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Printf.printf
    "manifest: workload=%s seed=%d trace=%d git_rev=%s dune_profile=%s ocaml=%s \
     nproc=%d subruns=%d replays=%d report_digest=%s\n"
    w.name !seed !trace (env "PERFBENCH_GIT_REV") (env "PERFBENCH_PROFILE")
    Sys.ocaml_version (Domain.recommended_domain_count ()) w.subruns
    (List.length base) (digest first);
  let unfinished = first.offered - first.completed in
  let calibration_s = median !calibrations in
  let scale = Calibration.nominal_s /. calibration_s in
  let metrics =
    if traced then
      per_layer ~scale ~calibration_s ~fleet ~tr:(runs tmode) ~base
        ~variant:(Option.fold ~none:[] ~some:runs vmode)
    else end_to_end ~scale ~peak_words:!peak_words base
  in
  model_accuracy ();
  Printf.printf
    "host speed: calibration kernel %.2f ms (median of %d), %.0f ms at the reference \
     speed; host times below are scaled by %.4f (unscaled run_s %s s)\n"
    (1e3 *. calibration_s) (List.length !calibrations) (1e3 *. Calibration.nominal_s) scale
    (number (host_run_s base) false);
  if traced then
    print_human "per-layer (traced run; counts are modeled, ns/s/share are host):" metrics
  else begin
    print_human "end-to-end (host: median over replays, scaled; sim_*: mean over sub-runs):" metrics;
    Printf.printf "  %-36s %22s ratio (not in JSON: 0 on every workload)\n"
      "unfinished_frac" (number (ratio_i unfinished first.offered) false)
  end;
  print_endline (json_line ~correct ~attempted:first.offered ~failed:unfinished metrics);
  if not correct then exit 1
