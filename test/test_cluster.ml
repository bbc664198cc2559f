(* Tests for the fleet-scale cluster subsystem: the N-lane deterministic
   merge (vs a single-queue reference), cross-lane post rules, balancer and
   fleet-controller behaviour, machine-scoped trace decoding, and the two
   end-to-end contracts — cluster runs are byte-reproducible at a fixed
   seed, and a machine inside a cluster with no fleet traffic reproduces
   its standalone scenario report exactly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let qtest = QCheck.Test.make

(* --- Lanes: merge order ------------------------------------------------------- *)

(* Reference semantics: firing order is a stable sort of the posted events
   by (time, lane) — stability supplies the per-lane seq tie-break, since
   static posts enter each lane in list order. *)
let merge_order_property (nlanes, posts) =
  let engines = Array.init nlanes (fun _ -> Sim.Engine.create ()) in
  let lanes = Sim.Lanes.create engines in
  let fired = ref [] in
  List.iteri
    (fun idx (lane, time) ->
      ignore
        (Sim.Lanes.post lanes ~lane ~time (fun () ->
             fired := (time, lane, idx) :: !fired)))
    posts;
  Sim.Lanes.run_until lanes (ms 1);
  let got = List.rev !fired in
  let expect =
    List.mapi (fun idx (lane, time) -> (time, lane, idx)) posts
    |> List.stable_sort (fun (t1, l1, _) (t2, l2, _) ->
           if t1 <> t2 then compare t1 t2 else compare l1 l2)
  in
  got = expect

let test_merge_order_qcheck =
  let gen =
    QCheck.(
      pair (int_range 1 5)
        (list_of_size
           Gen.(int_range 0 60)
           (pair (int_range 0 4) (int_range 0 50))))
    |> QCheck.map_same_type (fun (nlanes, posts) ->
           (* Clamp lanes into range; coarse times force plenty of
              same-time collisions to stress the (lane, seq) tie-break. *)
           ( nlanes,
             List.map (fun (l, t) -> (l mod nlanes, t * 100)) posts ))
  in
  qtest ~name:"lane merge fires in single-queue reference order" ~count:300
    gen merge_order_property

let test_merge_cross_posts () =
  (* Events firing on one lane post into other lanes; the merge must fire
     everything exactly once in (time, lane) order, including chains. *)
  let engines = Array.init 3 (fun _ -> Sim.Engine.create ()) in
  let lanes = Sim.Lanes.create engines in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore
    (Sim.Lanes.post lanes ~lane:0 ~time:100 (fun () ->
         note "a0" ();
         (* same time, higher lane: must fire after every lane-0 event at
            t=100 but before t=101 *)
         ignore (Sim.Lanes.post lanes ~lane:2 ~time:100 (note "c0"));
         ignore
           (Sim.Lanes.post lanes ~lane:1 ~time:150 (fun () ->
                note "b0" ();
                ignore (Sim.Lanes.post lanes ~lane:0 ~time:150 (note "a1"))))));
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:100 (note "a2"));
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:120 (note "b1"));
  Sim.Lanes.run_until lanes 1_000;
  Alcotest.(check (list string))
    "cross-post chain order"
    [ "a0"; "a2"; "c0"; "b1"; "b0"; "a1" ]
    (List.rev !fired);
  check_int "all fired" 6 (Sim.Lanes.events_fired lanes)

let test_merge_past_post_rejected () =
  let lanes = Sim.Lanes.create [| Sim.Engine.create (); Sim.Engine.create () |] in
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:500 ignore);
  Sim.Lanes.run_until lanes 500;
  Alcotest.check_raises "past post"
    (Invalid_argument "Lanes.post: time 499 is before global now 500")
    (fun () -> ignore (Sim.Lanes.post lanes ~lane:1 ~time:499 ignore))

let test_lane_switch_hook () =
  (* The hook fires when the draining lane changes — the cluster harness
     relies on it to scope trace output to the right machine. *)
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let switches = ref [] in
  let lanes =
    Sim.Lanes.create ~on_lane_switch:(fun i -> switches := i :: !switches) engines
  in
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:10 ignore);
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:20 ignore);
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:30 ignore);
  Sim.Lanes.run_until lanes 100;
  Alcotest.(check (list int)) "switch sequence" [ 1; 0; 1 ] (List.rev !switches)

(* --- Lanes: cached heads vs the scan-every-lane merge ------------------------ *)

(* Reference: the merge before heads were cached — every batch scans
   [Engine.next_time] on every lane for the winner and the runner-up. *)
module Scan_lanes = struct
  type t = { engines : Sim.Engine.t array; mutable xmin : int }

  let create engines = { engines; xmin = max_int }

  let post t ~lane ~time fn =
    if time < t.xmin then t.xmin <- time;
    Sim.Engine.post t.engines.(lane) ~time fn

  let rec run_until t horizon =
    let best = ref (-1) and best_t = ref max_int and runner = ref max_int in
    Array.iteri
      (fun i e ->
        let ti = Sim.Engine.next_time e in
        if ti < !best_t then (runner := !best_t; best_t := ti; best := i)
        else if ti < !runner then runner := ti)
      t.engines;
    if !best >= 0 && !best_t <= horizon then begin
      let e = t.engines.(!best) in
      t.xmin <- max_int;
      let rec drain () =
        ignore (Sim.Engine.step e);
        let h = Sim.Engine.next_time e in
        if h <= horizon && h < !runner && h < t.xmin then drain ()
      in
      drain ();
      run_until t horizon
    end
    else Array.iter (fun e -> Sim.Engine.run_until e horizon) t.engines
end

(* A self-extending world: each event logs itself, then — decided by a
   generator seeded with (seed, id), so both merges see the same program —
   cross-posts through the merge, posts to its own lane straight through
   [Engine.post], and cancels a pending handle on some lane (its own or
   another, which leaves a cached head early).  Set-up posts alternate
   between the merge and the engines; a second window follows the first. *)
let run_world ~post ~run_until engines (seed, posts) =
  let nlanes = Array.length engines in
  let log = ref [] and next_id = ref 0 in
  let pending = Array.make nlanes [] in
  let fresh () =
    incr next_id;
    !next_id
  in
  let rec event lane id () =
    let e = engines.(lane) in
    let now = Sim.Engine.now e in
    log := (now, lane, id) :: !log;
    let rng = Random.State.make [| seed; id |] in
    if !next_id < 400 then begin
      if Random.State.int rng 3 > 0 then begin
        let dst = Random.State.int rng nlanes and id' = fresh () in
        let time = now + (50 * Random.State.int rng 6) in
        pending.(dst) <- post ~lane:dst ~time (event dst id') :: pending.(dst)
      end;
      if Random.State.bool rng then begin
        let id' = fresh () in
        let time = now + (50 * Random.State.int rng 6) in
        pending.(lane) <- Sim.Engine.post e ~time (event lane id') :: pending.(lane)
      end
    end;
    if Random.State.int rng 3 = 0 then begin
      let l = Random.State.int rng nlanes in
      match pending.(l) with
      | [] -> ()
      | hs -> Sim.Engine.cancel engines.(l) (List.nth hs (Random.State.int rng (List.length hs)))
    end
  in
  List.iteri
    (fun idx (lane, time) ->
      let id = fresh () in
      let h =
        if idx land 1 = 0 then post ~lane ~time (event lane id)
        else Sim.Engine.post engines.(lane) ~time (event lane id)
      in
      pending.(lane) <- h :: pending.(lane))
    posts;
  run_until 1_000;
  run_until 3_000;
  List.rev !log

let test_cached_heads_qcheck =
  let gen =
    QCheck.(
      triple (int_range 1 5) small_nat
        (list_of_size Gen.(int_range 0 30) (pair (int_range 0 4) (int_range 0 20))))
    |> QCheck.map_same_type (fun (nlanes, seed, posts) ->
           (nlanes, seed, List.map (fun (l, t) -> (l mod nlanes, t * 50)) posts))
  in
  qtest ~name:"cached-head merge matches the scan-every-lane merge" ~count:300
    gen (fun (nlanes, seed, posts) ->
      let engines = Array.init nlanes (fun _ -> Sim.Engine.create ()) in
      let lanes = Sim.Lanes.create engines in
      let got =
        run_world ~post:(Sim.Lanes.post lanes) ~run_until:(Sim.Lanes.run_until lanes)
          engines (seed, posts)
      in
      let engines = Array.init nlanes (fun _ -> Sim.Engine.create ()) in
      let ref_lanes = Scan_lanes.create engines in
      let expect =
        run_world ~post:(Scan_lanes.post ref_lanes)
          ~run_until:(Scan_lanes.run_until ref_lanes) engines (seed, posts)
      in
      got = expect)

let test_setup_posts_seen () =
  (* Set-up code posts straight into the engines, before the first window
     and between windows; the merge must still fire them in order. *)
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let lanes = Sim.Lanes.create engines in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:300 (note "a300"));
  ignore (Sim.Engine.post engines.(1) ~time:100 (note "b100"));
  Sim.Lanes.run_until lanes 500;
  ignore (Sim.Engine.post engines.(1) ~time:600 (note "b600"));
  ignore (Sim.Engine.post engines.(0) ~time:700 (note "a700"));
  Sim.Lanes.run_until lanes 1_000;
  Alcotest.(check (list string))
    "set-up posts fire in order"
    [ "b100"; "a300"; "b600"; "a700" ]
    (List.rev !fired)

let test_cancelled_head () =
  (* Lane 0 cancels lane 1's head after the merge cached it: the stale
     entry must not let lane 1's later event jump ahead of lane 0's. *)
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let lanes = Sim.Lanes.create engines in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  let h = Sim.Lanes.post lanes ~lane:1 ~time:100 (note "b100") in
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:300 (note "b300"));
  ignore
    (Sim.Lanes.post lanes ~lane:0 ~time:50 (fun () ->
         note "a50" ();
         Sim.Engine.cancel engines.(1) h));
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:200 (note "a200"));
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:300 (note "a300"));
  Sim.Lanes.run_until lanes 1_000;
  Alcotest.(check (list string))
    "cancelled head skipped, order kept"
    [ "a50"; "a200"; "a300"; "b300" ]
    (List.rev !fired)

let test_bypassed_post_raises () =
  (* A callback posting straight into another lane's engine sidesteps the
     cached heads; the merge must refuse rather than misorder. *)
  let bypass ~other_event =
    let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
    let lanes = Sim.Lanes.create engines in
    if other_event then ignore (Sim.Lanes.post lanes ~lane:1 ~time:100 ignore);
    ignore
      (Sim.Lanes.post lanes ~lane:0 ~time:10 (fun () ->
           ignore (Sim.Engine.post engines.(1) ~time:50 ignore)));
    ignore (Sim.Lanes.post lanes ~lane:0 ~time:60 ignore);
    fun () -> Sim.Lanes.run_until lanes 1_000
  in
  let msg =
    "Lanes.run_until: lane 1 holds an event at 50 posted around the merge \
     (cross-lane posts must use Lanes.post)"
  in
  Alcotest.check_raises "left inside the window" (Invalid_argument msg)
    (bypass ~other_event:false);
  Alcotest.check_raises "ahead of the cached head" (Invalid_argument msg)
    (bypass ~other_event:true)

(* --- Balancer ----------------------------------------------------------------- *)

let test_balancer_round_robin () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Round_robin ~n:3 ~rng in
  let picks = List.init 7 (fun _ -> Cluster.Balancer.pick b) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0 ] picks

let test_balancer_weighted () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Weighted ~n:3 ~rng in
  (* All weight on machine 1: every draw lands there. *)
  Cluster.Balancer.set_weights b [| 0.0; 5.0; 0.0 |];
  for _ = 1 to 50 do
    check_int "degenerate weights" 1 (Cluster.Balancer.pick b)
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "normalised" true (Float.abs (w.(1) -. 1.0) < 1e-9);
  Alcotest.check_raises "arity" (Invalid_argument "Balancer.set_weights: arity")
    (fun () -> Cluster.Balancer.set_weights b [| 1.0 |]);
  Alcotest.check_raises "zero total"
    (Invalid_argument "Balancer.set_weights: zero total") (fun () ->
      Cluster.Balancer.set_weights b [| 0.0; 0.0; 0.0 |])

let test_fleet_controller_shifts_weight () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Weighted ~n:2 ~rng in
  let f = Cluster.Fleet.create 2 in
  Cluster.Fleet.note_signal f ~mid:0 ~depth:0;
  Cluster.Fleet.note_signal f ~mid:1 ~depth:100;
  for _ = 1 to 20 do
    Cluster.Fleet.rebalance f b
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "weight drained from deep machine" true (w.(0) > 0.9 && w.(1) < 0.1);
  check_bool "rebalances counted" true (Cluster.Fleet.rebalances f > 0);
  (* Depths equalised: weights converge back toward 1/2. *)
  Cluster.Fleet.note_signal f ~mid:1 ~depth:0;
  for _ = 1 to 50 do
    Cluster.Fleet.rebalance f b
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "recovers toward even" true (Float.abs (w.(0) -. 0.5) < 0.05)

(* --- Machine-scoped trace decoding -------------------------------------------- *)

let test_machine_scope_roundtrip () =
  let s = Obs.Sink.create () in
  Obs.Sink.install s;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
      Obs.Sink.sched s ~time:10
        (Obs.Sink.Dispatch { cpu = 0; tid = 1; name = "t"; migrated = false });
      Obs.Sink.set_machine 0;
      Obs.Sink.sched s ~time:20 (Obs.Sink.Preempt { cpu = 0; tid = 1 });
      Obs.Sink.set_machine 3;
      Obs.Sink.sched s ~time:30 (Obs.Sink.Block { cpu = 1; tid = 2 });
      Obs.Sink.set_machine (-1);
      Obs.Sink.sched s ~time:40 (Obs.Sink.Yield { cpu = 0; tid = 1 });
      let machines =
        List.map (fun e -> e.Obs.Sink.machine) (Obs.Sink.events s)
      in
      Alcotest.(check (list int))
        "machine stamps round-trip" [ -1; 0; 3; -1 ] machines;
      (* The CPU index survives scoping (track ids are masked on decode). *)
      let cpus =
        List.filter_map
          (fun e ->
            match e.Obs.Sink.kind with
            | Obs.Sink.Sched (Obs.Sink.Dispatch { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Preempt { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Block { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Yield { cpu; _ }) ->
              Some cpu
            | _ -> None)
          (Obs.Sink.events s)
      in
      Alcotest.(check (list int)) "cpu tracks decode" [ 0; 0; 1; 0 ] cpus)

(* --- End-to-end: determinism and standalone identity --------------------------- *)

let smoke_cluster () =
  let machines =
    Array.init 2 (fun i ->
        Scenario.make ~seed:(42 + i) ~warmup_ns:(ms 2) ~measure_ns:(ms 8)
          ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
          ~enclaves:
            [
              Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1; 2; 3 ]
                ~workloads:[] "serve";
            ]
          (Printf.sprintf "det-m%d" i))
  in
  Cluster.make ~machines
    ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 8 }
    ~arrivals:
      { Cluster.aseed = 7; rate = 30_000.0;
        service = Sim.Dist.Exponential 60_000.0 }
    ~routing:Cluster.Balancer.Weighted "det"

let test_cluster_deterministic () =
  let a = Cluster.to_string (Cluster.run (smoke_cluster ())) in
  let b = Cluster.to_string (Cluster.run (smoke_cluster ())) in
  Alcotest.(check string) "byte-identical fleet reports" a b;
  check_bool "served traffic" true
    ((Cluster.run (smoke_cluster ())).Cluster.fleet_served > 0)

(* The canonical fleet report of [smoke_cluster] (golden case cluster-smoke)
   pins the modeled behaviour of Weighted routing over two shinjuku
   machines.  It may only change with a deliberate behaviour change. *)
let test_cluster_golden () =
  Golden.check "cluster-smoke" (Cluster.to_string (Cluster.run (smoke_cluster ())))

let ident_scenario i =
  Scenario.make ~seed:(100 + i) ~warmup_ns:(ms 2) ~measure_ns:(ms 10)
    ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
    ~enclaves:
      [
        Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1; 2; 3 ]
          ~workloads:
            [
              Scenario.Openloop
                {
                  wseed = 7 + i;
                  rate = 10_000.0;
                  service = Sim.Dist.Exponential 40_000.0;
                  nworkers = 20;
                  prefix = "worker";
                };
            ]
          "serve";
      ]
    (Printf.sprintf "ident-m%d" i)

let test_cluster_matches_standalone () =
  (* No fleet traffic: each machine of the cluster must produce the exact
     report its scenario produces standalone — the lane merge adds nothing
     to and reorders nothing in a machine's own event stream. *)
  let solo = Array.init 2 (fun i -> Scenario.run (ident_scenario i)) in
  let r = Cluster.run (Cluster.make ~machines:(Array.init 2 ident_scenario) "ident") in
  check_int "two machine reports" 2 (Array.length r.Cluster.machines);
  Array.iteri
    (fun i (m : Cluster.machine_report) ->
      check_bool
        (Printf.sprintf "machine %d report equals standalone run" i)
        true
        (solo.(i) = m.Cluster.scenario))
    r.Cluster.machines

let test_cluster_make_validation () =
  let scn ?(measure = ms 8) name =
    Scenario.make ~seed:1 ~warmup_ns:(ms 2) ~measure_ns:measure
      ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
      ~enclaves:
        [ Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1 ] ~workloads:[] "serve" ]
      name
  in
  Alcotest.check_raises "empty fleet"
    (Invalid_argument "Cluster.make: no machines") (fun () ->
      ignore (Cluster.make ~machines:[||] "x"));
  Alcotest.check_raises "mismatched windows"
    (Invalid_argument
       "Cluster.make: machines must share warmup/measure/cooldown windows")
    (fun () ->
      ignore
        (Cluster.make
           ~machines:[| scn "a"; scn ~measure:(ms 9) "b" |]
           "x"));
  Alcotest.check_raises "arrivals without serve"
    (Invalid_argument "Cluster.make: arrivals need a serve pool") (fun () ->
      ignore
        (Cluster.make ~machines:[| scn "a" |]
           ~arrivals:
             { Cluster.aseed = 1; rate = 1.0;
               service = Sim.Dist.Exponential 1.0 }
           "x"))

let () =
  Alcotest.run "cluster"
    [
      ( "lanes",
        [
          QCheck_alcotest.to_alcotest test_merge_order_qcheck;
          Alcotest.test_case "cross-post chains" `Quick test_merge_cross_posts;
          Alcotest.test_case "past post rejected" `Quick
            test_merge_past_post_rejected;
          Alcotest.test_case "lane-switch hook" `Quick test_lane_switch_hook;
          QCheck_alcotest.to_alcotest test_cached_heads_qcheck;
          Alcotest.test_case "set-up posts seen" `Quick test_setup_posts_seen;
          Alcotest.test_case "cancelled head keeps order" `Quick test_cancelled_head;
          Alcotest.test_case "bypassed post raises" `Quick test_bypassed_post_raises;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "round-robin cycles" `Quick
            test_balancer_round_robin;
          Alcotest.test_case "weighted draw + validation" `Quick
            test_balancer_weighted;
          Alcotest.test_case "controller shifts weight" `Quick
            test_fleet_controller_shifts_weight;
        ] );
      ( "obs",
        [
          Alcotest.test_case "machine scope round-trip" `Quick
            test_machine_scope_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "byte-identical at fixed seed" `Quick
            test_cluster_deterministic;
          Alcotest.test_case "golden fleet report" `Quick test_cluster_golden;
          Alcotest.test_case "matches standalone scenario runs" `Quick
            test_cluster_matches_standalone;
          Alcotest.test_case "spec validation" `Quick
            test_cluster_make_validation;
        ] );
    ]
