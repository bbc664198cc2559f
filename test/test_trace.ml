(* Tests for the kernel's scheduling-event tracing through the Obs sink:
   sched records in the ring, and the kernel's per-event hooks. *)

module Task = Kernel.Task
module Sink = Obs.Sink

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "trace-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

(* Install a fresh sink for the duration of [fn]; a failing assertion can't
   leak it into the next test. *)
let with_sink fn =
  Obs.Metrics.reset ();
  let sink = Sink.create () in
  Sink.install sink;
  Fun.protect ~finally:Sink.uninstall (fun () -> fn sink)

let sched_events sink =
  List.filter_map
    (fun (e : Sink.ev) ->
      match e.Sink.kind with Sink.Sched s -> Some (e.Sink.time, s) | _ -> None)
    (Sink.events sink)

let test_ring_basics () =
  let sink = Sink.create ~capacity:64 () in
  check_int "empty" 0 (Sink.length sink);
  for i = 1 to 3 do
    Sink.sched sink ~time:i (Sink.Idle { cpu = i })
  done;
  check_int "three records" 3 (Sink.length sink);
  (match Sink.events sink with
  | { Sink.time = 1; kind = Sink.Sched (Sink.Idle { cpu = 1 }); _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest first");
  (* Overflow keeps the most recent. *)
  let n = 100 in
  for i = 4 to n do
    Sink.sched sink ~time:i (Sink.Idle { cpu = i })
  done;
  check_int "total counts everything" n (Sink.recorded sink);
  check_bool "bounded" true (Sink.dropped sink > 0 && Sink.length sink < n);
  check_int "length = recorded - dropped" (n - Sink.dropped sink) (Sink.length sink);
  let times = List.map (fun e -> e.Sink.time) (Sink.events sink) in
  let len = Sink.length sink in
  check_bool "newest survive, oldest first" true
    (times = List.init len (fun i -> n - len + 1 + i))

let test_iter_matches_records () =
  let sink = Sink.create ~capacity:64 () in
  for i = 1 to 40 do
    (* Overflows the ring so both paths must agree on the wrapped window. *)
    Sink.sched sink ~time:i (Sink.Wake { tid = i; target_cpu = i mod 3 })
  done;
  check_bool "wrapped" true (Sink.dropped sink > 0);
  let via_iter = ref [] in
  Sink.iter sink (fun e -> via_iter := e :: !via_iter);
  check_bool "iter visits events-list order" true
    (List.rev !via_iter = Sink.events sink);
  check_int "iter count" (Sink.length sink) (List.length !via_iter)

let test_kernel_emits_lifecycle () =
  with_sink (fun sink ->
      let k = Kernel.create (machine 2) in
      let task =
        Kernel.create_task k ~name:"traced" (fun () ->
            Task.Run
              {
                ns = us 100;
                after =
                  (fun () ->
                    Task.Block
                      {
                        after =
                          (fun () -> Task.Run { ns = us 50; after = (fun () -> Task.Exit) });
                      });
              })
      in
      Kernel.start k task;
      Kernel.run_until k (ms 1);
      Kernel.wake k task;
      Kernel.run_until k (ms 2);
      let evs = sched_events sink in
      let has pred = List.exists (fun (_, s) -> pred s) evs in
      let tid = task.Task.tid in
      check_bool "woken" true
        (has (function Sink.Wake { tid = t; _ } -> t = tid | _ -> false));
      check_bool "dispatched" true
        (has (function
          | Sink.Dispatch { tid = t; name; _ } -> t = tid && name = "traced"
          | _ -> false));
      check_bool "blocked" true
        (has (function Sink.Block { tid = t; _ } -> t = tid | _ -> false));
      check_bool "exited" true
        (has (function Sink.Exit { tid = t; _ } -> t = tid | _ -> false));
      check_bool "idle transitions" true
        (has (function Sink.Idle _ -> true | _ -> false)))

let test_kernel_emits_preemption () =
  with_sink (fun sink ->
      let k = Kernel.create (machine 1) in
      let hog = Kernel.create_task k ~name:"hog" (Task.compute_forever ~slice:(us 500)) in
      Kernel.start k hog;
      Kernel.run_until k (ms 1);
      let rt =
        Kernel.create_task k ~policy:Task.Rt ~name:"rt"
          (Task.compute_total ~slice:(us 50) ~total:(us 100) (fun () -> Task.Exit))
      in
      Kernel.start k rt;
      Kernel.run_until k (ms 2);
      check_bool "hog preemption traced" true
        (List.exists
           (function _, Sink.Preempt { tid; _ } -> tid = hog.Task.tid | _ -> false)
           (sched_events sink)))

let test_trace_event_order () =
  (* For a single task, the wakeup must precede the dispatch. *)
  with_sink (fun sink ->
      let k = Kernel.create (machine 1) in
      let task =
        Kernel.create_task k ~name:"x"
          (Task.compute_total ~slice:(us 100) ~total:(us 100) (fun () -> Task.Exit))
      in
      Kernel.start k task;
      Kernel.run_until k (ms 1);
      let evs = sched_events sink in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      check_bool "timestamps nondecreasing" true (nondecreasing (List.map fst evs));
      let idx pred =
        let rec go i = function
          | [] -> -1
          | (_, s) :: rest -> if pred s then i else go (i + 1) rest
        in
        go 0 evs
      in
      let woken = idx (function Sink.Wake _ -> true | _ -> false) in
      let dispatched = idx (function Sink.Dispatch _ -> true | _ -> false) in
      check_bool "woken before dispatch" true (woken >= 0 && dispatched > woken))

let test_tracer_detach () =
  let k = Kernel.create (machine 1) in
  let spawn name =
    let t =
      Kernel.create_task k ~name
        (Task.compute_total ~slice:(us 50) ~total:(us 50) (fun () -> Task.Exit))
    in
    Kernel.start k t
  in
  let sink, n =
    with_sink (fun sink ->
        spawn "a";
        Kernel.run_until k (ms 1);
        (sink, Sink.recorded sink))
  in
  check_bool "events recorded" true (n > 0);
  check_bool "kernel hooks off" false (Obs.Hooks.enabled ());
  spawn "b";
  Kernel.run_until k (ms 2);
  check_int "no events after detach" n (Sink.recorded sink)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "basics and overflow" `Quick test_ring_basics;
          Alcotest.test_case "iter matches records" `Quick test_iter_matches_records;
        ] );
      ( "kernel-wiring",
        [
          Alcotest.test_case "lifecycle events" `Quick test_kernel_emits_lifecycle;
          Alcotest.test_case "preemption" `Quick test_kernel_emits_preemption;
          Alcotest.test_case "ordering" `Quick test_trace_event_order;
          Alcotest.test_case "detach" `Quick test_tracer_detach;
        ] );
    ]
