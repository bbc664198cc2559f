(* A bare [Ghost.Abi] context for unit tests of policy-side helpers: BPF
   maps are a table, task lookups go to an optional kernel, and any other
   call fails the test.  [consume n] plays the kernel side of the fastpath
   ring by advancing its head cursor. *)

let make ?kernel () =
  let maps = Hashtbl.create 16 in
  let nope _ = Alcotest.fail "unexpected ABI call" in
  let get map idx = Option.value ~default:0 (Hashtbl.find_opt maps (map, idx)) in
  let ctx =
    Ghost.Abi.make ~version:Ghost.Abi.version
      {
        Ghost.Abi.op_cpu = (fun () -> 0);
        op_now = (fun () -> 0);
        op_rng = nope;
        op_charge = (fun _ -> ());
        op_aseq = nope;
        op_make_txn = (fun ~tid:_ ~target:_ ~with_aseq:_ ~thread_seq:_ -> nope ());
        op_submit = (fun ~atomic:_ _ -> nope ());
        op_recall = (fun ~target:_ -> nope ());
        op_create_queue = (fun ~capacity:_ ~wake_cpu:_ -> nope ());
        op_associate_queue = (fun _ _ -> nope ());
        op_queue_of_cpu = nope;
        op_poke = nope;
        op_drain = nope;
        op_enclave_cpu_list = nope;
        op_cpu_is_idle = nope;
        op_curr_on = nope;
        op_latched_on = nope;
        op_lower_class_waiting = nope;
        op_managed_threads = nope;
        op_status_word = nope;
        op_thread_seq = nope;
        op_task_by_tid =
          (fun tid ->
            match kernel with
            | Some k -> Kernel.task_by_tid k tid
            | None -> nope ());
        op_topology = nope;
        op_core_class = nope;
        op_bpf_install = nope;
        op_bpf_remove = nope;
        op_bpf_map_update =
          (fun ~map ~idx v ->
            Hashtbl.replace maps (map, idx) v;
            Ok ());
        op_bpf_map_get = (fun ~map ~idx -> Some (get map idx));
      }
  in
  let consume n =
    let head = get Bpf.Kit.ring_meta Bpf.Kit.meta_head in
    Hashtbl.replace maps (Bpf.Kit.ring_meta, Bpf.Kit.meta_head) (head + n)
  in
  (ctx, consume)
