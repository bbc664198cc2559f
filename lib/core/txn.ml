type failure = Estale | Enoent | Eaffinity | Ebusy | Enotrunnable | Eaborted

type status = Pending | Committed | Failed of failure

type t = {
  txn_id : int;
  tid : int;
  target_cpu : int;
  agent_seq : int option;
  thread_seq : int option;
  mutable status : status;
  mutable decided_at : int;
}

let failure_to_string = function
  | Estale -> "ESTALE"
  | Enoent -> "ENOENT"
  | Eaffinity -> "EAFFINITY"
  | Ebusy -> "EBUSY"
  | Enotrunnable -> "ENOTRUNNABLE"
  | Eaborted -> "EABORTED"

let status_to_string = function
  | Pending -> "PENDING"
  | Committed -> "COMMITTED"
  | Failed f -> failure_to_string f

let status_index = function
  | Pending -> 0
  | Committed -> 1
  | Failed Estale -> 2
  | Failed Enoent -> 3
  | Failed Eaffinity -> 4
  | Failed Ebusy -> 5
  | Failed Enotrunnable -> 6
  | Failed Eaborted -> 7

let committed t = match t.status with Committed -> true | Pending | Failed _ -> false

let pp ppf t =
  Format.fprintf ppf "txn#%d(tid=%d cpu=%d %s)" t.txn_id t.tid t.target_cpu
    (status_to_string t.status)
