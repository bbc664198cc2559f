(* Deterministic merge of N independent event lanes.

   Each lane is a full {!Engine} — its own clock, wheel and overflow heap —
   so per-machine simulation never contends on one global queue.  The merge
   advances whichever lane holds the globally earliest event, ordering
   events by lowest [(time, lane_id, seq)]: ties in time fire the lowest
   lane first, and within a lane the engine's own [(time, seq)] order
   applies.  At a fixed seed the interleaving is bit-reproducible.

   Three facts make the merge cheap and correct:

   - {b Merge invariant}: every lane clock is always [<=] the global fire
     time, so a cross-lane post at a time [>= now t] can never land in a
     destination lane's past ([Engine.post] would raise).  Clocks only
     catch up to the window edge in {!run_until}'s final alignment pass.

   - {b Cached heads}: [heads.(i)] is never later than lane [i]'s true head
     time.  {!run_until} refreshes every entry on entry (set-up code posts
     straight into the engines), {!post} lowers the destination's entry,
     and a drain leaves the drained lane's exact [Engine.next_time].  Only
     a cancelled head can leave an entry early (stale-low).  So a batch
     picks the minimum over an int array and checks just the winner against
     [Engine.next_time]: on a match the winner is the true global minimum
     (and the lowest lane among equals); on a mismatch the entry is
     corrected and the pick repeats.

   - {b Batching}: the winning lane [i] fires events back-to-back — no
     re-pick — while its head stays strictly below both the runner-up entry
     and the earliest cross-post made since the pick ([xmin]).  Strictly:
     on any tie the merge picks again, and the pick resolves it to the
     lowest lane id.  A stale-low runner-up only ends a run early.

   Cross-lane posts MUST go through {!post}/{!post_in}: they keep both the
   cached heads and [xmin] right, so the contract carries the merge order,
   not only the batching.  A post made straight into another lane's engine
   mid-run leaves that lane's entry later than its true head; the merge
   raises [Invalid_argument] naming the lane when it sees one (a winner
   whose true head is earlier than its entry, or a lane still holding an
   event inside the window before the final alignment pass).  Same-lane
   posts may use the lane's engine directly: the drain records the lane's
   exact head when it ends. *)

type t = {
  engines : Engine.t array;
  heads : int array;  (* per-lane head time, never later than the true head *)
  mutable now : int;  (* time of the last globally-fired event *)
  mutable xmin : int;  (* earliest cross-post since the current pick *)
  mutable fired : int;  (* events fired through the merge *)
  mutable current : int;  (* lane currently draining; -1 before the first *)
  on_lane_switch : int -> unit;
}

let create ?(on_lane_switch = ignore) engines =
  if Array.length engines = 0 then invalid_arg "Lanes.create: no lanes";
  {
    engines;
    heads = Array.map Engine.next_time engines;
    now = 0;
    xmin = max_int;
    fired = 0;
    current = -1;
    on_lane_switch;
  }

let lanes t = Array.length t.engines
let engine t i = t.engines.(i)
let now t = t.now
let events_fired t = t.fired

let post t ~lane ~time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Lanes.post: time %d is before global now %d" time t.now);
  if time < t.xmin then t.xmin <- time;
  if time < t.heads.(lane) then t.heads.(lane) <- time;
  Engine.post t.engines.(lane) ~time fn

let post_in t ~lane ~delay fn =
  if delay < 0 then invalid_arg "Lanes.post_in: negative delay";
  post t ~lane ~time:(t.now + delay) fn

let bypassed lane time =
  invalid_arg
    (Printf.sprintf
       "Lanes.run_until: lane %d holds an event at %d posted around the merge \
        (cross-lane posts must use Lanes.post)"
       lane time)

(* Fire lane [e]'s head, then keep draining while the lane provably stays
   the global minimum; return the lane's next head time. *)
let rec drain t e ~horizon ~runner =
  ignore (Engine.step e);
  t.now <- Engine.now e;
  t.fired <- t.fired + 1;
  let h = Engine.next_time e in
  if h <= horizon && h < runner && h < t.xmin then drain t e ~horizon ~runner
  else h

(* One batch: pick the winning lane, fire its run, return false when no
   event remains at or before [horizon]. *)
let rec batch t ~horizon =
  let heads = t.heads in
  let best = ref (-1) and best_t = ref max_int and runner = ref max_int in
  for i = 0 to Array.length heads - 1 do
    let ti = Array.unsafe_get heads i in
    if ti < !best_t then begin
      runner := !best_t;
      best_t := ti;
      best := i
    end
    else if ti < !runner then runner := ti
  done;
  if !best < 0 || !best_t > horizon then false
  else begin
    let i = !best in
    let e = t.engines.(i) in
    let h = Engine.next_time e in
    if h <> !best_t then begin
      (* A cancelled head left the entry early; an earlier head was posted
         around the merge. *)
      if h < !best_t then bypassed i h;
      heads.(i) <- h;
      batch t ~horizon
    end
    else begin
      if i <> t.current then begin
        t.current <- i;
        t.on_lane_switch i
      end;
      t.xmin <- max_int;
      heads.(i) <- drain t e ~horizon ~runner:!runner;
      true
    end
  end

let run_until t horizon =
  let heads = t.heads in
  Array.iteri (fun i e -> heads.(i) <- Engine.next_time e) t.engines;
  while batch t ~horizon do
    ()
  done;
  (* End-of-window alignment: every queue must already be drained past
     [horizon] (an event left inside the window was posted around the
     merge), so this only advances clocks, preserving the merge invariant
     for the next window. *)
  Array.iteri
    (fun i e ->
      let h = Engine.next_time e in
      if h <= horizon then bypassed i h)
    t.engines;
  Array.iter (fun e -> Engine.run_until e horizon) t.engines;
  if horizon > t.now then t.now <- horizon
