type t = Central.t

let default_timeslice = 30_000

let policy ?(timeslice = default_timeslice) ?(shenango_ext = false) ?(fastpath = false)
    ~is_batch () =
  let classify task = if is_batch task then Central.Be else Central.Lc in
  let t, pol =
    Central.policy ~classify ~timeslice ~schedule_be:shenango_ext ~fastpath ()
  in
  (t, Dsl.rename pol "shinjuku")

let stats t = Central.stats t
let lc_backlog t = Central.lc_backlog t
