let grown_size ~cap tid = Int.max (2 * cap) (tid + 1)

module Set = struct
  type t = { mutable bits : Bytes.t }  (* one byte per tid: '\001' = member *)

  let create ?(size = 256) () = { bits = Bytes.make (Int.max 1 size) '\000' }

  let mem t tid =
    tid >= 0 && tid < Bytes.length t.bits && Bytes.unsafe_get t.bits tid <> '\000'

  let add t tid =
    if tid < 0 then invalid_arg "Tidtbl.Set.add: negative tid";
    let cap = Bytes.length t.bits in
    if tid >= cap then begin
      let bits = Bytes.make (grown_size ~cap tid) '\000' in
      Bytes.blit t.bits 0 bits 0 cap;
      t.bits <- bits
    end;
    Bytes.unsafe_set t.bits tid '\001'

  let remove t tid =
    if tid >= 0 && tid < Bytes.length t.bits then Bytes.unsafe_set t.bits tid '\000'
end

module Map = struct
  type t = { mutable vals : int array }  (* -1 = unbound *)

  let create ?(size = 256) () = { vals = Array.make (Int.max 1 size) (-1) }

  let find t tid =
    if tid >= 0 && tid < Array.length t.vals then Array.unsafe_get t.vals tid else -1

  let set t tid v =
    if tid < 0 then invalid_arg "Tidtbl.Map.set: negative tid";
    if v < 0 then invalid_arg "Tidtbl.Map.set: negative value";
    let cap = Array.length t.vals in
    if tid >= cap then begin
      let vals = Array.make (grown_size ~cap tid) (-1) in
      Array.blit t.vals 0 vals 0 cap;
      t.vals <- vals
    end;
    Array.unsafe_set t.vals tid v

  let remove t tid =
    if tid >= 0 && tid < Array.length t.vals then Array.unsafe_set t.vals tid (-1)

  let iter f t =
    let vals = t.vals in
    for tid = 0 to Array.length vals - 1 do
      let v = vals.(tid) in
      if v >= 0 then f tid v
    done
end
