type entry = {
  addr : int;
  value : int;
  mask : Fscope_core.Fsb.mask;
  done_at : int;
}

(* A small array-backed FIFO, oldest first in [slots.(0 .. count-1)];
   capacity is 8-ish so linear scans are the right implementation.
   Every query is a loop over the live prefix: nothing here allocates
   except a [take_completed] that actually drains something. *)
type t = {
  capacity : int;
  slots : entry array;
  mutable count : int;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let vacant = { addr = 0; value = 0; mask = Fscope_core.Fsb.empty; done_at = 0 }

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Store_buffer.create: capacity must be positive";
  { capacity; slots = Array.make capacity vacant; count = 0; trace; core }

let capacity t = t.capacity
let count t = t.count
let is_full t = t.count >= t.capacity
let is_empty t = t.count = 0

let push t entry =
  if is_full t then invalid_arg "Store_buffer.push: full";
  t.slots.(t.count) <- entry;
  t.count <- t.count + 1;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Sb_insert { addr = entry.addr })

let rec any_due t ~cycle i =
  i < t.count && (t.slots.(i).done_at <= cycle || any_due t ~cycle (i + 1))

(* Compact the survivors to the front in order; return the drained
   entries oldest first. *)
let take_completed t ~cycle =
  if not (any_due t ~cycle 0) then []
  else begin
    let done_ = ref [] and kept = ref 0 in
    for i = 0 to t.count - 1 do
      let e = t.slots.(i) in
      if e.done_at <= cycle then done_ := e :: !done_
      else begin
        t.slots.(!kept) <- e;
        incr kept
      end
    done;
    Array.fill t.slots !kept (t.count - !kept) vacant;
    t.count <- !kept;
    let done_ = List.rev !done_ in
    if Fscope_obs.Trace.on t.trace then
      List.iter
        (fun e ->
          Fscope_obs.Trace.emit t.trace ~core:t.core
            (Fscope_obs.Event.Sb_drain { addr = e.addr; value = e.value }))
        done_;
    done_
  end

let rec youngest_to t ~addr i =
  if i < 0 then -1 else if t.slots.(i).addr = addr then i else youngest_to t ~addr (i - 1)

let forward t ~addr =
  let i = youngest_to t ~addr (t.count - 1) in
  if i < 0 then None else Some t.slots.(i).value

let has_addr t ~addr = youngest_to t ~addr (t.count - 1) >= 0

let rec last_done_from t ~addr i acc =
  if i >= t.count then acc
  else
    let e = t.slots.(i) in
    let acc = if e.addr = addr && e.done_at > acc then e.done_at else acc in
    last_done_from t ~addr (i + 1) acc

let last_done_at t ~addr = last_done_from t ~addr 0 0

let rec next_done_from t ~cycle i acc =
  if i >= t.count then acc
  else
    let d = t.slots.(i).done_at in
    next_done_from t ~cycle (i + 1) (if d > cycle && d < acc then d else acc)

let next_done_after t ~cycle = next_done_from t ~cycle 0 max_int

let rec overlaps_from t mask i =
  i < t.count
  && ((not (Fscope_core.Fsb.is_empty (Fscope_core.Fsb.inter t.slots.(i).mask mask)))
     || overlaps_from t mask (i + 1))

let mask_overlaps t mask = overlaps_from t mask 0

let iter t f =
  for i = 0 to t.count - 1 do
    f t.slots.(i)
  done

(* Checkpoint restore: replace the FIFO wholesale (oldest first),
   emitting nothing. *)
let restore t entries =
  if List.length entries > t.capacity then invalid_arg "Store_buffer.restore: overflow";
  Array.fill t.slots 0 t.capacity vacant;
  List.iteri (fun i e -> t.slots.(i) <- e) entries;
  t.count <- List.length entries
