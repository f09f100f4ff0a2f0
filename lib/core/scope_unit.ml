type config = {
  fsb_entries : int;
  fss_entries : int;
  mt_entries : int;
  enabled : bool;
}

let default_config = { fsb_entries = 4; fss_entries = 4; mt_entries = 4; enabled = true }

(* Live and confirmed (shadow) copies of the scope state: the FSS plus
   the excess-nesting counter of the overflow mechanism. *)
type state = {
  stack : Fss.t;
  mutable counter : int;
}

type kind =
  | Branch (* [arg] = branch id *)
  | Push (* [arg] = FSB column *)
  | Push_counter (* counter-mode push: no column *)
  | Pop

(* One decode-order event.  The FIFO's records are allocated with the
   ring and overwritten in place. *)
type event = {
  mutable kind : kind;
  mutable arg : int;
  mutable resolved : bool; (* branches only *)
}

(* [events] is a ring of [ev_len] events from [ev_head], oldest first.
   Its capacity is a power of two; it doubles when full, so it settles
   at the deepest speculation seen and then never allocates. *)
type t = {
  config : config;
  live : state;
  confirmed : state;
  mt : Mapping_table.t;
  outstanding : int array;
  mutable events : event array;
  mutable ev_head : int;
  mutable ev_len : int;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let fresh_event _ = { kind = Pop; arg = 0; resolved = false }

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) config =
  if config.fsb_entries < 1 then invalid_arg "Scope_unit.create: need >= 1 FSB column";
  if config.fss_entries < 1 then invalid_arg "Scope_unit.create: need >= 1 FSS entry";
  {
    config;
    live = { stack = Fss.create ~capacity:config.fss_entries; counter = 0 };
    confirmed = { stack = Fss.create ~capacity:config.fss_entries; counter = 0 };
    mt =
      Mapping_table.create ~entries:config.mt_entries
        ~class_columns:(config.fsb_entries - 1);
    outstanding = Array.make config.fsb_entries 0;
    events = Array.init 16 fresh_event;
    ev_head = 0;
    ev_len = 0;
    trace;
    core;
  }

let config t = t.config
let enabled t = t.config.enabled
let set_column t = t.config.fsb_entries - 1

(* The [k]-th buffered event, oldest first. *)
let event t k = t.events.((t.ev_head + k) land (Array.length t.events - 1))

let grow t =
  let cap = Array.length t.events in
  let bigger = Array.init (2 * cap) (fun k -> if k < t.ev_len then event t k else fresh_event k) in
  t.events <- bigger;
  t.ev_head <- 0

let push_event t kind arg =
  if t.ev_len = Array.length t.events then grow t;
  let ev = event t t.ev_len in
  ev.kind <- kind;
  ev.arg <- arg;
  ev.resolved <- false;
  t.ev_len <- t.ev_len + 1

let drop_oldest t =
  t.ev_head <- (t.ev_head + 1) land (Array.length t.events - 1);
  t.ev_len <- t.ev_len - 1

let apply st kind col =
  match kind with
  | Push ->
    if st.counter > 0 || Fss.is_full st.stack then st.counter <- st.counter + 1
    else Fss.push st.stack col
  | Push_counter -> st.counter <- st.counter + 1
  | Pop -> if st.counter > 0 then st.counter <- st.counter - 1 else Fss.drop st.stack
  | Branch -> ()

(* Apply every event that is no longer speculative to the confirmed
   state: stop at the first unresolved branch. *)
let rec drain t =
  if t.ev_len > 0 then begin
    let ev = event t 0 in
    match ev.kind with
    | Branch when not ev.resolved -> ()
    | Branch ->
      drop_oldest t;
      drain t
    | Push | Push_counter | Pop ->
      apply t.confirmed ev.kind ev.arg;
      drop_oldest t;
      drain t
  end

let record t kind arg =
  apply t.live kind arg;
  push_event t kind arg;
  drain t

(* The position of the buffered branch [id], or -1. *)
let rec find_branch t id k =
  if k >= t.ev_len then -1
  else
    let ev = event t k in
    match ev.kind with
    | Branch when ev.arg = id -> k
    | Branch | Push | Push_counter | Pop -> find_branch t id (k + 1)

let rec fifo_pushes_contain t col k =
  k < t.ev_len
  &&
  let ev = event t k in
  match ev.kind with
  | Push when ev.arg = col -> true
  | Branch | Push | Push_counter | Pop -> fifo_pushes_contain t col (k + 1)

let column_busy t col =
  t.outstanding.(col) > 0
  || Fss.contains t.live.stack col
  || Fss.contains t.confirmed.stack col
  || fifo_pushes_contain t col 0

let on_branch t ~id = if t.config.enabled then push_event t Branch id

let on_branch_correct t ~id =
  if t.config.enabled then begin
    let k = find_branch t id 0 in
    if k >= 0 then (event t k).resolved <- true;
    drain t
  end

let on_branch_mispredict t ~id =
  if t.config.enabled then begin
    (* The correct-path state is: confirmed state plus every buffered
       micro-op older than the mispredicted branch.  If the branch is
       not buffered it drained (only possible if it was dispatched
       before any scope activity), so every older event has, by
       definition, drained into the confirmed state and nothing is
       replayed. *)
    let k = find_branch t id 0 in
    let older = if k < 0 then 0 else k in
    Fss.copy_from t.live.stack t.confirmed.stack;
    t.live.counter <- t.confirmed.counter;
    for i = 0 to older - 1 do
      let ev = event t i in
      apply t.live ev.kind ev.arg
    done;
    t.ev_len <- older
  end

let on_fs_start t ~cid =
  if t.config.enabled then begin
    (* A mapped cid (the common case) resolves without allocating. *)
    let col =
      if t.live.counter > 0 then -1
      else
        let col = Mapping_table.lookup t.mt ~cid in
        if col >= 0 then col
        else
          match Mapping_table.lookup_or_allocate t.mt ~cid ~column_busy:(column_busy t) with
          | Some col -> col
          | None -> -1
    in
    if Fscope_obs.Trace.on t.trace then
      Fscope_obs.Trace.emit t.trace ~core:t.core
        (Fscope_obs.Event.Scope_push { column = (if col >= 0 then Some col else None) });
    if col >= 0 then record t Push col else record t Push_counter 0
  end

let on_fs_end t ~cid:_ =
  if t.config.enabled then begin
    if Fscope_obs.Trace.on t.trace then
      Fscope_obs.Trace.emit t.trace ~core:t.core Fscope_obs.Event.Scope_pop;
    record t Pop 0
  end

(* While the overflow counter is non-zero the FSS under-represents the
   active scopes, so ops decoded now would carry too few bits: a fence
   in a scope re-entered after recovery (whose MT mapping survived)
   would check its column and miss them.  The paper's counter sketch
   alone is unsound here; we repair it by flagging such ops with every
   class column — conservative, hence still consistent with the
   S-Fence semantics (fences may only get stricter). *)
let all_class_columns t =
  let m = ref Fsb.empty in
  for col = 0 to t.config.fsb_entries - 2 do
    m := Fsb.union !m (Fsb.column col)
  done;
  !m

let decode_mask t ~flagged =
  if not t.config.enabled then Fsb.empty
  else
    let class_bits =
      if t.live.counter > 0 then all_class_columns t else Fss.mask t.live.stack
    in
    if flagged then Fsb.union class_bits (Fsb.column (set_column t)) else class_bits

(* Both run on every memory operation, so they walk the mask's bits in
   place rather than building its column list. *)
let rec adjust t m col d =
  if m <> 0 then begin
    if m land 1 <> 0 then begin
      let n = t.outstanding.(col) + d in
      assert (n >= 0);
      t.outstanding.(col) <- n
    end;
    adjust t (m lsr 1) (col + 1) d
  end

let on_bits_set t mask = adjust t mask 0 1
let on_bits_cleared t mask = adjust t mask 0 (-1)

let outstanding t col = t.outstanding.(col)

let fence_scope t kind =
  if not t.config.enabled then `Global
  else
    match Fscope_isa.Fence_kind.scope_of kind with
    | Fscope_isa.Fence_kind.Global -> `Global
    | Fscope_isa.Fence_kind.Class_scope ->
      if t.live.counter > 0 then `Global
      else (
        match Fss.top t.live.stack with
        | Some col -> `Mask (Fsb.column col)
        | None -> `Global (* class fence outside any scope: be conservative *))
    | Fscope_isa.Fence_kind.Set_scope ->
      if t.live.counter > 0 then `Global else `Mask (Fsb.column (set_column t))

let in_overflow t = t.live.counter > 0
let live_stack t = Fss.to_list t.live.stack
let confirmed_stack t = Fss.to_list t.confirmed.stack

(* Relativized fingerprint of the decode-order event FIFO, for the
   spin-stability probe: branch ids (ROB seqs) are expressed relative
   to [base] so two snapshots of the same in-flight shape compare
   equal.  [None] if any scope micro-op is still buffered — the probe
   treats that as unstable. *)
let spin_fingerprint t ~base =
  let rec go acc k =
    if k < 0 then Some acc
    else
      let ev = event t k in
      match ev.kind with
      | Branch -> go ((base - ev.arg, ev.resolved) :: acc) (k - 1)
      | Push | Push_counter | Pop -> None
  in
  go [] (t.ev_len - 1)

let current_cid t =
  if (not t.config.enabled) || t.live.counter > 0 then None
  else
    match Fss.top t.live.stack with
    | None -> None
    | Some col -> Mapping_table.cid_of_column t.mt ~column:col

(* ------------------------------------------------------------------ *)
(* Checkpointing and sampled-mode reseeding. *)

module Json = Fscope_util.Json

let event_to_json ev =
  match ev.kind with
  | Branch -> Json.Arr [ Json.Str "branch"; Json.Int ev.arg; Json.Bool ev.resolved ]
  | Push -> Json.Arr [ Json.Str "push"; Json.Int ev.arg ]
  | Push_counter -> Json.Arr [ Json.Str "pushn" ]
  | Pop -> Json.Arr [ Json.Str "pop" ]

(* Append the event [j] to the FIFO. *)
let event_of_json t j =
  match Json.list_exn j with
  | [ Json.Str "branch"; id; resolved ] ->
    let resolved = Json.bool_exn resolved in
    push_event t Branch (Json.int_exn id);
    (event t (t.ev_len - 1)).resolved <- resolved
  | [ Json.Str "push"; col ] -> push_event t Push (Json.int_exn col)
  | [ Json.Str "pushn" ] -> push_event t Push_counter 0
  | [ Json.Str "pop" ] -> push_event t Pop 0
  | _ -> failwith "checkpoint: malformed scope event"

let state_to_json (st : state) =
  Json.Obj
    [
      ("stack", Json.of_int_list (Fss.to_list st.stack));
      ("counter", Json.Int st.counter);
    ]

let state_restore (st : state) j =
  Fss.restore st.stack (Json.int_list_exn (Json.get "stack" j));
  st.counter <- Json.int_exn (Json.get "counter" j)

let to_json t =
  Json.Obj
    [
      ("live", state_to_json t.live);
      ("confirmed", state_to_json t.confirmed);
      ( "mt",
        Json.Arr
          (List.map
             (fun (cid, col) -> Json.Arr [ Json.Int cid; Json.Int col ])
             (Mapping_table.mappings t.mt)) );
      ("outstanding", Json.of_int_array t.outstanding);
      ("events", Json.Arr (List.init t.ev_len (fun k -> event_to_json (event t k))));
    ]

let restore t j =
  state_restore t.live (Json.get "live" j);
  state_restore t.confirmed (Json.get "confirmed" j);
  Mapping_table.set_mappings t.mt
    (List.map
       (fun p ->
         match Json.list_exn p with
         | [ cid; col ] -> (Json.int_exn cid, Json.int_exn col)
         | _ -> failwith "checkpoint: malformed MT pair")
       (Json.list_exn (Json.get "mt" j)));
  let out = Json.int_array_exn (Json.get "outstanding" j) in
  if Array.length out <> Array.length t.outstanding then
    failwith "checkpoint: FSB column-count mismatch";
  Array.blit out 0 t.outstanding 0 (Array.length out);
  t.ev_len <- 0;
  List.iter (event_of_json t) (Json.list_exn (Json.get "events" j))

(* Forget everything — stacks, counters, the MT, outstanding bits and
   buffered events.  The sampled engine resets the unit when it
   re-enters a detailed window from functional execution and then
   replays the architectural scope nesting with [on_fs_start]. *)
let reset t =
  Fss.restore t.live.stack [];
  Fss.restore t.confirmed.stack [];
  t.live.counter <- 0;
  t.confirmed.counter <- 0;
  Mapping_table.set_mappings t.mt [];
  Array.fill t.outstanding 0 (Array.length t.outstanding) 0;
  t.ev_len <- 0
