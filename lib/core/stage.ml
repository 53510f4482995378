type ('a, 'b) t = {
  name : string;
  run : Trace_span.ctx -> 'a -> ('b, Result.stage_error) result;
  encode : ('b, Result.stage_error) result -> string;
  decode : string -> ('b, Result.stage_error) result;
  carry : 'b -> body:(unit -> string) -> string list;
}

type 'b output = {
  carried : unit -> string list;
  value : Trace_span.ctx -> ('b, Result.stage_error) result;
  pending : unit -> bool;
}

let cache_key stage ~fingerprint ~inputs =
  Artifact_store.key ~stage:stage.name ~fingerprint ~inputs

let stored ?store stage ~fingerprint ~inputs =
  match store with
  | None -> false
  | Some s -> Artifact_store.mem s ~stage:stage.name ~key:(cache_key stage ~fingerprint ~inputs)

let carried o = o.carried ()
let value ctx o = o.value ctx
let pending o = o.pending ()

let ready ~carried v = { carried; value = (fun _ -> Ok v); pending = (fun () -> false) }

let guard stage ctx f input =
  match f ctx input with
  | r -> r
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e ->
      Error
        {
          Result.stage = stage;
          variant = None;
          reason = Result.Stage_exception (Printexc.to_string e);
        }

(* Solver-effort counters are process-global; a stage's share is the
   delta across its own run.  Under the parallel runner concurrent
   stages bleed into each other's deltas — the tags are a profiling
   aid, not an accounting invariant, so that imprecision is fine. *)
let effort_counters () =
  let s = Asp.Solver.stats () in
  let m = Asp.Memo.totals () in
  let certified, fallback = Gmatch.Incremental.stats () in
  [
    ("asp.decisions", s.Asp.Solver.decisions);
    ("asp.propagations", s.Asp.Solver.propagations);
    ("memo.hits", m.Asp.Memo.hits);
    ("memo.misses", m.Asp.Memo.misses);
    ("incremental.certified", certified);
    ("incremental.fallback", fallback);
  ]

let tag_effort ctx before =
  List.iter2
    (fun (name, b) (_, a) ->
      if a > b then Trace_span.add_tag ctx name (string_of_int (a - b)))
    before (effort_counters ())

(* Planner decisions made during a stage surface as [planner.N] span
   tags — backend chosen, predicted and measured cost — so trace
   exports make mispredictions auditable.  Same per-domain caveat as
   the effort deltas: decisions taken on pool worker domains drain
   with that domain's next stage. *)
let tag_planner ctx =
  List.iteri
    (fun i d -> Trace_span.add_tag ctx (Printf.sprintf "planner.%d" i) d)
    (Gmatch.Planner.drain_decisions ())

let compute stage ctx input =
  let before = effort_counters () in
  let r = guard stage.name ctx stage.run input in
  tag_effort ctx before;
  tag_planner ctx;
  r

(* The deadline is checked post hoc on the monotonic clock: the stage
   runs to completion and the overrun then replaces its result.  No
   cancellation means no torn state, and the failure carries only the
   configured budget string — the measured duration varies run to run
   and must not leak into deterministic output.  Deadline failures are
   timing-dependent, so they are never written to the store (a warm
   machine should not inherit a slow machine's verdict). *)
let check_deadline stage ctx ~deadline_s ~start r =
  match deadline_s with
  | Some budget when Trace_span.now_s () -. start > budget ->
      Trace_span.add_tag ctx "deadline" "exceeded";
      Error
        {
          Result.stage;
          variant = None;
          reason = Result.Deadline_exceeded (Printf.sprintf "%gs" budget);
        }
  | _ -> r

(* A stored artifact is one header line, then the stage's encoding of
   its result: "ok <digest> ...\n<body>" for a success, "err\n<body>"
   for a failure.  The header carries the digests the consumers key on
   ([stage.carry], computed once here on the write path), so a replay
   hands them out without decoding the body. *)
let layout header body = header ^ "\n" ^ body

let header_of_carried carried = String.concat " " ("ok" :: carried)

(* [Some (Some carried, offset)] for a success, [Some (None, offset)]
   for a failure, [None] for anything else (a miss).  The body stays in
   [payload] at [offset]: a deferred replay copies it out only when it
   decodes. *)
let split payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i -> (
      let body_at = i + 1 in
      match String.split_on_char ' ' (String.sub payload 0 i) with
      | "ok" :: carried -> Some (Some carried, body_at)
      | [ "err" ] -> Some (None, body_at)
      | _ -> None)

let body_of payload off = String.sub payload off (String.length payload - off)

(* A corrupt or stale body decodes to [None]: the caller treats it as a
   miss and the recompute's write heals the entry. *)
let decode_body stage payload off =
  match stage.decode (body_of payload off) with
  | r -> Some r
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception _ -> None

(* Run the stage on its input (resolved first, so an upstream decode
   never counts against this stage's deadline) and, with a store,
   write the result — the success's carried digests are computed here,
   once. *)
let produce ?store ?deadline_s ~key stage ctx input =
  match input ctx with
  | Error e -> Error e
  | Ok x -> (
      let start = Trace_span.now_s () in
      let r = compute stage ctx x in
      match (check_deadline stage.name ctx ~deadline_s ~start r, store) with
      | (Error { Result.reason = Result.Deadline_exceeded _; _ } as overrun), _ -> overrun
      | (Error _ as r), Some s ->
          Artifact_store.write s ~stage:stage.name ~key (layout "err" (stage.encode r));
          r
      | (Error _ as r), None -> r
      | Ok v, Some s ->
          let body = stage.encode r in
          let carried = stage.carry v ~body:(fun () -> body) in
          Artifact_store.write s ~stage:stage.name ~key (layout (header_of_carried carried) body);
          Ok (v, fun () -> carried)
      | Ok v, None -> Ok (v, fun () -> stage.carry v ~body:(fun () -> stage.encode r)))

(* A replayed success whose body is decoded on first use.  The value
   cell is an [Atomic], not a [Lazy]: forcing one lazy value from two
   domains raises [CamlinternalLazy.Undefined], whereas two racing
   forcers here both compute and the first answer wins.  The pipeline
   never lets that race happen (it forces deferred values before
   forking pair jobs), so the atomic only makes a slip wasteful instead
   of fatal.  A body that fails to decode is a miss after all: the hit
   already counted is turned into a miss, and the stage recomputes from
   its input and rewrites the entry. *)
let deferred ?deadline_s store ~key stage ~input ~carried payload off =
  let cell = Atomic.make None and demoted = Atomic.make false in
  let force ctx =
    Trace_span.with_span ctx stage.name (fun ctx ->
        match decode_body stage payload off with
        | Some (Ok v) ->
            Trace_span.add_tag ctx "cache" "decode";
            Ok v
        | Some (Error _) | None ->
            Trace_span.add_tag ctx "cache" "miss";
            if Atomic.compare_and_set demoted false true then
              Artifact_store.demote store ~stage:stage.name ~key;
            Stdlib.Result.map fst (produce ~store ?deadline_s ~key stage ctx input))
  in
  {
    carried = (fun () -> carried);
    value =
      (fun ctx ->
        match Atomic.get cell with
        | Some r -> r
        | None ->
            let r = force ctx in
            if Atomic.compare_and_set cell None (Some r) then r
            else Option.get (Atomic.get cell));
    pending = (fun () -> Option.is_none (Atomic.get cell));
  }

(* What a stored payload replays as, or [None] for a miss. *)
let replay ?deadline_s ~defer store ~key stage ~input payload =
  match split payload with
  | None -> None
  | Some (None, off) -> (
      match decode_body stage payload off with Some (Error e) -> Some (Error e) | _ -> None)
  | Some (Some carried, off) when defer ->
      Some (Ok (deferred ?deadline_s store ~key stage ~input ~carried payload off))
  | Some (Some carried, off) -> (
      match decode_body stage payload off with
      | Some (Ok v) -> Some (Ok (ready ~carried:(fun () -> carried) v))
      | _ -> None)

let execute ?store ?deadline_s ?(defer = false) ~ctx ~fingerprint ~inputs stage input =
  let computed ?store ~key ctx =
    Stdlib.Result.map
      (fun (v, carried) -> ready ~carried v)
      (produce ?store ?deadline_s ~key stage ctx input)
  in
  Trace_span.with_span ctx stage.name (fun ctx ->
      match store with
      | None ->
          Trace_span.add_tag ctx "cache" "off";
          computed ~key:"" ctx
      | Some s -> (
          let key = cache_key stage ~fingerprint ~inputs in
          let replayed =
            Option.bind (Artifact_store.read s ~stage:stage.name ~key)
              (replay ?deadline_s ~defer s ~key stage ~input)
          in
          Artifact_store.record s ~stage:stage.name ~key ~hit:(Option.is_some replayed);
          match replayed with
          | Some r ->
              Trace_span.add_tag ctx "cache" "hit";
              r
          | None ->
              Trace_span.add_tag ctx "cache" "miss";
              computed ~store:s ~key ctx))
