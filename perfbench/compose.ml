(* The traced pipeline: the four ProvMark stages composed from their
   public functions, the way [Pipeline.run_once] composes them without
   an artifact store, with a span around every call into a layer.  The
   retry loop mirrors [Runner.run].  Verdicts must equal the untraced
   run's; [verdict] renders both sides the same way.

   After a traced pass, [remeasure] times the layers the stage spans
   cannot separate (graph store, canonical forms, fingerprints, cache
   keys, matching engine) by re-issuing their calls on the inputs each
   stage received. *)

module P = Provmark
module C = Provmark.Config
module R = Provmark.Result
module G = Pgraph.Graph

let status_verdict = function
  | R.Target g -> "ok\n" ^ Datalog.Encode.graph_to_string ~gid:"target" g
  | R.Empty -> "empty"
  | R.Failed e -> "failed: " ^ R.stage_error_to_string e

let verdict (r : R.t) = status_verdict r.R.status

(* One (tool, benchmark) cell under its effective config. *)
type cell = { key : string; prog : Oskernel.Program.t; config : C.t }

let cell (config : C.t) (prog : Oskernel.Program.t) =
  {
    key = Recorders.Recorder.tool_name config.C.tool ^ "/" ^ prog.Oskernel.Program.name;
    prog;
    config = P.Parallel_runner.config_for config prog;
  }

(* What a traced cell leaves behind for the re-measurement. *)
type traced = {
  cell : cell;
  status : R.status;
  recordings : P.Recording.recorded list;
  trial_graphs : G.t list list;  (** per variant, last attempt *)
  generals : G.t list;
  class_size : int;  (** summed over the variants generalized *)
  trials_seen : int;
}

let failure stage variant reason = R.Failed { R.stage; variant; reason }

let gen_failure variant = function
  | P.Generalize.No_trials -> failure "generalization" (Some variant) R.No_trials
  | P.Generalize.No_consistent_pair -> failure "generalization" (Some variant) R.No_consistent_pair
  | P.Generalize.Alignment_failed m ->
      failure "generalization" (Some variant) (R.Alignment_failed m)

let graphs_digest graphs =
  P.Artifact_store.digest
    (String.concat "\x00" (List.map P.Artifact_store.canonical_graph_digest graphs))

let attempt_config (config : C.t) i =
  let r = config.C.retry in
  {
    config with
    C.trials = config.C.trials + (r.C.trial_growth * i);
    seed = config.C.seed + (r.C.seed_stride * i);
  }

let run_attempt spans ~parent ~key (config : C.t) prog =
  let span name f = Spans.with_span spans ~parent ~key name (fun _ -> f ()) in
  let backend = config.C.backend in
  let bg_recs, fg_recs = span "recording" (fun () -> P.Recording.record_all config prog) in
  let base =
    {
      cell = { key; prog; config };
      status = R.Empty;
      recordings = bg_recs @ fg_recs;
      trial_graphs = [];
      generals = [];
      class_size = 0;
      trials_seen = 0;
    }
  in
  match
    span "transform" (fun () ->
        try Ok (P.Transform.batch bg_recs, P.Transform.batch fg_recs)
        with P.Transform.Transform_error m -> Error m)
  with
  | Error m -> { base with status = failure "transformation" None (R.Malformed_output m) }
  | Ok (bg_graphs, fg_graphs) -> (
      let base = { base with trial_graphs = [ bg_graphs; fg_graphs ] } in
      (* The generalization cache key Pipeline derives even without a
         store. *)
      span "store_key" (fun () ->
          ignore (P.Pipeline.program_digest prog);
          ignore (graphs_digest bg_graphs);
          ignore (graphs_digest fg_graphs));
      let generalize graphs =
        span "generalize" (fun () ->
            ignore (Gmatch.Engine.drain_notes ());
            let r =
              P.Generalize.generalize ~backend ~filter:config.C.filter_graphs
                ~pair_choice:config.C.pair_choice graphs
            in
            ignore (Gmatch.Engine.drain_notes ());
            r)
      in
      let bg_out = generalize bg_graphs in
      let fg_out = generalize fg_graphs in
      let seen = List.length bg_graphs + List.length fg_graphs in
      let kept =
        List.fold_left
          (fun n -> function Ok o -> n + o.P.Generalize.class_size | Error _ -> n)
          0 [ bg_out; fg_out ]
      in
      let base = { base with class_size = kept; trials_seen = seen } in
      match (bg_out, fg_out) with
      | Error f, _ -> { base with status = gen_failure "background" f }
      | _, Error f -> { base with status = gen_failure "foreground" f }
      | Ok bg, Ok fg ->
          let bg_g = bg.P.Generalize.general and fg_g = fg.P.Generalize.general in
          span "store_key" (fun () ->
              ignore (P.Artifact_store.canonical_graph_digest bg_g);
              ignore (P.Artifact_store.canonical_graph_digest fg_g));
          let status =
            span "compare" (fun () ->
                ignore (Gmatch.Engine.drain_notes ());
                let s =
                  if Gmatch.Engine.similar ~backend bg_g fg_g then R.Empty
                  else
                    match P.Compare.compare ~backend ~bg:bg_g ~fg:fg_g with
                    | Ok o when G.size o.P.Compare.target = 0 -> R.Empty
                    | Ok o -> R.Target o.P.Compare.target
                    | Error P.Compare.Background_not_embeddable ->
                        failure "comparison" None R.Background_not_embeddable
                in
                ignore (Gmatch.Engine.drain_notes ());
                s)
          in
          { base with status; generals = [ bg_g; fg_g ] })

let run_cell spans (c : cell) =
  Spans.with_span spans ~key:c.key "cell" (fun parent ->
      let retry = c.config.C.retry in
      let max_attempts = max 1 retry.C.attempts in
      let rec go i =
        let t =
          Spans.with_span spans ~parent ~key:c.key "attempt" (fun parent ->
              run_attempt spans ~parent ~key:c.key (attempt_config c.config i) c.prog)
        in
        match t.status with
        | R.Failed _ when i + 1 < max_attempts ->
            if retry.C.backoff_s > 0. then Unix.sleepf retry.C.backoff_s;
            go (i + 1)
        | _ -> { t with cell = c }
      in
      go 0)

(* ------------------------------------------------------------------ *)
(* Layer re-measurement                                                *)

let timed_sum f xs =
  List.fold_left
    (fun (s, n) x ->
      let (), dt = Measure.time (fun () -> f x) in
      (s +. dt, n + 1))
    (0., 0) xs

(* [Canon.form] (cold) and [Fingerprint.of_graph] over [graphs]. *)
let form_metrics graphs =
  let m = Measure.metric in
  Pgraph.Canon.clear ();
  let budget_exceeded = ref 0 in
  let form_s, forms =
    timed_sum (fun g -> if Pgraph.Canon.form g = None then incr budget_exceeded) graphs
  in
  let fp_s, fp_calls = timed_sum (fun g -> ignore (Pgraph.Fingerprint.of_graph g)) graphs in
  [
    m "canon.form_s" "s" form_s;
    m "canon.forms" "count" (float_of_int forms);
    m "canon.budget_exceeded" "count" (float_of_int !budget_exceeded);
    m "fingerprint.s" "s" fp_s;
    m "fingerprint.calls" "count" (float_of_int fp_calls);
  ]

(* Returns per-layer metrics; [transform_s] is the traced transform
   span total, from which the graph-store share is subtracted. *)
let remeasure ~transform_s (cells : traced list) =
  let m = Measure.metric in
  let dumps =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun (r : P.Recording.recorded) ->
            match r.P.Recording.output with
            | Recorders.Recorder.Store_dump s -> Some s
            | Recorders.Recorder.Dot_text _ | Recorders.Recorder.Prov_json _ -> None)
          t.recordings)
      cells
  in
  let load_s, open_s =
    List.fold_left
      (fun (l, o) dump ->
        let db, dl = Measure.time (fun () -> Graphstore.Store.load dump) in
        let (), dopen = Measure.time (fun () -> Graphstore.Store.open_db db) in
        (l +. dl, o +. dopen))
      (0., 0.) dumps
  in
  let trial_graphs = List.concat_map (fun t -> List.concat t.trial_graphs) cells in
  let graphs = trial_graphs @ List.concat_map (fun t -> t.generals) cells in
  (* Cache keys as Pipeline derives them, canonical forms included. *)
  Pgraph.Canon.clear ();
  let key_s, key_calls =
    let s1, n1 = timed_sum (fun t -> ignore (P.Pipeline.program_digest t.cell.prog)) cells in
    let s2, n2 = timed_sum (fun g -> ignore (P.Artifact_store.canonical_graph_digest g)) graphs in
    (s1 +. s2, n1 + n2)
  in
  let forms = form_metrics graphs in
  (* The matching calls each stage made, re-issued cold. *)
  Pgraph.Canon.clear ();
  Asp.Memo.clear ();
  let sim_s = ref 0. and sim_n = ref 0 and gen_s = ref 0. and sub_s = ref 0. in
  let similar backend a b =
    let v, dt = Measure.time (fun () -> Gmatch.Engine.similar ~backend a b) in
    sim_s := !sim_s +. dt;
    incr sim_n;
    v
  in
  List.iter
    (fun t ->
      let backend = t.cell.config.C.backend in
      List.iter
        (function
          | g0 :: rest -> (
              match List.find_opt (fun g -> similar backend g0 g) rest with
              | Some g ->
                  let _, dt =
                    Measure.time (fun () -> Gmatch.Engine.generalization_matching ~backend g0 g)
                  in
                  gen_s := !gen_s +. dt
              | None -> ())
          | [] -> ())
        t.trial_graphs;
      match t.generals with
      | [ bg; fg ] ->
          if not (similar backend bg fg) then begin
            let _, dt = Measure.time (fun () -> Gmatch.Engine.subgraph_matching ~backend bg fg) in
            sub_s := !sub_s +. dt
          end
      | _ -> ())
    cells;
  let nodes = List.fold_left (fun n g -> n + G.node_count g) 0 trial_graphs in
  [
    m "graphstore.open_db_s" "s" open_s;
    m "graphstore.load_s" "s" load_s;
    m "graphstore.open_db_calls" "count" (float_of_int (List.length dumps));
    m "transform.busy_s" "s" (Float.max 0. (transform_s -. load_s -. open_s));
    m "transform.graphs" "count" (float_of_int (List.length trial_graphs));
    m "transform.nodes" "count" (float_of_int nodes);
    m "store.key_s" "s" key_s;
    m "store.key_calls" "count" (float_of_int key_calls);
    m "gmatch.similar_s" "s" !sim_s;
    m "gmatch.similar_calls" "count" (float_of_int !sim_n);
    m "gmatch.generalization_matching_s" "s" !gen_s;
    m "gmatch.subgraph_matching_s" "s" !sub_s;
  ]
  @ forms
