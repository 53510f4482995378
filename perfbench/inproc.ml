(* The two in-process workloads, table2 and scale-ladder.

   A pass runs the workload's fixed input set once, with every
   process-wide memo cleared first, so each pass costs what one cold
   [provmark batch] invocation would.  Untraced passes go through the
   library's own runners; traced passes go through {!Compose}. *)

module P = Provmark
module C = Provmark.Config
module R = Provmark.Result
module Recorder = Recorders.Recorder

type workload = {
  name : string;
  jobs : int;
  pass_seed : int -> int;  (** pass index -> base seed of that pass *)
  cells : int -> Compose.cell list;  (** base seed -> the pass's cells *)
  run : int -> R.t list;  (** base seed -> results, in [cells] order *)
  check : int -> R.t list -> int;  (** base seed -> results -> failed checks *)
  spot : int;  (** cells per pass re-run sequentially to check the runner *)
  reference : unit -> int * int;  (** operations and failed checks of the untimed reference run *)
  probe : unit -> Compose.cell list;  (** cold cells run at set-up *)
}

let config tool seed = { (C.default tool) with C.seed }

(* A cell whose pipeline failed is a failed operation. *)
let failed_cell (r : R.t) =
  match r.R.status with
  | R.Failed _ ->
      Printf.eprintf "%s/%s failed: %s\n%!" (Recorder.tool_name r.R.tool) r.R.benchmark (R.summary r);
      true
  | R.Target _ | R.Empty -> false

let count p xs = List.length (List.filter p xs)

(* Operations attempted and failed, summed over the parts of a run. *)
let ( ++ ) (a, f) (b, g) = (a + b, f + g)

(* ------------------------------------------------------------------ *)
(* table2: the 44 Table 1 benchmarks x SPADE, OPUS, CamFlow             *)

(* Cells per column that set-up answers cold.  With one cell per
   column, set-up time over pass time moved from 0.042 to 0.057 with
   the run's seed; four per column keep one seed's draw from deciding
   [setup_s]. *)
let probe_cells = 4

(* Table 2 fidelity is pinned at the reference base seed 1: at a fresh
   base seed the simulated recorder flakiness occasionally turns one
   cell's verdict (about one pass in fifteen).  Such cells are printed
   on stderr for every pass but are not errors; a failed cell is. *)
let table2 ~tiny ~jobs ~seed =
  let progs =
    if tiny then List.filteri (fun i _ -> i < 3) P.Bench_registry.all else P.Bench_registry.all
  in
  let configs s = List.map (fun tool -> config tool s) Recorder.all_tools in
  let matrix s =
    if tiny then List.map (fun c -> (c.C.tool, P.Parallel_runner.run_all ~jobs c progs)) (configs s)
    else P.Parallel_runner.run_matrix ~jobs (configs s)
  in
  let disagreements s results =
    count
      (fun (r : R.t) ->
        let differs = not (P.Bench_registry.matches (P.Bench_registry.expected r.R.tool r.R.syscall) r) in
        if differs then
          Printf.eprintf "table2: %s/%s at base seed %d differs from Table 2: %s\n%!"
            (Recorder.tool_name r.R.tool) r.R.benchmark s (R.summary r);
        differs)
      results
  in
  {
    name = "table2";
    jobs;
    pass_seed = (fun k -> Measure.mix seed k);
    cells = (fun s -> List.concat_map (fun c -> List.map (Compose.cell c) progs) (configs s));
    run = (fun s -> List.concat_map snd (matrix s));
    check =
      (fun s results ->
        ignore (disagreements s results);
        count failed_cell results);
    spot = 3;
    reference =
      (fun () ->
        let m = matrix 1 in
        let agree, total = P.Report.agreement m in
        ignore (disagreements 1 (List.concat_map snd m));
        (total, total - agree));
    probe =
      (fun () ->
        let first = List.filteri (fun i _ -> i < probe_cells) progs in
        List.concat_map (fun c -> List.map (Compose.cell c) first) (configs (Measure.mix seed 0)));
  }

(* ------------------------------------------------------------------ *)
(* scale-ladder: the Section 5.2 series                                *)

(* SPADE and OPUS run the ladder at a fresh base seed every pass;
   CamFlow always runs at the default config's base seed: at some base
   seeds its foreground graphs defeat Canon and the VF2 fallback runs
   for minutes (see README.md, Findings), longer than a bounded run
   can take.  The targets' canonical digests do not depend on the base
   seed for SPADE and OPUS, so every cell's digest must repeat in every
   pass. *)
let scale_ladder ~tiny ~seed =
  let ladder =
    if tiny then [ (Recorder.Spade, [ 2; 4 ]); (Recorder.Camflow, [ 2; 4 ]); (Recorder.Opus, [ 2 ]) ]
    else [ (Recorder.Spade, [ 8; 16; 32 ]); (Recorder.Camflow, [ 8; 16; 32 ]); (Recorder.Opus, [ 8; 16 ]) ]
  in
  let ladder_config tool s = if tool = Recorder.Camflow then C.default tool else config tool s in
  let digests = ref None in
  {
    name = "scale-ladder";
    jobs = 1;
    pass_seed = (fun k -> Measure.mix seed k);
    cells =
      (fun s ->
        List.concat_map
          (fun (tool, ns) -> List.map (fun n -> Compose.cell (ladder_config tool s) (P.Scalability.program n)) ns)
          ladder);
    run =
      (fun s ->
        List.concat_map
          (fun (tool, ns) ->
            P.Parallel_runner.run_all_sequential (ladder_config tool s) (List.map P.Scalability.program ns))
          ladder);
    check =
      (fun _ results ->
        let ds =
          List.map
            (fun (r : R.t) ->
              match r.R.status with
              | R.Target g -> Some (P.Artifact_store.canonical_graph_digest g)
              | R.Empty | R.Failed _ -> None)
            results
        in
        let expected = match !digests with Some e -> e | None -> digests := Some ds; ds in
        List.fold_left2
          (fun n (r : R.t) (d, e) ->
            if d <> None && d = e then n
            else begin
              Printf.eprintf "scale-ladder: %s/%s: %s, not the target of the first pass\n%!"
                (Recorder.tool_name r.R.tool) r.R.benchmark (R.summary r);
              n + 1
            end)
          0 results (List.combine ds expected));
    spot = 0;
    reference = (fun () -> (0, 0));
    probe =
      (fun () ->
        List.map (fun (tool, _) -> Compose.cell (ladder_config tool (Measure.mix seed 0)) (P.Scalability.program 1)) ladder);
  }

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let root_s (r : R.t) = P.Trace_span.duration_s r.R.span

(* Root-span time of one result not covered by its four stage spans. *)
let outside_stages_s (r : R.t) =
  let to_s ns = Int64.to_float ns /. 1e9 in
  let stages = [ "recording"; "transformation"; "generalization"; "comparison" ] in
  let intervals =
    P.Trace_span.fold
      (fun acc (s : P.Trace_span.t) ->
        if List.mem s.P.Trace_span.name stages then
          let a = to_s s.P.Trace_span.start_ns in
          (a, a +. to_s s.P.Trace_span.dur_ns) :: acc
        else acc)
      [] r.R.span
  in
  let lo = to_s r.R.span.P.Trace_span.start_ns in
  let hi = lo +. root_s r in
  (hi -. lo) -. Spans.covered ~lo ~hi intervals

(* Set-up: derive the inputs of a pass and answer the workload's probe
   cells cold, as fresh [provmark run]s would. *)
let setup_once w =
  Counters.clear_caches ();
  let tally, dt =
    Measure.time (fun () ->
        ignore (w.cells (w.pass_seed 0));
        let probe = w.probe () in
        (List.length probe, count (fun (c : Compose.cell) -> failed_cell (P.Runner.run c.Compose.config c.Compose.prog)) probe))
  in
  (dt, tally)

let setup_reps = 9

(* What a pass leaves behind.  Results themselves are dropped at the
   end of the pass, so memory does not grow with the number of passes. *)
type pass = {
  seconds : float;
  peak_rss_mb : float;  (** the process's VmHWM at the end of the pass *)
  verdicts : string list;  (** every cell's verdict, in [cells] order *)
  latency : (string * float list) list;  (** per-cell milliseconds by kind, see [latencies] *)
  failed : int;
  counters : Counters.t;
  runner : Measure.metric list;
  seed : int;
}

let runner_metrics w seconds results =
  let m = Measure.metric in
  let busy = Measure.sum (List.map root_s results) in
  [
    m "runner.busy_s" "s" busy;
    m "runner.efficiency" "ratio" (Measure.ratio busy (float_of_int w.jobs *. seconds));
    m "runner.attempts_per_benchmark" "count"
      (Measure.ratio
         (float_of_int (List.fold_left (fun n r -> n + R.attempts r) 0 results))
         (float_of_int (List.length results)));
    m "runner.outside_stages_s" "s" (Measure.sum (List.map outside_stages_s results));
  ]

(* Per-cell latencies of a batch pass, in ms: the whole cell and its
   stages, named after the serve-mixed request kinds they correspond
   to: write = recording (the recorder writes provenance), read =
   transformation (parsing what it wrote), match = generalization plus
   comparison. *)
let latencies results =
  let per f = List.map (fun r -> Measure.ms (f (R.times r))) results in
  [
    ("cell", List.map (fun r -> Measure.ms (root_s r)) results);
    ("write", per (fun t -> t.R.recording_s));
    ("read", per (fun t -> t.R.transformation_s));
    ("match", per (fun t -> t.R.generalization_s +. t.R.comparison_s));
  ]

let untraced_pass w k =
  let s = w.pass_seed k in
  Counters.clear_caches ();
  let c0 = Counters.snapshot () in
  let cpu0 = Unix.times () in
  let results, dt = Measure.time (fun () -> w.run s) in
  let cpu1 = Unix.times () in
  let cpu = cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime in
  let counters = Counters.diff (Counters.snapshot ()) c0 in
  Printf.eprintf "%s: pass %d (base seed %d) %.3f s (CPU %.3f s), slowest cell %.3f s, peak RSS %.1f MB\n%!"
    w.name k s dt cpu
    (List.fold_left (fun m r -> Float.max m (root_s r)) 0. results)
    (Counters.get counters "peak_rss_mb");
  {
    seconds = dt;
    peak_rss_mb = Counters.get counters "peak_rss_mb";
    verdicts = List.map Compose.verdict results;
    latency = latencies results;
    failed = w.check s results;
    counters;
    runner = runner_metrics w dt results;
    seed = s;
  }

(* Re-run [w.spot] seeded cells of each pass on the calling domain
   through [Runner.run]; the parallel runner must have answered the
   same.  Runs after the timed window, with the reference check. *)
let late_checks w passes =
  let spot p =
    let cells = Array.of_list (w.cells p.seed) and verdicts = Array.of_list p.verdicts in
    List.init w.spot (fun i -> Measure.mix p.seed (1000 + i) mod Array.length cells)
    |> List.filter (fun i ->
           let c = cells.(i) in
           let ok = Compose.verdict (P.Runner.run c.Compose.config c.Compose.prog) = verdicts.(i) in
           if not ok then Printf.eprintf "%s: %s differs from the sequential runner\n%!" w.name c.Compose.key;
           not ok)
    |> List.length
  in
  List.fold_left (fun t p -> t ++ (w.spot, spot p)) (w.reference ()) passes

let setup w =
  let reps = List.init setup_reps (fun _ -> setup_once w) in
  (Measure.median (List.map fst reps), List.fold_left (fun t (_, r) -> t ++ r) (0, 0) reps)

(* Passes until [seconds] have elapsed (at least one). *)
let window ~seconds f =
  let start = Measure.now () in
  let rec loop k acc =
    if k > 0 && Measure.now () -. start >= float_of_int seconds then List.rev acc
    else loop (k + 1) (f k :: acc)
  in
  loop 0 []

(* Peak RSS is read after this many passes: fresh seeds intern fresh
   strings in the never-freed [Datalog.Symtab], so the process grows
   with every table2 pass and a time-bounded window would make the
   lifetime peak depend on machine speed. *)
let rss_passes = 3

let end_to_end ~seconds w =
  let setup_s, setup_tally = setup w in
  let passes = window ~seconds (untraced_pass w) in
  let attempted, failed =
    List.fold_left
      (fun t p -> t ++ (List.length p.verdicts, p.failed))
      (setup_tally ++ late_checks w passes)
      passes
  in
  let m = Measure.metric in
  (* Each percentile is taken within a pass, then the median over passes. *)
  let per_pass f = Measure.median (List.map f passes) in
  let within f kind = per_pass (fun q -> f (List.assoc kind q.latency)) in
  let p50 = within Measure.median in
  let metrics =
    [
      m "pass_s" "s" (per_pass (fun p -> p.seconds));
      m "req_per_s" "1/s" (per_pass (fun p -> float_of_int (List.length p.verdicts) /. p.seconds));
      m "p50_ms" "ms" (p50 "cell");
      m "p99_ms" "ms" (within (Measure.percentile 99.) "cell");
      m "read_p50_ms" "ms" (p50 "read");
      m "write_p50_ms" "ms" (p50 "write");
      m "match_p50_ms" "ms" (p50 "match");
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (List.nth passes (min rss_passes (List.length passes) - 1)).peak_rss_mb;
      m "ok_ratio" "ratio" (1. -. Measure.ratio (float_of_int failed) (float_of_int attempted));
    ]
  in
  (attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let traced_pass spans w k =
  let s = w.pass_seed k in
  Counters.clear_caches ();
  let cells = w.cells s in
  (* One job runs on the calling domain, as the untraced pass does. *)
  let map f = if w.jobs = 1 then List.map f else P.Pool.map ~jobs:w.jobs f in
  Measure.time (fun () -> map (Compose.run_cell spans) cells)

let counter_metrics (c : Counters.t) =
  let m = Measure.metric in
  let g = Counters.get c in
  [
    m "gmatch.canon_skips" "count" (g "canon_skips");
    m "gmatch.segment_solves" "count" (g "segment_solves");
    m "gmatch.segment_fallbacks" "count" (g "segment_fallbacks");
    m "gmatch.degraded" "count" (g "degraded");
    m "incremental.certified_ratio" "ratio"
      (Measure.ratio (g "incremental_certified") (g "incremental_certified" +. g "incremental_fallbacks"));
    m "delta.reused" "count" (g "delta_certified");
    m "planner.decisions" "count" (g "planner_decisions");
    m "planner.mispredictions" "count" (g "planner_mispredictions");
    m "canon.cache_hit_ratio" "ratio" (Measure.ratio (g "canon_hits") (g "canon_hits" +. g "canon_computed"));
    m "asp.decisions" "count" (g "asp_decisions");
    m "asp.propagations" "count" (g "asp_propagations");
    m "memo.hit_ratio" "ratio" (Measure.ratio (g "memo_hits") (g "memo_hits" +. g "memo_misses"));
    m "memo.coalesced" "count" (g "memo_coalesced");
    m "datalog.symtab_interned" "count" (g "symtab_size");
    m "gc.minor_collections" "count" (g "gc_minor");
    m "gc.major_collections" "count" (g "gc_major");
    m "gc.allocated_mb" "MB" (g "gc_words" *. float_of_int (Sys.word_size / 8) /. 1048576.);
  ]

let median_metrics (runs : Measure.metric list list) =
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (mt : Measure.metric) ->
          let values =
            List.filter_map
              (fun run ->
                List.find_map (fun (x : Measure.metric) -> if x.Measure.name = mt.Measure.name then Some x.Measure.value else None) run)
              runs
          in
          { mt with Measure.value = Measure.median values })
        first

let traced ~seconds ~spans w =
  let _setup_s, setup_tally = setup w in
  let last = ref [] in
  let pairs =
    window ~seconds (fun k ->
        let u = untraced_pass w k in
        let t, t_s = traced_pass spans w k in
        last := t;
        let mismatched =
          List.fold_left2
            (fun n (tc : Compose.traced) v ->
              if Compose.status_verdict tc.Compose.status = v then n else n + 1)
            0 t u.verdicts
        in
        (u, t_s, List.length t, mismatched))
  in
  let attempted, failed =
    List.fold_left
      (fun t (u, _, nt, mis) -> t ++ (nt + List.length u.verdicts, u.failed + mis))
      (setup_tally ++ late_checks w (List.map (fun (u, _, _, _) -> u) pairs))
      pairs
  in
  let table = Spans.self_times (Spans.all spans) in
  let n_pairs = float_of_int (List.length pairs) in
  (* Span totals are over every traced pass; report them per pass. *)
  let per_pass x = x /. n_pairs in
  let m = Measure.metric in
  let untraced_s = Measure.median (List.map (fun (u, _, _, _) -> u.seconds) pairs) in
  let traced_s = Measure.median (List.map (fun (_, t, _, _) -> t) pairs) in
  let runner =
    median_metrics (List.map (fun (u, _, _, _) -> u.runner @ counter_metrics u.counters) pairs)
  in
  let layers = Compose.remeasure ~transform_s:(per_pass (Spans.total_s table "transform")) !last in
  let get name = List.find_map (fun (x : Measure.metric) -> if x.Measure.name = name then Some x.Measure.value else None) layers |> Option.value ~default:0. in
  let recording_s = per_pass (Spans.total_s table "recording") in
  let capture = recording_s +. get "graphstore.open_db_s" in
  let kept, seen =
    List.fold_left
      (fun (k, s) (t : Compose.traced) -> (k + t.Compose.class_size, s + t.Compose.trials_seen))
      (0, 0) !last
  in
  let spans_metrics =
    [
      m "recording.busy_s" "s" recording_s;
      m "recording.calls" "count" (per_pass (float_of_int (Spans.count table "recording")));
      m "generalize.busy_s" "s" (per_pass (Spans.total_s table "generalize"));
      m "generalize.calls" "count" (per_pass (float_of_int (Spans.count table "generalize")));
      m "generalize.trials_kept_ratio" "ratio" (Measure.ratio (float_of_int kept) (float_of_int seen));
      m "compare.busy_s" "s" (per_pass (Spans.total_s table "compare"));
      m "compare.calls" "count" (per_pass (float_of_int (Spans.count table "compare")));
      m "sim.capture_s" "s" capture;
      m "provmark.own_s" "s" (per_pass (Spans.total_s table "cell") -. capture);
      m "self.cell_s" "s" (per_pass (Spans.self_s table "cell"));
      m "self.attempt_s" "s" (per_pass (Spans.self_s table "attempt"));
      m "self.recording_s" "s" (per_pass (Spans.self_s table "recording"));
      m "self.transform_s" "s" (per_pass (Spans.self_s table "transform"));
      m "self.store_key_s" "s" (per_pass (Spans.self_s table "store_key"));
      m "self.generalize_s" "s" (per_pass (Spans.self_s table "generalize"));
      m "self.compare_s" "s" (per_pass (Spans.self_s table "compare"));
      m "trace.untraced_s" "s" untraced_s;
      m "trace.traced_s" "s" traced_s;
      m "trace.overhead_ratio" "ratio" (Measure.ratio traced_s untraced_s);
    ]
  in
  (attempted, failed, runner @ layers @ spans_metrics)
