(** Rendering of benchmark results: the Table 2 validation matrix, the
    Table 3 structure summaries, per-stage timing lines (Figures 5–10),
    and CSV export in the format of the original [*.time] files. *)

(** A full validation run: per (tool, syscall) results. *)
type matrix = (Recorders.Recorder.tool * Result.t list) list

(** Render the Table 2 matrix.  Each cell shows the measured status
    annotated with the paper's note, plus a [*] marker when the measured
    result disagrees with the paper's expected cell and a [~] marker
    when the result is degraded (produced through a fallback path). *)
val validation_matrix : matrix -> string

(** [agreement matrix] is [(agreeing cells, total cells)]. *)
val agreement : matrix -> int * int

(** Table 3-style structure summary for selected syscalls. *)
val structure_table : matrix -> syscalls:string list -> string

(** One figure's timing data: per-benchmark stacked stage times. *)
val timing_lines : Result.t list -> string

(** CSV in the sampleResult format: tool, syscall, then the four stage
    times in seconds. *)
val timing_csv : Result.t list -> string

(** Render per-stage solve-cache counters as a small table.  Rows are
    [(stage, hits, misses)] — the shape of [Asp.Memo.stats], flattened. *)
val cache_stats_lines : (string * int * int) list -> string

(** The full cache/solver statistics block — ASP solve-cache table,
    canon skips, segment-prepass counters — rendered from the live
    process-wide counters.  Every line is independent of scheduling, so
    the block is identical at any job count; the scheduling-dependent
    coalesced-solve count is reported only by the serve [stats] op.  Empty when the solve
    cache was never consulted.  This is the one renderer behind both
    the batch CLI's suite epilogue and the serve daemon's [stats]
    response, so the two can never drift. *)
val stats_lines : unit -> string

(** Exactly what the batch CLI prints to stdout for one finished
    benchmark run (the [run] subcommand body): the summary line, the
    target-graph Datalog when a target was found, and — for result type
    ["rg"] — the generalized background/foreground graph blocks.
    (Result type ["rh"]'s HTML side effects stay in the CLI.)  The
    serve daemon answers benchmark requests with this same string,
    which is what makes daemon responses byte-identical to the batch
    CLI's output for the same inputs. *)
val run_output : result_type:string -> Result.t -> string

(** The suite-epilogue stdout block shared by the CLI's exit path and
    the serve daemon: the fault-outcome line when a fault plan is
    active, then the quarantine report when anything was quarantined.
    Empty for a clean run without faults. *)
val suite_epilogue : Result.t list -> string

(** One line per quarantined benchmark (all attempts failed): syscall,
    stage diagnosis, attempt count.  Empty string when nothing was
    quarantined.  The suite completes despite quarantines; these lines
    plus the CLI exit code are how they surface. *)
val quarantine_lines : Result.t list -> string

(** Deterministic accounting line for fault-injected runs: how many
    benchmarks were retried, degraded, or quarantined.  Byte-identical
    across [-j] levels and reruns — the CI chaos job diffs it. *)
val fault_outcome_line : Result.t list -> string
