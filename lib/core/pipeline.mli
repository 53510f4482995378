(** The four ProvMark stages composed as a typed dataflow (paper
    Sections 3.2–3.5): recording → transformation → generalization
    (per variant) → comparison.

    Each stage is a {!Stage.t} value, so one attempt of the pipeline is
    a chain of {!Stage.execute} calls threading a trace context and an
    optional {!Artifact_store.t}.  Cache keys chain the digests each
    artifact carries in its header, computed once when it is written:

    {v
    program text ─d_prog─▶ recording ─d_recs─▶ transformation
      ─d_trials(variant)─▶ generalization ─d_general─▶ comparison
    v}

    [d_recs] digests the recording artifact's encoding; [d_trials] is
    the canonical digest of one variant's trial graphs (stored with the
    Canon setting it was taken under, since the transformation key does
    not cover it); [d_general] is the canonical digest of a generalized
    graph.  Together with the per-stage configuration fingerprints
    from {!Config}, editing a benchmark therefore invalidates exactly
    its own chain; flipping a knob (say [backend]) re-keys only the
    stages that read it and everything downstream.

    A warm replay reads the recording and transformation artifacts for
    their digests only.  Their bodies are decoded when a downstream
    stage has no stored artifact and needs them as input, and then
    ahead of that stage (for generalization: before its pair forks), so
    the pair jobs do not decode a shared value.  Only a generalization
    artifact that exists but fails to read back makes its pair job
    decode the transformation itself; {!Stage.value} tolerates two such
    callers.  The generalization and comparison artifacts are decoded
    on every replay: their values are the result. *)

(** The recording stage as a function, so tests can swap
    {!Recording.record_all} for an instrumented or deliberately flaky
    recorder and exercise the retry policy directly.  The store is
    consulted for the recording stage only when the recorder is
    (physically) {!Recording.record_all} — cached artifacts of an
    injected recorder would poison later real runs. *)
type recorder =
  Config.t -> Oskernel.Program.t -> Recording.recorded list * Recording.recorded list

(** What one attempt produces; {!Runner} wraps this into a {!Result.t}
    with the span tree and retry bookkeeping. *)
type outcome = {
  status : Result.status;
  bg_general : Pgraph.Graph.t option;
  fg_general : Pgraph.Graph.t option;
  degraded : string list;
      (** degradation notes in stage order, each prefixed with where it
          happened ("background"/"foreground"/"comparison"), dedup'd.
          Notes ride inside the generalization/comparison artifacts, so
          a warm replay of a degraded stage reports the same reduced
          guarantees as the cold run that computed it. *)
}

(** Canonical digest of everything a benchmark program contributes to
    its recordings: name, syscall, staging, credentials, setup and
    target bodies.  The root of each benchmark's cache-key chain. *)
val program_digest : Oskernel.Program.t -> string

(** [set_pair_pool (Some pool)] makes every subsequent {!run_once} run
    its background/foreground generalization pair (and the canonical
    digests of both variants' trial and generalized graphs, when they
    are computed rather than replayed) as help-queue pairs on [pool]
    (see {!Pool.run_pair}); [None] (the default) runs them
    sequentially.  Either way, results are consumed in the fixed
    bg-then-fg order and the two branches' spans are grafted back in
    that order, so run output is byte-identical at any [-j].  The
    parallel suite runner installs its own pool here for the duration
    of a batch. *)
val set_pair_pool : Pool.t option -> unit

(** [run_once ~record ~ctx session prog] executes the four stages once
    inside [ctx] (one child span per stage execution, tagged with cache
    disposition), under the session's config: consulting its [store]
    when present and enforcing its [deadline_s] per stage when set.
    The session is the per-run value — everything shared between
    concurrent runs (ASP memo, canon cache, the store itself) lives
    behind its own lock, never here. *)
val run_once :
  record:recorder -> ctx:Trace_span.ctx -> Session.t -> Oskernel.Program.t -> outcome
