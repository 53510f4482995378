(** One typed step of the benchmark pipeline.

    A [('a, 'b) t] maps a stage input to either an output or a
    structured {!Result.stage_error}; {!execute} wraps the step with a
    trace span and, when a store is supplied, content-addressed
    caching.  Failures are first-class values here — they are encoded
    into the store exactly like successes, so a deterministic failure
    (e.g. a non-embeddable background) also replays warm instead of
    re-running the solver just to fail again. *)

type ('a, 'b) t = {
  name : string;
      (** "recording" / "transformation" / "generalization" /
          "comparison" — also the span name and the store subdirectory *)
  run : Trace_span.ctx -> 'a -> ('b, Result.stage_error) result;
  encode : ('b, Result.stage_error) result -> string;
  decode : string -> ('b, Result.stage_error) result;
      (** may raise on corrupt input; {!execute} treats that as a miss *)
  carry : 'b -> body:(unit -> string) -> string list;
      (** [carry v ~body] is what the consumers of a success key on
          (digests: no spaces, no newlines); [body ()] is its encoding.
          Computed once, when the artifact is written, and stored in the
          artifact's header, so a replay hands the digests out without
          decoding anything. *)
}

(** A successful stage execution: the digests it carries and its
    value, which a deferred replay decodes only when asked for. *)
type 'b output

(** The artifact-store key for one execution of [stage]:
    [fingerprint] is the stage's configuration fingerprint (see
    {!Config.recording_fingerprint} etc.), [inputs] the digests its
    upstream artifacts carry.  Chaining input digests is what gives
    precise invalidation: an edited benchmark changes the program
    digest, which changes this stage's key and every downstream key,
    while unrelated benchmarks keep hitting. *)
val cache_key : ('a, 'b) t -> fingerprint:string -> inputs:string list -> string

(** [stored ?store stage ~fingerprint ~inputs] is whether [store] has an
    entry under this execution's key (unverified: it may still prove
    corrupt when read); [false] without a store. *)
val stored :
  ?store:Artifact_store.t -> ('a, 'b) t -> fingerprint:string -> inputs:string list -> bool

(** [execute ?store ?deadline_s ?defer ~ctx ~fingerprint ~inputs stage
    input] runs the stage inside a child span of [ctx] named
    [stage.name].  [input] is called only when the stage computes (with
    the stage's span context), so a replay never builds its input.

    The span is tagged ["cache"] = ["off"] (no store), ["hit"] (artifact
    replayed, [stage.run] never called) or ["miss"] (computed, then
    stored).  On compute, nonzero deltas of the solver effort counters
    (ASP decisions/propagations, matching-memo hits/misses, incremental
    matcher certified/fallback counts) are attached as additional
    tags.  Exceptions escaping [stage.run] (other than [Stack_overflow]
    and [Out_of_memory]) are converted to [Error] with
    {!Result.Stage_exception}.

    A hit costs one sealed read.  A failure's body is decoded at once;
    a success's body is decoded at once too unless [defer] (default
    [false]), in which case {!value} decodes it on first use — in its
    own span named [stage.name], tagged ["cache"] = ["decode"].  A body
    that then fails to decode is a miss after all: the hit is counted
    as a miss instead ({!Artifact_store.demote}), the span is tagged
    ["miss"], and the stage recomputes from [input] and rewrites the
    entry.

    When [deadline_s] is given and a computed stage overruns it (checked
    post hoc on the monotonic clock; nothing is cancelled mid-flight),
    the result is replaced by [Error] with {!Result.Deadline_exceeded}
    carrying the configured budget string, the span gains a
    ["deadline"] = ["exceeded"] tag, and nothing is written to the
    store — deadline verdicts are timing-dependent and must not replay
    on a machine that would have met the budget.  Cache hits are exempt
    (replay is not the work being budgeted). *)
val execute :
  ?store:Artifact_store.t ->
  ?deadline_s:float ->
  ?defer:bool ->
  ctx:Trace_span.ctx ->
  fingerprint:string ->
  inputs:string list ->
  ('a, 'b) t ->
  (Trace_span.ctx -> ('a, Result.stage_error) result) ->
  ('b output, Result.stage_error) result

(** The digests the output carries: read from the artifact's header on
    a hit, computed by [stage.carry] on a miss, and computed on demand
    (each call) for an execution without a store. *)
val carried : 'b output -> string list

(** [value ctx o] is the output's value, decoding a deferred replay on
    the first call (recomputing it if the body proves corrupt; that
    recompute may fail, hence the [result]).  Force a deferred output
    from one domain at a time: two racing callers are safe but both
    decode. *)
val value : Trace_span.ctx -> 'b output -> ('b, Result.stage_error) result

(** [true] while a deferred replay's body has not been decoded. *)
val pending : 'b output -> bool
