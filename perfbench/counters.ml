(* A snapshot of every counter the libraries export, as an association
   list so snapshots diff, serialize (the serve daemon's process sends
   its own) and read back uniformly.  Per-layer counts are deltas
   between two snapshots; nothing here resets a library counter. *)

module J = Minijson.Json

type t = (string * float) list

let snapshot () : t =
  let f = float_of_int in
  let incr_certified, incr_fallbacks = Gmatch.Incremental.stats () in
  let delta_certified, delta_fallbacks, _ = Gmatch.Incremental.delta_stats () in
  let canon_computed, canon_hits = Pgraph.Canon.stats () in
  let solver = Asp.Solver.stats () in
  let memo = Asp.Memo.totals () in
  let gc = Gc.quick_stat () in
  [
    ("canon_skips", f (Gmatch.Engine.canon_skip_total ()));
    ("segment_solves", f (Gmatch.Engine.segment_solves ()));
    ("segment_fallbacks", f (Gmatch.Engine.segment_fallbacks ()));
    ("degraded", f (Gmatch.Engine.degraded_total ()));
    ("incremental_certified", f incr_certified);
    ("incremental_fallbacks", f incr_fallbacks);
    ("delta_certified", f delta_certified);
    ("delta_fallbacks", f delta_fallbacks);
    ("planner_decisions", f (Gmatch.Planner.decisions_total ()));
    ("planner_mispredictions", f (Gmatch.Planner.mispredictions ()));
    ("canon_computed", f canon_computed);
    ("canon_hits", f canon_hits);
    ("asp_decisions", f solver.Asp.Solver.decisions);
    ("asp_propagations", f solver.Asp.Solver.propagations);
    ("memo_hits", f memo.Asp.Memo.hits);
    ("memo_misses", f memo.Asp.Memo.misses);
    ("memo_coalesced", f (Asp.Memo.coalesced ()));
    ("symtab_size", f (Datalog.Symtab.size ()));
    ("gc_minor", f gc.Gc.minor_collections);
    ("gc_major", f gc.Gc.major_collections);
    ("gc_words", gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words);
    ("peak_rss_mb", Measure.peak_rss_mb ());
  ]

let get (c : t) k = Option.value (List.assoc_opt k c) ~default:0.

(* [diff later earlier]; the peak RSS is a high-water mark, not a
   count, so it keeps the later value. *)
let diff (later : t) (earlier : t) : t =
  List.map (fun (k, v) -> if k = "peak_rss_mb" then (k, v) else (k, v -. get earlier k)) later

let to_json (c : t) = J.Object (List.map (fun (k, v) -> (k, J.Number v)) c)
let of_json j : t = List.map (fun (k, v) -> (k, J.to_number v)) (J.to_assoc j)

(* Drop every process-wide memo and compact the heap, so a pass starts
   as cold as a fresh [provmark batch] process would (the counters
   above are kept). *)
let clear_caches () =
  Pgraph.Canon.clear ();
  Asp.Memo.clear ();
  Gmatch.Planner.reset ();
  Gmatch.Incremental.reset_delta ();
  Gc.compact ()
