(* Canonical forms and the fast paths built on them.

   Four layers are pinned here:
   - Pgraph.Canon: digests are invariant under relabelling and insertion
     order, and decide label-isomorphism exactly (differentially against
     both matching backends);
   - the engine bypass: canon-on and canon-off agree on every verdict
     and optimal cost, for isomorphic, property-perturbed and
     shape-perturbed pairs alike;
   - the canonically rekeyed solve memo: renamed instances replay warm,
     and translated witnesses verify on the original graphs;
   - the pair-parallel pipeline: suite output is byte-identical across
     --no-canon/default and across job counts. *)

open Pgraph
module Engine = Gmatch.Engine
module Matching = Gmatch.Matching
module Recorder = Recorders.Recorder
module Result_ = Provmark.Result
module Config = Provmark.Config
module Parallel_runner = Provmark.Parallel_runner
module Pool = Provmark.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_canon enabled f =
  Canon.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Canon.set_enabled true) f

let with_cache enabled f =
  Asp.Memo.set_enabled enabled;
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Asp.Memo.set_enabled true;
      Asp.Memo.clear ();
      Asp.Memo.reset_stats ())
    f

(* ------------------------------------------------------------------ *)
(* Digest invariance                                                   *)
(* ------------------------------------------------------------------ *)

let rebuild_reversed g =
  let g' =
    List.fold_left
      (fun acc (n : Graph.node) ->
        Graph.add_node acc ~id:n.Graph.node_id ~label:n.Graph.node_label ~props:n.Graph.node_props)
      Graph.empty
      (List.rev (Graph.nodes g))
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.add_edge acc ~id:e.Graph.edge_id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
        ~label:e.Graph.edge_label ~props:e.Graph.edge_props)
    g'
    (List.rev (Graph.edges g))

let prop_digest_invariant =
  Helpers.qcheck "digest invariant under relabelling and insertion order"
    (Helpers.graph_arbitrary ())
    (fun g ->
      let d = Canon.digest g in
      d = Canon.digest (Helpers.permute_ids g)
      && d = Canon.digest (Helpers.rename_with_prefix "z:" g)
      && d = Canon.digest (rebuild_reversed g))

let prop_digest_decides_similarity =
  (* The iff direction: digests agree exactly when the solver-free VF2
     matcher finds a label-isomorphism.  (Both graphs canonicalize —
     the generator's graphs sit far below the leaf budget.) *)
  Helpers.qcheck "digest equality is exactly VF2 similarity"
    (QCheck.pair (Helpers.graph_arbitrary ()) (Helpers.graph_arbitrary ()))
    (fun (g, h) ->
      match (Canon.digest g, Canon.digest h) with
      | Some dg, Some dh -> String.equal dg dh = Gmatch.Vf2.similar g h
      | _ -> false)

let test_witness_is_isomorphism () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 25 do
    let g = Helpers.random_graph st in
    let h = Helpers.permute_ids g in
    match (Canon.form g, Canon.form h) with
    | Some f1, Some f2 ->
        let m = Matching.of_pairs g (Canon.witness f1 f2) 0 in
        (match Matching.verify ~sub:false g h m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "canonical witness rejected: %s" e)
    | _ -> Alcotest.fail "generator graphs must canonicalize"
  done

(* ------------------------------------------------------------------ *)
(* Structural twins                                                    *)
(* ------------------------------------------------------------------ *)

let add_plain_node g id label = Graph.add_node g ~id ~label ~props:Props.empty

let add_plain_edge g id src tgt label =
  Graph.add_edge g ~id ~src ~tgt ~label ~props:Props.empty

let edgeless n label =
  List.fold_left (fun g i -> add_plain_node g (Printf.sprintf "a%d" i) label) Graph.empty
    (List.init n Fun.id)

(* A process with [leaves] environment-variable nodes, the shape every
   OPUS graph carries. *)
let opus_star ?(leaf_label = "Meta") leaves =
  List.fold_left
    (fun g i ->
      let id = Printf.sprintf "m%d" i in
      add_plain_edge (add_plain_node g id (if i = 0 then leaf_label else "Meta"))
        (Printf.sprintf "e%d" i) "proc" id "META")
    (add_plain_node Graph.empty "proc" "Process")
    (List.init leaves Fun.id)

let check_iso_invariant what g =
  match Canon.digest g with
  | None -> Alcotest.failf "%s: form gave up" what
  | Some d ->
      Alcotest.(check (option string)) (what ^ ": permuted ids") (Some d)
        (Canon.digest (Helpers.permute_ids g));
      Alcotest.(check (option string)) (what ^ ": renamed") (Some d)
        (Canon.digest (Helpers.rename_with_prefix "z:" g));
      Alcotest.(check (option string)) (what ^ ": reordered") (Some d)
        (Canon.digest (rebuild_reversed g))

(* The counterexample that made "digest equality is exactly VF2
   similarity" flaky: 6! automorphisms, all of them twin swaps. *)
let test_six_edgeless_agents () =
  let g = edgeless 6 "agent" in
  check_iso_invariant "six agents" g;
  let other = add_plain_node (edgeless 5 "agent") "x" "entity" in
  List.iter
    (fun h ->
      check_bool "digest equality is VF2 similarity"
        (Gmatch.Vf2.similar g h)
        (Canon.digest g = Canon.digest h))
    [ Helpers.permute_ids g; other; edgeless 5 "agent" ]

let test_opus_star () =
  let g = opus_star 10 in
  check_iso_invariant "OPUS star" g;
  let h = Helpers.permute_ids g in
  check_bool "iso star is VF2-similar" true (Gmatch.Vf2.similar g h);
  check_bool "one relabelled leaf changes the digest" false
    (Canon.digest g = Canon.digest (opus_star ~leaf_label:"Env" 10));
  match (Canon.form g, Canon.form h) with
  | Some f1, Some f2 ->
      let m = Matching.of_pairs g (Canon.witness f1 f2) 0 in
      check_bool "canonical witness verifies" true (Matching.verify ~sub:false g h m = Ok ())
  | _ -> Alcotest.fail "OPUS star must canonicalize"

(* Near-twins: a directed 4-cycle and two directed 2-cycles, each cycle
   node feeding one of four shared sinks.  Colour refinement cannot
   tell the sinks apart, yet {s1, s2} and {s3, s4} are different orbits
   (their sources sit on the 4-cycle vs across the 2-cycles), so they
   share a label and (empty) out-edges but are no twins.  Collapsing
   them would make the digest depend on which sink sorts first. *)
let test_near_twins_stay_apart () =
  let g =
    List.fold_left (fun g id -> add_plain_node g id "x") Graph.empty
      [ "a0"; "a1"; "a2"; "a3"; "b0"; "b1"; "c0"; "c1"; "s1"; "s2"; "s3"; "s4" ]
  in
  let g =
    List.fold_left
      (fun g (s, t) -> add_plain_edge g ("n" ^ s) s t "next")
      g
      [ ("a0", "a1"); ("a1", "a2"); ("a2", "a3"); ("a3", "a0"); ("b0", "b1"); ("b1", "b0");
        ("c0", "c1"); ("c1", "c0") ]
  in
  let g =
    List.fold_left
      (fun g (s, t) -> add_plain_edge g ("f" ^ s) s t "sink")
      g
      [ ("a0", "s1"); ("a2", "s1"); ("a1", "s2"); ("a3", "s2"); ("b0", "s3"); ("c0", "s3");
        ("b1", "s4"); ("c1", "s4") ]
  in
  check_iso_invariant "near-twins" g;
  let swap = function "s1" -> "s3" | "s3" -> "s1" | "s2" -> "s4" | "s4" -> "s2" | id -> id in
  Alcotest.(check (option string)) "sink orbits swapped by name" (Canon.digest g)
    (Canon.digest (Graph.map_ids swap g))

(* Six disjoint copies of one labelled edge: every source points at a
   different target, so nothing is a twin and the search needs 6! = 720
   leaves — beyond the budget. *)
let test_budget_counter () =
  let g =
    List.fold_left
      (fun g i ->
        let s = Printf.sprintf "s%d" i and t = Printf.sprintf "t%d" i in
        add_plain_edge (add_plain_node (add_plain_node g s "activity") t "entity")
          (Printf.sprintf "e%d" i) s t "used")
      Graph.empty (List.init 6 Fun.id)
  in
  Canon.clear ();
  let before = Canon.budget_exceeded () in
  check_bool "form gives up" true (Canon.form g = None);
  check_int "one search gave up" (before + 1) (Canon.budget_exceeded ());
  ignore (Canon.form g);
  check_int "a cached answer is no new search" (before + 1) (Canon.budget_exceeded ());
  Canon.reset_stats ();
  check_int "reset_stats zeroes it" 0 (Canon.budget_exceeded ())

(* A random graph plus k in [2, 8] interchangeable leaves on one random
   node: same label, same edge label, same direction. *)
let random_twin_graph st =
  let g = Helpers.random_graph st in
  let anchor = Helpers.pick (Array.of_list (Graph.node_ids g)) st in
  let label = Helpers.pick Helpers.node_labels st in
  let elabel = Helpers.pick Helpers.edge_labels st in
  let inward = Random.State.bool st in
  let k = 2 + Random.State.int st 7 in
  List.fold_left
    (fun g i ->
      let id = Printf.sprintf "t%d" i in
      let g = Graph.add_node g ~id ~label ~props:(Helpers.random_props st) in
      let src, tgt = if inward then (id, anchor) else (anchor, id) in
      add_plain_edge g (Printf.sprintf "te%d" i) src tgt elabel)
    g (List.init k Fun.id)

(* Relabel the edge of twin [t0], so it stops being a twin of the rest. *)
let break_twin g =
  match Graph.find_edge g "te0" with
  | None -> g
  | Some e ->
      let other = if e.Graph.edge_label = "used" then "wasInformedBy" else "used" in
      add_plain_edge (Graph.remove_edge g "te0") "te0" e.Graph.edge_src e.Graph.edge_tgt other

let print_graph g = Format.asprintf "%a" Graph.pp g

let twin_graph_arbitrary = QCheck.make ~print:print_graph random_twin_graph

(* Pairs that are isomorphic, independent, or one broken twin apart. *)
let twin_pair_arbitrary =
  QCheck.make
    ~print:(fun (g, h) -> print_graph g ^ "\n---\n" ^ print_graph h)
    (fun st ->
      let g = random_twin_graph st in
      let h =
        match Random.State.int st 3 with
        | 0 -> Helpers.permute_ids g
        | 1 -> random_twin_graph st
        | _ -> Helpers.permute_ids (break_twin g)
      in
      (g, h))

let prop_twin_invariant =
  Helpers.qcheck "twin-heavy graphs canonicalize, invariantly" twin_graph_arbitrary (fun g ->
      let d = Canon.digest g in
      Option.is_some d
      && d = Canon.digest (Helpers.permute_ids g)
      && d = Canon.digest (Helpers.rename_with_prefix "z:" g)
      && d = Canon.digest (rebuild_reversed g))

let prop_twin_decides_similarity =
  Helpers.qcheck "twin-heavy digest equality is exactly VF2 similarity" twin_pair_arbitrary
    (fun (g, h) ->
      match (Canon.digest g, Canon.digest h) with
      | Some dg, Some dh -> String.equal dg dh = Gmatch.Vf2.similar g h
      | _ -> false)

(* Digest and node/edge orders of 500 seeded generator graphs, pinned by
   an MD5 taken before the search learned to skip twins: every form
   that already existed must stay byte-identical. *)
let test_golden_forms () =
  let st = Random.State.make [| 2024 |] in
  let buf = Buffer.create 65536 in
  for _ = 1 to 500 do
    match Canon.form (Helpers.random_graph st) with
    | None -> Alcotest.fail "generator graphs must canonicalize"
    | Some f ->
        Buffer.add_string buf f.Canon.digest;
        Array.iter (fun id -> Buffer.add_string buf (" " ^ id)) f.Canon.node_order;
        Buffer.add_string buf " |";
        Array.iter (fun id -> Buffer.add_string buf (" " ^ id)) f.Canon.edge_order;
        Buffer.add_char buf '\n'
  done;
  check_string "forms of 500 seeded graphs" "e5afafc2c4837c39b52cac95eac0f926"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Engine bypass: canon-on equals canon-off                            *)
(* ------------------------------------------------------------------ *)

let cost_view = function None -> None | Some (m : Matching.t) -> Some m.Matching.cost

let agree ~backend g h =
  let run flag op = with_canon flag (fun () -> op ()) in
  let sim_on = run true (fun () -> Engine.similar ~backend g h) in
  let sim_off = run false (fun () -> Engine.similar ~backend g h) in
  check_bool "similar agrees" sim_off sim_on;
  let gen_on = run true (fun () -> Engine.generalization_matching ~backend g h) in
  let gen_off = run false (fun () -> Engine.generalization_matching ~backend g h) in
  Alcotest.(check (option int)) "generalization cost agrees" (cost_view gen_off) (cost_view gen_on);
  (match gen_on with
  | Some m ->
      check_bool "generalization witness verifies" true (Matching.verify ~sub:false g h m = Ok ());
      check_int "witness cost is the reported cost" m.Matching.cost (Matching.cost_of g h m)
  | None -> ());
  let sub_on = run true (fun () -> Engine.subgraph_matching ~backend g h) in
  let sub_off = run false (fun () -> Engine.subgraph_matching ~backend g h) in
  Alcotest.(check (option int)) "comparison cost agrees" (cost_view sub_off) (cost_view sub_on);
  match sub_on with
  | Some m ->
      check_bool "comparison witness verifies" true (Matching.verify ~sub:true g h m = Ok ())
  | None -> ()

let perturb_prop g =
  match Graph.nodes g with
  | n :: _ ->
      Graph.set_node_props g n.Graph.node_id
        (Props.add "perturbed" "yes" n.Graph.node_props)
  | [] -> g

let perturb_shape g =
  Graph.add_node g ~id:"zzz-extra" ~label:"extra" ~props:Props.empty

let test_bypass_differential () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 40 do
    let g = Helpers.random_graph st in
    let iso = Helpers.permute_ids g in
    agree ~backend:Engine.Direct g iso;
    (* One perturbed property: digests still equal (shape-only), but the
       zero-cost gate must push the matchings back to the solver. *)
    agree ~backend:Engine.Direct g (perturb_prop iso);
    (* One perturbed shape: digests differ, nothing may bypass wrongly. *)
    agree ~backend:Engine.Direct g (perturb_shape iso)
  done

let test_bypass_differential_asp () =
  (* The ASP backend is the reference semantics; smaller graphs keep the
     grounding tractable. *)
  let st = Random.State.make [| 8 |] in
  for _ = 1 to 6 do
    let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 st in
    let iso = Helpers.rename_with_prefix "r:" g in
    agree ~backend:Engine.Asp g iso;
    agree ~backend:Engine.Asp g (perturb_prop iso)
  done

let test_skip_counters () =
  Engine.reset_canon_skips ();
  Fun.protect ~finally:Engine.reset_canon_skips (fun () ->
      let g = Helpers.random_graph (Random.State.make [| 9 |]) in
      let h = Helpers.permute_ids g in
      with_canon true (fun () ->
          check_bool "iso pair is similar" true (Engine.similar g h);
          ignore (Engine.generalization_matching g h));
      check_bool "skips recorded" true (Engine.canon_skip_total () >= 2);
      check_bool "tagged per stage" true
        (List.mem_assoc "similarity" (Engine.canon_skips ())
        && List.mem_assoc "generalization" (Engine.canon_skips ())))

(* ------------------------------------------------------------------ *)
(* Canonically rekeyed solve memo                                      *)
(* ------------------------------------------------------------------ *)

let memo_counts tag =
  match List.assoc_opt tag (Asp.Memo.stats ()) with
  | Some { Asp.Memo.hits; misses } -> (hits, misses)
  | None -> (0, 0)

let solve_pair g h = Gmatch.Asp_backend.iso_min_cost g h

let test_memo_rename_invariant () =
  (* A property-perturbed pair (cost > 0, so the engine bypass cannot
     answer it) solved once, then re-solved under fresh names: with
     canonicalization the renamed instance is the same canonical
     instance and hits; without it, the raw facts differ and miss. *)
  let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 (Random.State.make [| 21 |]) in
  let h = perturb_prop (Helpers.rename_with_prefix "r:" g) in
  let renamed_hits canon =
    with_canon canon (fun () ->
        with_cache true (fun () ->
            let first = solve_pair g h in
            let _, misses_before = memo_counts "generalization" in
            let g' = Helpers.rename_with_prefix "a:" g in
            let h' = Helpers.rename_with_prefix "b:" h in
            let second = solve_pair g' h' in
            let hits, misses = memo_counts "generalization" in
            Alcotest.(check (option int))
              "renamed pair solves to the same cost" (cost_view first) (cost_view second);
            (match second with
            | Some m ->
                check_bool "translated witness verifies on renamed graphs" true
                  (Matching.verify ~sub:false g' h' m = Ok ())
            | None -> Alcotest.fail "perturbed iso pair must align");
            (hits > 0, misses > misses_before)))
  in
  let hit, _ = renamed_hits true in
  check_bool "canon on: renamed instance hits" true hit;
  let hit, missed = renamed_hits false in
  check_bool "canon off: renamed instance misses" false hit;
  check_bool "canon off: renamed instance recomputes" true missed

(* ------------------------------------------------------------------ *)
(* Pair pool plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_pair_no_deadlock () =
  (* Size 1 is the adversarial case: the only worker must be able to
     wait on a help job by running it itself, including when the pair is
     submitted from inside a pooled job. *)
  let pool = Pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (pair int int))
        "pair from the submitting thread" (1, 2)
        (Pool.run_pair pool (fun () -> 1) (fun () -> 2));
      let nested =
        Pool.async pool (fun () -> Pool.run_pair pool (fun () -> 3) (fun () -> 4))
      in
      Alcotest.(check (pair int int)) "pair from inside a pooled job" (3, 4) (Pool.await nested))

let test_run_pair_propagates_exceptions () =
  let pool = Pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check_bool "help-side exception re-raises" true
        (match Pool.run_pair pool (fun () -> 1) (fun () -> failwith "boom") with
        | exception Failure m -> m = "boom"
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Suite-level byte identity                                           *)
(* ------------------------------------------------------------------ *)

(* The exact view of a result: status with the target graph's full fact
   rendering, plus the degradation notes — everything the suite prints
   per benchmark, minus wall-clock times. *)
let exact_view (r : Result_.t) =
  let body =
    match r.Result_.status with
    | Result_.Target g -> "target:" ^ Datalog.Encode.graph_to_string ~gid:"d" g
    | Result_.Empty -> "empty"
    | Result_.Failed e -> "failed:" ^ Result_.stage_error_to_string e
  in
  String.concat "|" ((r.Result_.benchmark :: body :: r.Result_.degraded) @ [ string_of_int r.Result_.trials ])

let suite_views ~jobs config progs =
  List.map exact_view (Parallel_runner.run_all ~jobs config progs)

let test_suite_identical_across_canon_and_jobs () =
  let config = Config.default Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let reference = with_canon true (fun () -> suite_views ~jobs:1 config progs) in
  Alcotest.(check (list string))
    "-j4 (pair pool engaged) equals -j1" reference
    (with_canon true (fun () -> suite_views ~jobs:4 config progs));
  Alcotest.(check (list string))
    "--no-canon equals default" reference
    (with_canon false (fun () -> suite_views ~jobs:1 config progs))

let () =
  Alcotest.run "canon"
    [
      ( "digest",
        [
          prop_digest_invariant;
          prop_digest_decides_similarity;
          Alcotest.test_case "canonical witness is an isomorphism" `Quick
            test_witness_is_isomorphism;
        ] );
      ( "twins",
        [
          Alcotest.test_case "six edgeless agents" `Quick test_six_edgeless_agents;
          Alcotest.test_case "OPUS star" `Quick test_opus_star;
          Alcotest.test_case "near-twins stay apart" `Quick test_near_twins_stay_apart;
          Alcotest.test_case "budget counter" `Quick test_budget_counter;
          Alcotest.test_case "golden forms" `Quick test_golden_forms;
          prop_twin_invariant;
          prop_twin_decides_similarity;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "differential vs solver (direct)" `Quick test_bypass_differential;
          Alcotest.test_case "differential vs solver (asp)" `Slow test_bypass_differential_asp;
          Alcotest.test_case "skip counters" `Quick test_skip_counters;
        ] );
      ( "memo",
        [ Alcotest.test_case "renamed instances replay warm" `Slow test_memo_rename_invariant ] );
      ( "pool",
        [
          Alcotest.test_case "run_pair never deadlocks at size 1" `Quick test_run_pair_no_deadlock;
          Alcotest.test_case "run_pair propagates exceptions" `Quick
            test_run_pair_propagates_exceptions;
        ] );
      ( "suite",
        [
          Alcotest.test_case "byte-identical across canon and -j" `Slow
            test_suite_identical_across_canon_and_jobs;
        ] );
    ]
