(* The serve-mixed workload: a [provmark serve] daemon in its own
   process (this executable's [daemon] subcommand), driven by a closed
   loop of [nproc] client connections from this process, each waiting
   for its reply before sending the next request.

   Mix per request: 70% replays of the 132 Table 2 cells at seed 1
   (store/memo reads), 20% benchmark requests with fresh seeds (full
   compute plus store writes), 10% [match generalize] requests on
   ~100-node ProvGen pairs serialized as DOT (parse, canon/delta,
   solve).  Set-up starts a daemon on a fresh store and warms the 132
   replay cells; it is repeated [setup_reps] times, each on a fresh
   daemon, and the last one serves the timed window. *)

module J = Minijson.Json
module P = Provmark
module Protocol = Serve.Protocol
module Client = Serve.Client

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

(* [daemon SOCKET STORE JOBS SNAPSHOT]: serve until shutdown.  SIGUSR1
   writes a counter snapshot to SNAPSHOT; the daemon stops itself when
   the driving process disappears. *)
let daemon_main = function
  | [ sock; store; jobs; snap ] ->
      let parent = Unix.getppid () in
      let write_snapshot () =
        Measure.write_file snap (J.to_string (Counters.to_json (Counters.snapshot ())))
      in
      Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> write_snapshot ()));
      let _watchdog =
        Domain.spawn (fun () ->
            while Unix.getppid () = parent do
              Unix.sleepf 0.2
            done;
            Unix.kill (Unix.getpid ()) Sys.sigterm)
      in
      ignore
        (Serve.Daemon.run
           {
             Serve.Daemon.endpoint = Protocol.Unix_socket sock;
             jobs = int_of_string jobs;
             queue_bound = Serve.Daemon.default_queue_bound;
             store = Some (P.Artifact_store.create ~dir:store);
             trace = None;
             limits = Serve.Daemon.default_limits;
           });
      exit 0
  | _ ->
      prerr_endline "usage: perfbench.exe daemon SOCKET STORE JOBS SNAPSHOT";
      exit 2

type daemon = { pid : int; endpoint : Protocol.endpoint; store_dir : string; snap : string }

let live : daemon list ref = ref []

let reap d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let call endpoint op =
  Client.with_connection endpoint (fun c -> Client.call c { Protocol.id = None; op })

let spawn ~dir ~jobs k =
  let file name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
  let sock = file "d" ^ ".sock" and store_dir = file "store" and snap = file "snap" ^ ".json" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; sock; store_dir; string_of_int jobs; snap |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; endpoint = Protocol.Unix_socket sock; store_dir; snap } in
  live := d :: !live;
  let deadline = Measure.now () +. 60. in
  let rec wait () =
    match call d.endpoint Protocol.Ping with
    | Ok _ -> ()
    | Error _ | (exception Unix.Unix_error _) ->
        if Measure.now () > deadline then failwith "serve daemon did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve daemon exited during start-up");
        Unix.sleepf 0.01;
        wait ()
  in
  wait ();
  d

(* Ask the daemon for a counter snapshot and wait for it. *)
let snapshot d =
  (try Sys.remove d.snap with Sys_error _ -> ());
  Unix.kill d.pid Sys.sigusr1;
  let deadline = Measure.now () +. 10. in
  let rec wait () =
    match Measure.read_file d.snap with
    | Some s -> Counters.of_json (J.of_string s)
    | None ->
        if Measure.now () > deadline then failwith "no counter snapshot from the serve daemon";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()

let stop d =
  (match call d.endpoint Protocol.Shutdown with _ -> () | exception Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type kind = Replay | Write | Match

let kind_name = function Replay -> "read" | Write -> "write" | Match -> "match"

let cells ~tiny =
  let names = P.Bench_registry.names () in
  let names = if tiny then List.filteri (fun i _ -> i < 3) names else names in
  Array.of_list
    (List.concat_map (fun tool -> List.map (fun s -> (tool, s)) names) Recorders.Recorder.all_tools)

let benchmark (tool, syscall) seed =
  Protocol.Benchmark
    {
      Protocol.tool;
      syscall;
      trials = None;
      seed;
      backend = Gmatch.Engine.default_backend;
      result_type = "rb";
    }

let match_nodes ~tiny = if tiny then 20 else 100

let dot name g = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name g)

let match_request ~tiny seed =
  let a, b = Pgraph.Provgen.match_pair ~seed (Pgraph.Provgen.default_spec ~nodes:(match_nodes ~tiny)) in
  let a = dot "a" a and b = dot "b" b in
  ( (a, b),
    Protocol.Match
      { Protocol.kind = P.Match_op.Generalize; format = P.Match_op.Dot; a; b; m_backend = None } )

(* Benchmark answers are compared up to a renaming of the target
   graph's node and edge identifiers.  The artifact store keys every
   stage downstream of generalization by rename-invariant digests
   ([Artifact_store.canonical_graph_digest]), so a replayed target
   keeps the identifiers of whichever run stored it first; CamFlow's
   identifiers embed a per-run boot token, so they differ between
   seeds, between CamFlow benchmarks that record isomorphic graphs,
   and from a run without a store.  Every line that is not a target
   fact (the summary line with its node and edge counts, the
   epilogue) must still match byte for byte, and the target facts
   must give the same canonical digest: the same labels, properties
   and structure. *)
let is_target_fact line =
  List.exists (fun p -> String.starts_with ~prefix:p line) [ "nt("; "et("; "pt(" ]

let target_digest facts =
  match Datalog.Encode.graph_of_string ~gid:"t" (String.concat "\n" facts) with
  | g -> Some (P.Artifact_store.canonical_graph_digest g)
  | exception _ -> None

let same_output a b =
  a = b
  ||
  let facts_a, rest_a = List.partition is_target_fact (String.split_on_char '\n' a) in
  let facts_b, rest_b = List.partition is_target_fact (String.split_on_char '\n' b) in
  rest_a = rest_b
  && List.length facts_a = List.length facts_b
  && match (target_digest facts_a, target_digest facts_b) with Some x, Some y -> x = y | _ -> false

(* Two responses agree when they are byte-identical apart from an
   [output] member that is the same answer in the sense above.  An
   answer that agrees without being byte-identical is counted as
   renamed ([store.renamed_answers]). *)
let same_response a b =
  let without_output = function
    | J.Object fields -> J.Object (List.remove_assoc "output" fields)
    | j -> j
  in
  J.to_string a = J.to_string b
  || J.to_string (without_output a) = J.to_string (without_output b)
     && same_output (Client.response_output a) (Client.response_output b)

(* What an answer is checked against once the window has closed: the
   batch CLI's output for the same inputs, computed in-process. *)
type expected =
  | Batch_run of (Recorders.Recorder.tool * string) * int  (** cell, seed *)
  | Match_run of string * string  (** the two DOT graphs *)

(* Every ten requests of a client are 7 replays, 2 fresh-seed benchmark
   requests and 1 match, in this order, so every run sends the same mix.
   Each client also walks the cells in order from an offset drawn from
   the seed: replays cycle over the 132 cells, and fresh-seed requests
   cycle over the tools and, within a tool, over its benchmarks.  The
   benchmarks' costs differ several-fold (an OPUS cell costs several
   times a SPADE one), so a drawn mix would move the latency medians
   from run to run. *)
let pattern = [| Replay; Replay; Write; Replay; Replay; Match; Replay; Write; Replay; Replay |]

(* The rank of request [i] among its client's requests of that kind. *)
let nth_of_kind i =
  let n = Array.length pattern in
  let kind = pattern.(i mod n) in
  let count upto = List.length (List.filter (fun j -> pattern.(j) = kind) (List.init upto Fun.id)) in
  (i / n * count n) + count (i mod n)

(* The i-th request of client [c]: deterministic in (seed, c, i). *)
let request ~tiny ~seed ~cells c i =
  let pick = Measure.mix seed ((c * 1_000_003) + i) in
  let offset = Measure.mix seed (-1 - c) in
  let nth = nth_of_kind i in
  match pattern.(i mod Array.length pattern) with
  | Replay ->
      let cell = (offset + nth) mod Array.length cells in
      (Replay, cell, None, benchmark cells.(cell) 1)
  | Write ->
      let tools = List.length Recorders.Recorder.all_tools in
      let per_tool = Array.length cells / tools in
      let cell = ((nth + c) mod tools * per_tool) + ((offset + (nth / tools)) mod per_tool) in
      (Write, cell, Some (Batch_run (cells.(cell), pick)), benchmark cells.(cell) pick)
  | Match ->
      let (a, b), op = match_request ~tiny pick in
      (Match, pick mod Array.length cells, Some (Match_run (a, b)), op)

type outcome = {
  kind : kind;
  cell : int;
  latency : float;
  ok : bool;  (** answered, and (for replays) the same answer as set-up *)
  renamed : bool;  (** a replay that is the same answer under other identifiers *)
  rejected_depth : int option;
  deferred : (expected * J.t) option;  (** answer still to be checked *)
}

(* Run [clients] connections, each on its own domain, calling
   [body client conn] until it returns. *)
let on_clients endpoint clients body =
  List.init clients (fun c -> Domain.spawn (fun () -> Client.with_connection endpoint (body c)))
  |> List.concat_map Domain.join

(* One pass over the replay cells at seed 1, shared out over the
   clients; returns each cell's response and the pass time. *)
let warm_pass endpoint ~clients cells =
  let next = Atomic.make 0 in
  let out = Array.make (Array.length cells) None in
  let (), dt =
    Measure.time (fun () ->
        ignore
          (on_clients endpoint clients (fun _ conn ->
               let rec loop () =
                 let i = Atomic.fetch_and_add next 1 in
                 if i < Array.length cells then begin
                   (match Client.call conn { Protocol.id = None; op = benchmark cells.(i) 1 } with
                   | Ok json when Client.response_status json = "ok" -> out.(i) <- Some json
                   | Ok _ | Error _ -> ());
                   loop ()
                 end
               in
               loop ();
               [])))
  in
  (out, dt)

(* The daemon's peak RSS is read once this many requests of the window
   have been answered, so that it does not grow with the machine's
   speed (the daemon's memory grows with every request it serves). *)
let rss_requests = 1000

let window ?spans ~tiny ~seed ~cells ~warm ~clients ~seconds ~offset ~pid endpoint =
  let deadline = Measure.now () +. seconds in
  let start = Measure.now () in
  let answered = Atomic.make 0 and rss = Atomic.make None in
  let outcomes =
    on_clients endpoint clients (fun c conn ->
        let rec loop i acc =
          if Measure.now () >= deadline then acc
          else begin
            let kind, cell, expected, op = request ~tiny ~seed ~cells c (offset + i) in
            let key = Printf.sprintf "c%d/%d" c (offset + i) in
            let send () = Client.call conn { Protocol.id = None; op } in
            let t0 = Measure.now () in
            let reply =
              match spans with
              | None -> send ()
              | Some s -> Spans.with_span s ~key ("request." ^ kind_name kind) (fun _ -> send ())
            in
            let latency = Measure.now () -. t0 in
            if Atomic.fetch_and_add answered 1 + 1 = rss_requests then
              Atomic.set rss (Some (Measure.peak_rss_mb ~pid:(string_of_int pid) ()));
            let ok, renamed, rejected_depth, deferred =
              match reply with
              | Error _ -> (false, false, None, None)
              | Ok json when Client.response_status json <> "ok" ->
                  (false, false, Client.response_queue_depth json, None)
              | Ok json ->
                  let ok, renamed =
                    match (kind, warm.(cell)) with
                    | Replay, Some w -> (same_response json w, J.to_string json <> J.to_string w)
                    | Replay, None -> (false, false)
                    | (Write | Match), _ -> (true, false)
                  in
                  (ok, renamed && ok, None, Option.map (fun e -> (e, json)) expected)
            in
            if not ok then
              Printf.eprintf "serve-mixed: %s request %s for %s/%s failed its check\n%!" (kind_name kind)
                key (Recorders.Recorder.tool_name (fst cells.(cell))) (snd cells.(cell));
            loop (i + 1) ({ kind; cell; latency; ok; renamed; rejected_depth; deferred } :: acc)
          end
        in
        loop 0 [])
  in
  let wall = Measure.now () -. start in
  let rss =
    match Atomic.get rss with Some r -> r | None -> Measure.peak_rss_mb ~pid:(string_of_int pid) ()
  in
  (outcomes, wall, rss)

let parse_pair a b =
  match (P.Match_op.parse_graph P.Match_op.Dot a, P.Match_op.parse_graph P.Match_op.Dot b) with
  | Ok ga, Ok gb -> Some (ga, gb)
  | _ -> None

let batch_answer = function
  | Batch_run ((tool, syscall), seed) -> (
      match P.Runner.run_syscall { (P.Config.default tool) with P.Config.seed } syscall with
      | Ok r ->
          Some
            ( P.Report.run_output ~result_type:"rb" r ^ P.Report.suite_epilogue [ r ],
              P.Exit_code.to_int (P.Exit_code.of_results [ r ]) )
      | Error _ -> None)
  | Match_run (a, b) ->
      Option.map
        (fun (ga, gb) -> (P.Match_op.run P.Match_op.Generalize ga gb, P.Exit_code.to_int P.Exit_code.Ok))
        (parse_pair a b)

(* Recompute every fresh-seed benchmark and match answer in-process
   and compare; returns the number that differ and the number that
   are the same answer under other identifiers. *)
let check_deferred ~jobs outcomes =
  let deferred = List.filter_map (fun o -> o.deferred) outcomes in
  P.Pool.map ~jobs
    (fun (expected, json) ->
      match batch_answer expected with
      | Some (output, exit) ->
          let ok =
            exit = Client.response_exit json
            &&
            match expected with
            | Batch_run _ -> same_output output (Client.response_output json)
            | Match_run _ -> output = Client.response_output json
          in
          if not ok then
            Printf.eprintf "serve-mixed: %s answer differs from the batch CLI's\n%!"
              (match expected with
              | Batch_run ((tool, syscall), seed) ->
                  Printf.sprintf "%s/%s seed %d" (Recorders.Recorder.tool_name tool) syscall seed
              | Match_run _ -> "match");
          (ok, ok && output <> Client.response_output json)
      | None ->
          prerr_endline "serve-mixed: the batch CLI could not recompute an answer";
          (false, false))
    deferred
  |> List.fold_left
       (fun (bad, renamed) (ok, r) -> ((if ok then bad else bad + 1), if r then renamed + 1 else renamed))
       (0, 0)

(* ------------------------------------------------------------------ *)
(* Layer measurements (traced run)                                     *)

(* Time read and write over every artifact the window left in the
   store, the writes into a scratch store; mean seconds per artifact. *)
let store_io ~dir store_dir =
  let store = P.Artifact_store.create ~dir:store_dir in
  let scratch_dir = Filename.concat dir "store-rewrite" in
  let scratch = P.Artifact_store.create ~dir:scratch_dir in
  let entries =
    Array.to_list (Sys.readdir store_dir)
    |> List.filter (fun stage -> Sys.is_directory (Filename.concat store_dir stage))
    |> List.concat_map (fun stage ->
           Array.to_list (Sys.readdir (Filename.concat store_dir stage))
           |> List.concat_map (fun prefix ->
                  let d = Filename.concat (Filename.concat store_dir stage) prefix in
                  if Sys.is_directory d then
                    Array.to_list (Sys.readdir d)
                    |> List.filter_map (fun f ->
                           if Filename.check_suffix f ".art" then
                             Some (stage, Filename.chop_suffix f ".art")
                           else None)
                  else []))
  in
  let read_s = ref 0. and write_s = ref 0. and n = ref 0 in
  List.iter
    (fun (stage, key) ->
      let v, dt = Measure.time (fun () -> P.Artifact_store.read store ~stage ~key) in
      read_s := !read_s +. dt;
      match v with
      | Some contents ->
          let (), dw = Measure.time (fun () -> P.Artifact_store.write scratch ~stage ~key contents) in
          write_s := !write_s +. dw;
          incr n
      | None -> ())
    entries;
  Measure.rm_rf scratch_dir;
  let per x = Measure.ratio x (float_of_int (max 1 !n)) in
  (per !read_s, per !write_s, !n)

(* Parse, canonical forms, fingerprints and the generalization
   matching of every match request, re-issued cold in-process. *)
let match_layers outcomes =
  let graphs =
    List.filter_map
      (fun o ->
        match o.deferred with Some (Match_run (a, b), _) -> parse_pair a b | _ -> None)
      outcomes
  in
  let m = Measure.metric in
  let sum f = fst (Compose.timed_sum f graphs) in
  let forms = Compose.form_metrics (List.concat_map (fun (a, b) -> [ a; b ]) graphs) in
  Pgraph.Canon.clear ();
  Asp.Memo.clear ();
  let sim_s = sum (fun (a, b) -> ignore (Gmatch.Engine.similar a b)) in
  Pgraph.Canon.clear ();
  let gen_s = sum (fun (a, b) -> ignore (Gmatch.Engine.generalization_matching a b)) in
  forms
  @ [
    m "gmatch.similar_s" "s" sim_s;
    m "gmatch.similar_calls" "count" (float_of_int (List.length graphs));
    m "gmatch.generalization_matching_s" "s" gen_s;
  ]

let ping_ms endpoint n =
  Client.with_connection endpoint (fun c ->
      List.init n (fun _ ->
          snd (Measure.time (fun () -> ignore (Client.call c { Protocol.id = None; op = Protocol.Ping })))
          |> Measure.ms))

let stats endpoint =
  match call endpoint Protocol.Stats with Ok j -> j | Error m -> failwith m

let stat_num path json =
  let rec go j = function
    | [] -> ( match j with J.Number f -> f | _ -> 0.)
    | k :: rest -> ( match j with J.Object _ when J.mem k j -> go (J.member k j) rest | _ -> 0.)
  in
  go json path

(* Poll the daemon's queue depth until [stop] is set. *)
let poll_queue endpoint stop =
  Domain.spawn (fun () ->
      Client.with_connection endpoint (fun c ->
          let rec loop best =
            if Atomic.get stop then best
            else
              let depth =
                match Client.call c { Protocol.id = None; op = Protocol.Stats } with
                | Ok j -> stat_num [ "queue_depth" ] j
                | Error _ -> 0.
              in
              Unix.sleepf 0.05;
              loop (Float.max best depth)
          in
          loop 0.))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

let setup_reps = 7

let run ~tiny ~seed ~seconds ~trace ~spans ~jobs ~dir =
  let dir = Filename.concat dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      List.iter reap !live;
      Measure.rm_rf dir)
    (fun () ->
      let cells = cells ~tiny in
      let clients = jobs in
      (* Set-up, repeated on fresh daemons; the last one stays up. *)
      let setups =
        List.init setup_reps (fun k ->
            let t0 = Measure.now () in
            let d = spawn ~dir ~jobs k in
            let warm, pass_s = warm_pass d.endpoint ~clients cells in
            let setup_s = Measure.now () -. t0 in
            if k < setup_reps - 1 then stop d;
            (d, warm, pass_s, setup_s))
      in
      let d, warm, _, _ = List.nth setups (setup_reps - 1) in
      let warm_renamed = ref 0 in
      let warm_failed =
        List.fold_left
          (fun n (_, w, _, _) ->
            let bad = ref 0 in
            Array.iteri
              (fun i x ->
                let tool, syscall = cells.(i) in
                let name = Recorders.Recorder.tool_name tool ^ "/" ^ syscall in
                if x = None then begin
                  Printf.eprintf "serve-mixed: set-up request for %s failed\n%!" name;
                  incr bad
                end
                else if not (Option.equal same_response x warm.(i)) then begin
                  Printf.eprintf "serve-mixed: set-ups answer %s differently\n%!" name;
                  incr bad
                end
                else if Option.map J.to_string x <> Option.map J.to_string warm.(i) then
                  incr warm_renamed)
              w;
            n + !bad)
          0 setups
      in
      let warm_attempted = setup_reps * Array.length cells in
      let seconds = float_of_int seconds in
      let m = Measure.metric in
      let window ?spans ~offset secs =
        window ?spans ~tiny ~seed ~cells ~warm ~clients ~seconds:secs ~offset ~pid:d.pid d.endpoint
      in
      let summary outcomes =
        let failed = List.length (List.filter (fun o -> not o.ok) outcomes) in
        let bad, deferred_renamed = check_deferred ~jobs outcomes in
        let renamed =
          !warm_renamed + deferred_renamed + List.length (List.filter (fun o -> o.renamed) outcomes)
        in
        Printf.eprintf
          "serve-mixed: %d answers equal their reference only up to identifier renaming (store \
           replays keep the identifiers of the run that stored them)\n%!"
          renamed;
        (List.length outcomes, failed + bad, renamed)
      in
      if not trace then begin
        let outcomes, wall, rss = window ~offset:0 seconds in
        stop d;
        let attempted, failed, _ = summary outcomes in
        let lat kind =
          List.filter_map (fun o -> if kind = None || Some o.kind = kind then Some (Measure.ms o.latency) else None) outcomes
        in
        (* Benchmark requests cost several times more on OPUS than on
           SPADE (replays: on CamFlow), so the median over all tools
           falls in the sparse tail between two tools' clusters, where
           it swings with every change of contention.  The geometric
           mean of the per-tool medians stays at the clusters' centres
           and moves by the same share as any one tool's. *)
        let per_tool_p50 kind =
          List.map
            (fun tool ->
              Measure.median
                (List.filter_map
                   (fun o ->
                     if o.kind = kind && fst cells.(o.cell) = tool then Some (Measure.ms o.latency) else None)
                   outcomes))
            Recorders.Recorder.all_tools
          |> Measure.geomean
        in
        let failed = failed + warm_failed in
        let attempted = attempted + warm_attempted in
        ( attempted,
          failed,
          [
            m "pass_s" "s" (Measure.median (List.map (fun (_, _, p, _) -> p) setups));
            m "req_per_s" "1/s" (Measure.ratio (float_of_int (List.length outcomes)) wall);
            m "p50_ms" "ms" (Measure.median (lat None));
            m "p99_ms" "ms" (Measure.percentile 99. (lat None));
            m "read_p50_ms" "ms" (per_tool_p50 Replay);
            m "write_p50_ms" "ms" (per_tool_p50 Write);
            m "match_p50_ms" "ms" (Measure.median (lat (Some Match)));
            m "setup_s" "s" (Measure.median (List.map (fun (_, _, _, s) -> s) setups));
            m "peak_rss_mb" "MB" rss;
            m "ok_ratio" "ratio" (1. -. Measure.ratio (float_of_int failed) (float_of_int attempted));
          ] )
      end
      else begin
        (* Alternate untraced and traced quarters of the window. *)
        let pings_before = ping_ms d.endpoint 20 in
        let s0 = stats d.endpoint and c0 = snapshot d in
        let stop_poll = Atomic.make false in
        let poller = poll_queue d.endpoint stop_poll in
        let quarter = seconds /. 4. in
        let phases =
          List.init 4 (fun q ->
              let spans = if q mod 2 = 1 then Some spans else None in
              let outcomes, wall, _ = window ?spans ~offset:(q * 1_000_000) quarter in
              (q mod 2 = 1, outcomes, wall))
        in
        Atomic.set stop_poll true;
        let polled_depth = Domain.join poller in
        let c1 = snapshot d and s1 = stats d.endpoint in
        let pings_after = ping_ms d.endpoint 20 in
        stop d;
        let outcomes = List.concat_map (fun (_, o, _) -> o) phases in
        let attempted, failed, renamed = summary outcomes in
        let rate traced =
          let n, w =
            List.fold_left
              (fun (n, w) (t, o, wall) -> if t = traced then (n + List.length o, w +. wall) else (n, w))
              (0, 0.) phases
          in
          Measure.ratio (float_of_int n) w
        in
        let counters = Counters.diff c1 c0 in
        let read_s, write_s, artifacts = store_io ~dir d.store_dir in
        let delta path = stat_num path s1 -. stat_num path s0 in
        let hits = delta [ "store"; "hits" ] and misses = delta [ "store"; "misses" ] in
        let rejected_depths = List.filter_map (fun o -> o.rejected_depth) outcomes in
        let table = Spans.self_times (Spans.all spans) in
        let untraced_rps = rate false and traced_rps = rate true in
        ( attempted + warm_attempted,
          failed + warm_failed,
          Inproc.counter_metrics counters
          @ match_layers outcomes
          @ [
              m "store.read_s" "s" read_s;
              m "store.write_s" "s" write_s;
              m "store.artifacts" "count" (float_of_int artifacts);
              m "store.hit_ratio" "ratio" (Measure.ratio hits (hits +. misses));
              m "store.renamed_answers" "count" (float_of_int renamed);
              m "serve.ping_rtt_ms" "ms" (Measure.median (pings_before @ pings_after));
              m "serve.queue_depth_max" "count"
                (List.fold_left (fun a d -> Float.max a (float_of_int d)) polled_depth rejected_depths);
              m "serve.rejected" "count" (delta [ "rejected" ]);
              m "self.request_s" "s"
                (List.fold_left (fun a k -> a +. Spans.self_s table ("request." ^ kind_name k)) 0. [ Replay; Write; Match ]);
              m "trace.untraced_s" "s" (Measure.ratio 1. untraced_rps);
              m "trace.traced_s" "s" (Measure.ratio 1. traced_rps);
              m "trace.overhead_ratio" "ratio" (Measure.ratio untraced_rps traced_rps);
            ] )
      end)
