(* The ProvMark benchmark program.

     perfbench.exe --workload table2|scale-ladder|serve-mixed
                   --seed N --seconds S --trace 0|1 [--tiny]

   prints a header line, then as its last stdout line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1, as
   BENCHMARK.json names them.  "correct" is false when any output check
   failed; stderr names each failed check.  --tiny shrinks every
   workload for the smoke test.  The [daemon] subcommand is the
   serve-mixed workload's server process. *)

module J = Minijson.Json

let workloads = [ "table2"; "scale-ladder"; "serve-mixed" ]
let state_dir = ".perfbench"

(* The metrics a run prints, with their units, as BENCHMARK.json at the
   root of the checkout declares them: the end-to-end ones untraced,
   the per-layer ones traced. *)
let declared ~trace =
  let bench = J.of_string (Option.get (Measure.read_file "BENCHMARK.json")) in
  J.to_list (J.member (if trace then "per_layer" else "end_to_end") bench)
  |> List.map (fun m -> (J.to_str (J.member "name" m), J.to_str (J.member "unit" m)))

(* Order a run's metrics as declared, zero-filling layers the workload
   does not exercise (traced runs only); a metric that is not declared,
   or a declared end-to-end metric the run did not measure, is a bug. *)
let complete ~trace names metrics =
  List.iter
    (fun (m : Measure.metric) ->
      match List.assoc_opt m.Measure.name names with
      | Some u when u = m.Measure.unit_ -> ()
      | _ -> failwith ("undeclared metric " ^ m.Measure.name))
    metrics;
  List.map
    (fun (name, u) ->
      match List.find_opt (fun (m : Measure.metric) -> m.Measure.name = name) metrics with
      | Some m -> m
      | None when trace -> Measure.metric name u 0.
      | None -> failwith ("end-to-end metric " ^ name ^ " not measured"))
    names

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload table2|scale-ladder|serve-mixed --seed N --seconds S \
     --trace 0|1 [--tiny]";
  exit 2

let parse argv =
  let rec go acc = function
    | "--tiny" :: rest -> go (("tiny", "1") :: acc) rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] argv

let () =
  match Array.to_list Sys.argv with
  | _ :: "daemon" :: rest -> Serve_mixed.daemon_main rest
  | _ :: rest ->
      let args = parse rest in
      let arg k = List.assoc_opt k args in
      let int k = match Option.map int_of_string_opt (arg k) with Some (Some n) -> n | _ -> usage () in
      let workload = match arg "workload" with Some w when List.mem w workloads -> w | _ -> usage () in
      let seed = int "seed" and seconds = int "seconds" and trace = int "trace" = 1 in
      let tiny = arg "tiny" <> None in
      let names = declared ~trace in
      let nproc = Measure.nproc () in
      let jobs = [ ("table2", nproc); ("scale-ladder", 1); ("serve-mixed", nproc) ] in
      let header = Measure.header ~workload ~seed ~seconds ~trace ~jobs in
      print_endline (J.to_string (J.Object [ ("header", header) ]));
      let spans = Spans.create () in
      let attempted, failed, metrics =
        match (workload, trace) with
        | "serve-mixed", _ ->
            Serve_mixed.run ~tiny ~seed ~seconds ~trace ~spans ~jobs:nproc ~dir:state_dir
        | w, trace ->
            let w =
              if w = "table2" then Inproc.table2 ~tiny ~jobs:nproc ~seed
              else Inproc.scale_ladder ~tiny ~seed
            in
            if trace then Inproc.traced ~seconds ~spans w else Inproc.end_to_end ~seconds w
      in
      if trace then
        Measure.write_file
          (Filename.concat state_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed))
          (J.to_string (J.Object [ ("header", header); ("spans", Spans.to_json (Spans.all spans)) ]));
      let metrics = complete ~trace names metrics in
      (* A failed output check makes the result incorrect; stderr names
         each one.  The exit code is 0 whenever the result is printed. *)
      let correct = failed = 0 in
      print_endline (J.to_string (Measure.result_json ~correct ~attempted ~failed metrics))
  | [] -> usage ()
