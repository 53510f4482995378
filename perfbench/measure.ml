(* Clock, order statistics, process facts and the machine header. *)

module J = Minijson.Json

let now = Provmark.Trace_span.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.
  | n ->
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum xs = List.fold_left ( +. ) 0. xs

(* Geometric mean of the positive values (0 when there are none). *)
let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | ps -> exp (sum (List.map log ps) /. float_of_int (List.length ps))
let ratio a b = if b = 0. then 0. else a /. b
let ms s = 1000. *. s

(* Deterministic derivation of per-pass / per-request seeds from the
   run seed (splitmix64 finalizer), folded into [2, 2^29]: seed 1 is
   the replay seed of serve-mixed, so derived seeds never collide
   with it. *)
let mix seed k =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int k) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  2 + to_int (logand z 0x1FFFFFFFL)

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop acc =
            match input_line ic with
            | line -> loop (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          loop [])

let status_field ?(pid = "self") field =
  let prefix = field ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Some (String.trim (String.sub line (String.length prefix)
                             (String.length line - String.length prefix)))
      else None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

(* Peak resident set (VmHWM) in MB; 0 when /proc is unavailable. *)
let peak_rss_mb ?pid () =
  match status_field ?pid "VmHWM" with
  | Some v -> ( try Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.) with _ -> 0.)
  | None -> 0.

(* CPUs this process may run on, as nproc(1) counts them. *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] when a <> "" -> 1
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 0
  in
  match status_field "Cpus_allowed_list" with
  | Some list -> (
      try max 1 (List.fold_left (fun n r -> n + count_range r) 0 (String.split_on_char ',' list))
      with _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* The commit of the checkout when it is a git work tree, else
   "unknown" (benchmark checkouts are usually plain exports). *)
let git_commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.starts_with ~prefix:"ref: " head with
      | false -> head
      | true -> (
          let r = String.sub head 5 (String.length head - 5) in
          match read_file (Filename.concat ".git" r) with
          | Some c -> trim c
          | None ->
              List.find_map
                (fun line ->
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> Some c
                  | _ -> None)
                (read_lines ".git/packed-refs")
              |> Option.value ~default:"unknown"))

let header ~workload ~seed ~seconds ~trace ~jobs =
  J.Object
    [
      ("workload", J.String workload);
      ("seed", J.Number (float_of_int seed));
      ("seconds", J.Number (float_of_int seconds));
      ("trace", J.Bool trace);
      ("nproc", J.Number (float_of_int (nproc ())));
      ("recommended_domain_count", J.Number (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", J.String Sys.ocaml_version);
      ("git_commit", J.String (git_commit ()));
      ("jobs", J.Object (List.map (fun (w, j) -> (w, J.Number (float_of_int j))) jobs));
    ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The last stdout line: the result object callers parse. *)
let result_json ~correct ~attempted ~failed metrics =
  J.Object
    [
      ("correct", J.Bool correct);
      ("attempted", J.Number (float_of_int attempted));
      ("failed", J.Number (float_of_int failed));
      ( "metrics",
        J.Object
          (List.map
             (fun m -> (m.name, J.Object [ ("value", J.Number m.value); ("unit", J.String m.unit_) ]))
             metrics) );
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Unix.rename tmp path
