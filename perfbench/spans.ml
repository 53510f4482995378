(* In-memory span log for traced runs.

   A span records its name, start and end on the monotonic clock, the
   span that caused it (0 for a root) and the id of the benchmark cell
   or request it belongs to.  Spans are kept in memory, from any
   domain, and written out once when the run ends. *)

module J = Minijson.Json

type span = { id : int; parent : int; name : string; key : string; start : float; stop : float }

type t = { mutable spans : span list; next : int Atomic.t; lock : Mutex.t }

let create () = { spans = []; next = Atomic.make 1; lock = Mutex.create () }

let add t span = Mutex.protect t.lock (fun () -> t.spans <- span :: t.spans)

(* [with_span t ~parent ~key name f] runs [f id] inside a new span;
   [id] is the parent to hand to nested spans. *)
let with_span t ?(parent = 0) ~key name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let start = Measure.now () in
  let finish () = add t { id; parent; name; key; start; stop = Measure.now () } in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let all t = Mutex.protect t.lock (fun () -> List.rev t.spans)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span name: (count, total duration, self time), where self time
   is a span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start, s.stop)) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id) in
      let n, d, sf = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace acc s.name (n + 1, d +. dur, sf +. self))
    spans;
  acc

let self_s table name =
  match Hashtbl.find_opt table name with Some (_, _, s) -> s | None -> 0.

let total_s table name =
  match Hashtbl.find_opt table name with Some (_, d, _) -> d | None -> 0.

let count table name =
  match Hashtbl.find_opt table name with Some (n, _, _) -> n | None -> 0

let to_json spans =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  J.Array
    (List.map
       (fun s ->
         J.Object
           [
             ("id", J.Number (float_of_int s.id));
             ("parent", J.Number (float_of_int s.parent));
             ("name", J.String s.name);
             ("key", J.String s.key);
             ("start_s", J.Number (s.start -. origin));
             ("end_s", J.Number (s.stop -. origin));
           ])
       spans)
