(* Spans the benchmark records around its own calls into the library.  A
   span has a name, a start and an end on the monotonic clock, the span
   that was open when it began, and the request it serves.  Spans stay in
   memory until [write] at exit, so recording one costs two clock reads
   and a cons. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  req : int;  (** [-1] when the span serves no single request. *)
  start_ns : int64;
  end_ns : int64;
}

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let current () = match !open_spans with p :: _ -> p | [] -> -1

let add ?(parent = current ()) ?(req = -1) name ~start_ns ~end_ns =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded := { id; name; parent; req; start_ns; end_ns } :: !recorded
  end

(* [with_span name f] runs [f] inside a span.  Spans opened by [f] on the
   same thread become its children. *)
let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current () in
    open_spans := id :: !open_spans;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let end_ns = now_ns () in
        open_spans := List.tl !open_spans;
        recorded := { id; name; parent; req; start_ns; end_ns } :: !recorded)
  end

let spans () = List.rev !recorded
let duration_ns s = Int64.sub s.end_ns s.start_ns

(* Self time: the span's duration less the part of its interval that its
   children cover.  Children that overlap each other (pipelined requests)
   count once; a child running past its parent counts only inside it. *)
let self_ns all s =
  let pieces =
    List.filter_map
      (fun c ->
        if c.parent <> s.id then None
        else
          let a = max c.start_ns s.start_ns and b = min c.end_ns s.end_ns in
          if b > a then Some (a, b) else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, Int64.min_int) pieces
  in
  Int64.sub (duration_ns s) covered

let named name = List.filter (fun s -> String.equal s.name name) (spans ())

let total_s name =
  List.fold_left (fun acc s -> acc +. (Int64.to_float (duration_ns s) *. 1e-9)) 0. (named name)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        s.id s.name s.parent s.req s.start_ns s.end_ns)
    (spans ());
  close_out oc
