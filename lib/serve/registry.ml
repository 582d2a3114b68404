type task = {
  req : Protocol.request;
  budget : Budget.t;
  deliver : Protocol.response -> unit;
}

type job = Job of task | Stop

type entry = {
  id : string;
  e_mutex : Mutex.t;
  mutable model : Tcca.t option;
  mutable version : int;
  mutable builder : Tcca.Builder.t option;
  mutable ingested : int;
  mutable since_fit : int;
  mutable last_refit : string;
  mutable draining : bool;
  breaker : Breaker.t;
  mutable respawns : int;
  mutable live_workers : int;
  mutable batches : int;
  mutable batched_jobs : int;
  refit_mutex : Mutex.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : job Queue.t;
  mutable threads : Thread.t list;
}

type t = {
  reg_mutex : Mutex.t;
  models : (string, entry) Hashtbl.t;
  root : string option;
  breaker_config : Breaker.config;
}

let mkdir_p dir =
  (* Two levels deep at most (<root>/<id>); no need for a full recursion. *)
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let create ?root ~breaker () =
  Option.iter mkdir_p root;
  {
    reg_mutex = Mutex.create ();
    models = Hashtbl.create 8;
    root;
    breaker_config = breaker;
  }

let id_char_ok c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '-'

let alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Model ids are path- and wire-safe: 1–64 chars from [A-Za-z0-9._-], the
   first alphanumeric, which rules out "..", path separators, the empty id
   and hidden-file names. *)
let valid_id id =
  let n = String.length id in
  n >= 1 && n <= 64 && alnum id.[0] && String.for_all id_char_ok id

let new_entry t id =
  {
    id;
    e_mutex = Mutex.create ();
    model = None;
    version = 0;
    builder = None;
    ingested = 0;
    since_fit = 0;
    last_refit = "never";
    draining = false;
    breaker = Breaker.create t.breaker_config;
    respawns = 0;
    live_workers = 0;
    batches = 0;
    batched_jobs = 0;
    refit_mutex = Mutex.create ();
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    queue = Queue.create ();
    threads = [];
  }

let find t id =
  Mutex.lock t.reg_mutex;
  let e = Hashtbl.find_opt t.models id in
  Mutex.unlock t.reg_mutex;
  e

let find_or_create t id =
  if not (valid_id id) then
    Error (Printf.sprintf "invalid model id %S" id)
  else begin
    Mutex.lock t.reg_mutex;
    let r =
      match Hashtbl.find_opt t.models id with
      | Some e -> (e, false)
      | None ->
        let e = new_entry t id in
        Hashtbl.add t.models id e;
        (e, true)
    in
    Mutex.unlock t.reg_mutex;
    Ok r
  end

let list t =
  Mutex.lock t.reg_mutex;
  let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.models [] in
  Mutex.unlock t.reg_mutex;
  List.sort (fun a b -> compare a.id b.id) es

let model_dir t id =
  match t.root with
  | None -> None
  | Some root ->
    let dir = Filename.concat root id in
    mkdir_p dir;
    Some dir

let snapshot_name v = Printf.sprintf "model-v%06d.tccm" v

let snapshot t e =
  match (model_dir t e.id, e.model) with
  | Some dir, Some model -> (
    let path = Filename.concat dir (snapshot_name e.version) in
    try Model_store.save ~path model
    with Sys_error msg ->
      Robust.warnf "tccad[%s]: snapshot of v%d failed: %s (serving continues)"
        e.id e.version msg)
  | _ -> ()

(* ---- recovery ---------------------------------------------------------- *)

let snapshot_version name =
  try Scanf.sscanf name "model-v%d.tccm%!" (fun v -> Some v)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let load_error_to_string = function
  | Checkpoint.Truncated -> "truncated"
  | Checkpoint.Corrupt what -> Printf.sprintf "corrupt (%s)" what
  | Checkpoint.Version_mismatch { found; expected; _ } ->
    Printf.sprintf "format version %d (expected %d)" found expected

(* Newest snapshot in [dir] that passes full validation; warns per rejected
   file.  [label] names the model in warnings. *)
let recover_dir ~label dir =
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  let candidates =
    Array.to_list files
    |> List.filter_map (fun name ->
           Option.map (fun v -> (v, name)) (snapshot_version name))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let rec first_ok = function
    | [] -> None
    | (v, name) :: rest -> (
      let path = Filename.concat dir name in
      match Model_store.load ~path with
      | Ok model -> Some (model, v)
      | Error e ->
        Robust.warnf "tccad[%s]: skipping %s: %s" label name
          (load_error_to_string e);
        first_ok rest)
  in
  match first_ok candidates with
  | Some _ as r -> r
  | None ->
    if candidates <> [] then
      Robust.warnf
        "tccad[%s]: no usable snapshot among %d candidates; cold start" label
        (List.length candidates);
    None

let install t id loaded =
  match find_or_create t id with
  | Error _ -> ()
  | Ok (e, _) -> (
    match loaded with
    | Some (model, v) ->
      Mutex.lock e.e_mutex;
      e.model <- Some model;
      e.version <- v;
      Mutex.unlock e.e_mutex
    | None -> ())

let recover t =
  match t.root with
  | None -> ()
  | Some root ->
    let names = try Sys.readdir root with Sys_error _ -> [||] in
    Array.sort compare names;
    let dirs =
      Array.to_list names
      |> List.filter (fun n ->
             valid_id n
             && try Sys.is_directory (Filename.concat root n)
                with Sys_error _ -> false)
    in
    (* Legacy PR-8 layout: top-level model-v*.tccm files belong to
       "default", unless a default/ subdir exists (which then wins). *)
    let has_legacy =
      Array.exists (fun n -> snapshot_version n <> None) names
    in
    if has_legacy && not (List.mem "default" dirs) then
      install t "default" (recover_dir ~label:"default" root);
    let corrupt_one = Robust.Inject.(active Registry_corrupt_one) in
    List.iteri
      (fun i id ->
        if corrupt_one && i = 0 then begin
          Robust.warnf
            "tccad[%s]: state directory unreadable (injected); cold start" id;
          install t id None
        end
        else install t id (recover_dir ~label:id (Filename.concat root id)))
      dirs
