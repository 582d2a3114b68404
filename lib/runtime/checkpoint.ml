(* Crash-safe snapshots of iterative solver state.

   Wire format (little-endian throughout; see DESIGN.md §"Checkpoint wire
   format" for the field-level layout):

     magic   "TCCK"                     4 bytes
     version u32                        4 bytes
     length  u64 (payload bytes)        8 bytes
     crc32   u32 (of the payload)       4 bytes
     payload                            [length] bytes

   The payload is a flat field stream (ints and float bits as fixed i64,
   length-prefixed strings and arrays) — no alignment, no pointers, so a
   snapshot written on any platform loads on any other.

   Durability protocol: the whole file is built in memory, written to
   [path ^ ".tmp"] with an fsync-free close, and published with [Sys.rename].
   Rename is atomic on POSIX, so a reader (including a crashed-and-restarted
   self) only ever observes either the previous complete snapshot or the new
   complete snapshot — never a torn one.  The [Torn_checkpoint_write] fault
   bypasses exactly this protocol to prove the loader's degradation path.

   The header/CRC/field-stream machinery is generic — only the payload
   schema is snapshot-specific — so it lives in the [Wire] submodule, which
   the serving layer reuses for its own model files (magic "TCCM"). *)

type direction = Newer | Older

type load_error =
  | Truncated
  | Corrupt of string
  | Version_mismatch of { found : int; expected : int; direction : direction }

let load_error_to_string = function
  | Truncated -> "truncated snapshot (torn write or incomplete copy)"
  | Corrupt what -> Printf.sprintf "corrupt snapshot (%s)" what
  | Version_mismatch { found; expected; direction } ->
    Printf.sprintf "snapshot format version %d is %s than this build reads (%d)" found
      (match direction with Newer -> "newer" | Older -> "older")
      expected

(* ------------------------------------------------------------------ *)

module Wire = struct
  (* CRC32 (IEEE 802.3, the zlib polynomial). *)

  let crc_table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let crc32 s =
    let table = Lazy.force crc_table in
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
      s;
    !c lxor 0xFFFFFFFF

  (* Field-stream encoders. *)

  let add_i64 b v = Buffer.add_int64_le b v
  let add_int b v = add_i64 b (Int64.of_int v)
  let add_f64 b v = add_i64 b (Int64.bits_of_float v)
  let add_bool b v = add_int b (if v then 1 else 0)

  let add_string b s =
    add_int b (String.length s);
    Buffer.add_string b s

  let add_f_array b a =
    add_int b (Array.length a);
    Array.iter (add_f64 b) a

  let add_int_opt b = function
    | None -> add_int b 0
    | Some v ->
      add_int b 1;
      add_int b v

  (* Decoding: a cursor over the payload; any overrun or bad tag raises
     [Decode], which framed loaders surface as [Corrupt].  Every length and
     count is checked against the bytes left before anything is allocated
     or sliced, in a form that cannot overflow, so a crafted payload
     allocates O(payload bytes) at most. *)

  exception Decode of string

  type cursor = { s : string; mutable pos : int }

  let cursor s = { s; pos = 0 }
  let remaining c = String.length c.s - c.pos

  let need c n = if n < 0 || n > remaining c then raise (Decode "field overruns payload")

  let get_i64 c =
    need c 8;
    let v = String.get_int64_le c.s c.pos in
    c.pos <- c.pos + 8;
    v

  let get_int c =
    let v = get_i64 c in
    let i = Int64.to_int v in
    if Int64.of_int i <> v then raise (Decode "integer out of range");
    i

  let get_nat c what =
    let v = get_int c in
    if v < 0 then raise (Decode (what ^ " is negative"));
    v

  let get_f64 c = Int64.float_of_bits (get_i64 c)

  let get_bool c =
    match get_int c with 0 -> false | 1 -> true | _ -> raise (Decode "bad bool tag")

  let get_count c ~min_bytes what =
    let n = get_nat c what in
    if n > remaining c / min_bytes then raise (Decode (what ^ " overruns payload"));
    n

  let get_string c =
    let n = get_count c ~min_bytes:1 "string length" in
    let s = String.sub c.s c.pos n in
    c.pos <- c.pos + n;
    s

  let get_f_array c =
    let n = get_count c ~min_bytes:8 "array length" in
    let a =
      Array.init n (fun i ->
          Int64.float_of_bits (String.get_int64_le c.s (c.pos + (8 * i))))
    in
    c.pos <- c.pos + (8 * n);
    a

  let get_shape c what =
    let dim () =
      let v = get_int c in
      if v < 0 || v > String.length c.s then raise (Decode (what ^ " dimension out of range"));
      v
    in
    let rows = dim () in
    let cols = dim () in
    let data = get_f_array c in
    if (cols > 0 && rows > max_int / cols) || rows * cols <> Array.length data then
      raise (Decode (what ^ " shape mismatch"));
    (rows, cols, data)

  let get_int_opt c =
    match get_int c with
    | 0 -> None
    | 1 -> Some (get_int c)
    | _ -> raise (Decode "bad option tag")

  let expect_end c =
    if c.pos <> String.length c.s then raise (Decode "trailing bytes after payload")

  let at_end c = c.pos = String.length c.s

  (* Framing. *)

  let header_bytes = 20

  let frame ~magic ~version payload =
    if String.length magic <> 4 then invalid_arg "Wire.frame: magic must be 4 bytes";
    let b = Buffer.create (header_bytes + String.length payload) in
    Buffer.add_string b magic;
    Buffer.add_int32_le b (Int32.of_int version);
    add_i64 b (Int64.of_int (String.length payload));
    Buffer.add_int32_le b (Int32.of_int (crc32 payload));
    Buffer.add_string b payload;
    Buffer.contents b

  let unframe ~magic ~version s =
    if String.length s < header_bytes then Error Truncated
    else if String.sub s 0 4 <> magic then Error (Corrupt "bad magic")
    else begin
      let found = Int32.to_int (String.get_int32_le s 4) in
      if found <> version then
        Error
          (Version_mismatch
             { found;
               expected = version;
               direction = (if found > version then Newer else Older) })
      else begin
        let len64 = String.get_int64_le s 8 in
        let declared_crc = Int32.to_int (String.get_int32_le s 16) land 0xFFFFFFFF in
        match Int64.unsigned_to_int len64 with
        | None -> Error (Corrupt "absurd payload length")
        | Some len ->
          if len > String.length s - header_bytes then Error Truncated
          else if len < String.length s - header_bytes then
            Error (Corrupt "trailing bytes after payload")
          else
            let payload = String.sub s header_bytes len in
            if crc32 payload <> declared_crc then Error (Corrupt "CRC mismatch")
            else Ok payload
      end
    end

  (* File I/O. *)

  let write_file path bytes =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc bytes)

  let write_atomic ~path bytes =
    let tmp = path ^ ".tmp" in
    write_file tmp bytes;
    Sys.rename tmp path

  (* Durable variant: rename alone only orders the *names*; the temp file's
     data can still sit in the page cache when power is lost, leaving a
     zero-length or torn file behind a valid-looking name.  fsync the temp
     file before the rename, then fsync the directory so the rename itself
     is on disk.  Directory fsync is best-effort (some filesystems refuse
     O_RDONLY directory descriptors); data fsync failures are real errors. *)
  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()

  let write_durable ~path bytes =
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    (match
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           let b = Bytes.unsafe_of_string bytes in
           let total = Bytes.length b in
           let written = ref 0 in
           while !written < total do
             written := !written + Unix.write fd b !written (total - !written)
           done;
           Unix.fsync fd)
     with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (tmp ^ ": " ^ Unix.error_message e)));
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path)

  let read ~path =
    let read_all () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match read_all () with
    | s -> Ok s
    | exception Sys_error e -> Error (Corrupt ("unreadable: " ^ e))
end

let crc32 = Wire.crc32

(* ------------------------------------------------------------------ *)
(* Snapshot structure.  Factors are plain row-major arrays: this module
   sits below [linalg] in the build, so the matrix conversion happens in
   the solver that owns the state ([Cp_als]). *)

type factor = { rows : int; cols : int; data : float array }

type run_state = {
  rs_init_random : int option; (* Some seed for Random init, None for Hosvd *)
  rs_iterations : int;
  rs_previous_fit : float;
  rs_best_fit : float;
  rs_drops : int;
  rs_converged : bool;
  rs_failure : Robust.failure option;
  rs_weights : float array;
  rs_factors : factor array;
  rs_history : float array; (* per-sweep fit, oldest first *)
}

type t = {
  fingerprint : string;
  domains : int;
  attempt : int;
  completed : run_state list; (* finished restart runs, oldest first *)
  current : run_state;        (* the in-progress run at its last sweep boundary *)
}

let version = 1
let magic = "TCCK"

(* ------------------------------------------------------------------ *)
(* Snapshot payload codec, on top of the [Wire] field stream. *)

open Wire

let add_failure b = function
  | None -> add_int b 0
  | Some (Robust.Not_converged { stage; sweeps; residual }) ->
    add_int b 1;
    add_string b stage;
    add_int b sweeps;
    add_f64 b residual
  | Some (Robust.Not_positive_definite { stage; pivot; value; jitter_tried }) ->
    add_int b 2;
    add_string b stage;
    add_int b pivot;
    add_f64 b value;
    add_f64 b jitter_tried
  | Some (Robust.Non_finite { stage; where }) ->
    add_int b 3;
    add_string b stage;
    add_string b where
  | Some (Robust.Rank_deficient { view; rank; dim }) ->
    add_int b 4;
    add_int b view;
    add_int b rank;
    add_int b dim
  | Some (Robust.Deadline_exceeded { stage; sweeps; elapsed; limit }) ->
    add_int b 5;
    add_string b stage;
    add_int b sweeps;
    add_f64 b elapsed;
    add_string b limit

let add_factor b f =
  if Array.length f.data <> f.rows * f.cols then
    invalid_arg "Checkpoint: factor data length mismatch";
  add_int b f.rows;
  add_int b f.cols;
  add_f_array b f.data

let add_run_state b rs =
  add_int_opt b rs.rs_init_random;
  add_int b rs.rs_iterations;
  add_f64 b rs.rs_previous_fit;
  add_f64 b rs.rs_best_fit;
  add_int b rs.rs_drops;
  add_bool b rs.rs_converged;
  add_failure b rs.rs_failure;
  add_f_array b rs.rs_weights;
  add_int b (Array.length rs.rs_factors);
  Array.iter (add_factor b) rs.rs_factors;
  add_f_array b rs.rs_history

let encode_payload t =
  let b = Buffer.create 4096 in
  add_string b t.fingerprint;
  add_int b t.domains;
  add_int b t.attempt;
  add_int b (List.length t.completed);
  List.iter (add_run_state b) t.completed;
  add_run_state b t.current;
  Buffer.contents b

let get_failure c =
  match get_int c with
  | 0 -> None
  | 1 ->
    let stage = get_string c in
    let sweeps = get_int c in
    let residual = get_f64 c in
    Some (Robust.Not_converged { stage; sweeps; residual })
  | 2 ->
    let stage = get_string c in
    let pivot = get_int c in
    let value = get_f64 c in
    let jitter_tried = get_f64 c in
    Some (Robust.Not_positive_definite { stage; pivot; value; jitter_tried })
  | 3 ->
    let stage = get_string c in
    let where = get_string c in
    Some (Robust.Non_finite { stage; where })
  | 4 ->
    let view = get_int c in
    let rank = get_int c in
    let dim = get_int c in
    Some (Robust.Rank_deficient { view; rank; dim })
  | 5 ->
    let stage = get_string c in
    let sweeps = get_int c in
    let elapsed = get_f64 c in
    let limit = get_string c in
    Some (Robust.Deadline_exceeded { stage; sweeps; elapsed; limit })
  | _ -> raise (Decode "bad failure tag")

let get_factor c =
  let rows, cols, data = get_shape c "factor" in
  { rows; cols; data }

let get_run_state c =
  let rs_init_random = get_int_opt c in
  let rs_iterations = get_nat c "iterations" in
  let rs_previous_fit = get_f64 c in
  let rs_best_fit = get_f64 c in
  let rs_drops = get_nat c "drops" in
  let rs_converged = get_bool c in
  let rs_failure = get_failure c in
  let rs_weights = get_f_array c in
  let n_factors = get_count c ~min_bytes:24 "factor count" in
  let rs_factors = Array.init n_factors (fun _ -> get_factor c) in
  let rs_history = get_f_array c in
  { rs_init_random;
    rs_iterations;
    rs_previous_fit;
    rs_best_fit;
    rs_drops;
    rs_converged;
    rs_failure;
    rs_weights;
    rs_factors;
    rs_history }

let decode_payload s =
  let c = cursor s in
  let fingerprint = get_string c in
  let domains = get_nat c "domains" in
  let attempt = get_nat c "attempt" in
  (* A run state's fixed fields alone take ten 8-byte words. *)
  let n_completed = get_count c ~min_bytes:80 "completed count" in
  let completed = List.init n_completed (fun _ -> get_run_state c) in
  let current = get_run_state c in
  expect_end c;
  { fingerprint; domains; attempt; completed; current }

(* ------------------------------------------------------------------ *)
(* File I/O. *)

let encode_file t =
  let file = frame ~magic ~version (encode_payload t) in
  (* CRC always taken over the clean bytes; the [Corrupt_checkpoint] fault
     then flips one bit of the last payload byte so the loader must catch
     the mismatch. *)
  if Robust.Inject.(active Corrupt_checkpoint) then begin
    let b = Bytes.of_string file in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  end
  else file

let save ~path t =
  let bytes = encode_file t in
  if Robust.Inject.(active Torn_checkpoint_write) then
    (* Crash simulation: half the file lands at the *final* path, no rename.
       This is the failure mode the temp-file + rename protocol prevents. *)
    write_file path (String.sub bytes 0 (String.length bytes / 2))
  else write_atomic ~path bytes

let load ~path =
  match read ~path with
  | Error e -> Error e
  | Ok s -> (
    match unframe ~magic ~version s with
    | Error e -> Error e
    | Ok payload -> (
      match decode_payload payload with
      | t -> Ok t
      | exception Decode what -> Error (Corrupt what)))

(* ------------------------------------------------------------------ *)
(* Solver-facing configuration. *)

type config = { path : string; every : int; resume : bool }

let config ?(every = 1) ?(resume = true) path =
  if every < 1 then invalid_arg "Checkpoint.config: every must be >= 1";
  { path; every; resume }

let load_for_resume ~fingerprint cfg =
  if not cfg.resume then None
  else if not (Sys.file_exists cfg.path) then None
  else
    match load ~path:cfg.path with
    | Error e ->
      Robust.warnf "Checkpoint %s: %s — cold start" cfg.path (load_error_to_string e);
      None
    | Ok t when t.fingerprint <> fingerprint ->
      Robust.warnf
        "Checkpoint %s: fingerprint mismatch (snapshot %S, solve %S) — cold start"
        cfg.path t.fingerprint fingerprint;
      None
    | Ok t -> Some t
