module Wire = Checkpoint.Wire

let magic = "TCCM"
let version = 1

let add_vec_array b vs =
  Wire.add_int b (Array.length vs);
  Array.iter (Wire.add_f_array b) vs

let get_vec_array c =
  let n = Wire.get_count c ~min_bytes:8 "vector count" in
  Array.init n (fun _ -> Wire.get_f_array c)

let add_mat_array b ms =
  Wire.add_int b (Array.length ms);
  Array.iter (Protocol.add_mat b) ms

let get_mat_array c =
  (* An encoded matrix takes at least its three header words. *)
  let n = Wire.get_count c ~min_bytes:24 "matrix count" in
  Array.init n (fun _ -> Protocol.get_mat c)

let encode_parts (p : Tcca.parts) =
  let b = Buffer.create 4096 in
  add_vec_array b p.Tcca.pt_means;
  add_mat_array b p.Tcca.pt_projections;
  add_mat_array b p.Tcca.pt_factors;
  Wire.add_f_array b p.Tcca.pt_correlations;
  Wire.add_string b p.Tcca.pt_note;
  Buffer.contents b

let decode_parts s =
  let c = Wire.cursor s in
  let pt_means = get_vec_array c in
  let pt_projections = get_mat_array c in
  let pt_factors = get_mat_array c in
  let pt_correlations = Wire.get_f_array c in
  let pt_note = Wire.get_string c in
  Wire.expect_end c;
  { Tcca.pt_means; pt_projections; pt_factors; pt_correlations; pt_note }

let save ~path model =
  let bytes = Wire.frame ~magic ~version (encode_parts (Tcca.to_parts model)) in
  if Robust.Inject.(active Torn_model_write) then begin
    (* Power-loss simulation: a torn prefix lands at the *final* path with
       no fsync and no rename — the failure the durable protocol (fsync
       temp, rename, fsync dir) prevents.  The loader must refuse it. *)
    let oc = open_out_bin path in
    output_string oc (String.sub bytes 0 (String.length bytes / 2));
    close_out oc
  end
  else Wire.write_durable ~path bytes

let finite_parts (p : Tcca.parts) =
  Array.for_all (Array.for_all Float.is_finite) p.Tcca.pt_means
  && Array.for_all Mat.all_finite p.Tcca.pt_projections
  && Array.for_all Mat.all_finite p.Tcca.pt_factors
  && Array.for_all Float.is_finite p.Tcca.pt_correlations

let load ~path =
  match Wire.read ~path with
  | Error e -> Error e
  | Ok s ->
    (* [Torn_swap] simulates a half-copied file arriving at the swap path:
       the loader sees a truncated byte string and must refuse it. *)
    let s =
      if Robust.Inject.(active Torn_swap) then String.sub s 0 (String.length s / 2)
      else s
    in
    (match Wire.unframe ~magic ~version s with
    | Error e -> Error e
    | Ok payload -> (
      match decode_parts payload with
      | exception Wire.Decode what -> Error (Checkpoint.Corrupt what)
      | parts ->
        if not (finite_parts parts) then
          Error (Checkpoint.Corrupt "non-finite model values")
        else (
          match Tcca.of_parts parts with
          | model -> Ok model
          | exception Invalid_argument what -> Error (Checkpoint.Corrupt what))))
