(* How the client classifies a reply.  Only the expected reply counts as
   [Ok]: for a read, the exact bytes the loaded model gives in-process; for
   a write, [R_ok].  Everything else is a failed operation. *)

type t = Ok | Shed | Deadline | Unavailable | Error | Mismatch

let all = [ Ok; Shed; Deadline; Unavailable; Error; Mismatch ]

let name = function
  | Ok -> "ok"
  | Shed -> "shed"
  | Deadline -> "deadline"
  | Unavailable -> "unavailable"
  | Error -> "error"
  | Mismatch -> "mismatch"

let metric o = "serve.outcome." ^ name o

(* A reply that decodes to a refusal is classified as that refusal, so a
   shed read is not reported as corrupt bytes. *)
let of_refusal body =
  match Protocol.response_of_string body with
  | Result.Ok (Protocol.R_shed _) -> Shed
  | Result.Ok (Protocol.R_deadline _) -> Deadline
  | Result.Ok (Protocol.R_unavailable _) -> Unavailable
  | Result.Ok (Protocol.R_error _) -> Error
  | _ -> Mismatch

let of_read ~expected body = if String.equal body expected then Ok else of_refusal body

let of_write body =
  match Protocol.response_of_string body with
  | Result.Ok (Protocol.R_ok _) -> Ok
  | _ -> of_refusal body

(* Counts by outcome, in the order of [all]. *)
type counts = int array

let counts () = Array.make (List.length all) 0

let index o =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = o then i else go (i + 1) rest
  in
  go 0 all

let bump (c : counts) o = c.(index o) <- c.(index o) + 1
let count (c : counts) o = c.(index o)
let failed (c : counts) = Array.fold_left ( + ) 0 c - count c Ok
