(* The fleet's run queue plus the scheduling policies that pick from it.
   Policies are first-class modules so `--sched {fifo,lifo}` is a table
   lookup and a new discipline is one more module, not a new match arm in
   the core.

   No locking here: the fleet core owns synchronisation. *)

(* amortised-O(1) deque: push at the back, pop at both ends *)
type 'a t = {
  mutable front : 'a list;
  mutable back : 'a list;  (** reversed *)
  mutable len : int;
}

let create () = { front = []; back = []; len = 0 }
let length q = q.len

let push q x =
  q.back <- x :: q.back;
  q.len <- q.len + 1

let pop_front q =
  if q.front = [] then (
    q.front <- List.rev q.back;
    q.back <- []);
  match q.front with
  | [] -> None
  | x :: tl ->
    q.front <- tl;
    q.len <- q.len - 1;
    Some x

let pop_back q =
  if q.back = [] then (
    q.back <- List.rev q.front;
    q.front <- []);
  match q.back with
  | [] -> None
  | x :: tl ->
    q.back <- tl;
    q.len <- q.len - 1;
    Some x

module type POLICY = sig
  val name : string
  val take : 'a t -> 'a option
end

module Fifo = struct
  let name = "fifo"
  let take = pop_front
end

module Lifo = struct
  let name = "lifo"
  let take = pop_back
end

type policy = (module POLICY)

let all : (string * policy) list = [ ("fifo", (module Fifo)); ("lifo", (module Lifo)) ]

let of_string s =
  match List.assoc_opt (String.lowercase_ascii s) all with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown scheduling policy %S (expected one of: %s)" s
         (String.concat ", " (List.map fst all)))

let name (p : policy) =
  let module P = (val p) in
  P.name
