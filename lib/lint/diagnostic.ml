open Pperf_lang

type severity = Error | Warning | Precision | Hint

type t = {
  severity : severity;
  check : string;
  loc : Srcloc.t;
  message : string;
  fix : string option;
}

let make ?fix severity ~check ~loc message = { severity; check; loc; message; fix }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Precision -> "precision"
  | Hint -> "hint"

let severity_rank = function Error -> 3 | Warning -> 2 | Precision -> 1 | Hint -> 0

let max_severity = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc d -> if severity_rank d.severity > severity_rank acc then d.severity else acc)
         d.severity ds)

let exit_code ds =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Precision | Some Hint | None -> 0

let compare a b =
  let c = Stdlib.compare (a.loc.Srcloc.line, a.loc.Srcloc.col) (b.loc.Srcloc.line, b.loc.Srcloc.col) in
  if c <> 0 then c
  else (
    let c = Stdlib.compare (severity_rank b.severity) (severity_rank a.severity) in
    if c <> 0 then c
    else (
      let c = String.compare a.check b.check in
      if c <> 0 then c else String.compare a.message b.message))

let pp_short fmt d =
  Format.fprintf fmt "%s %s[%s] %s" (Srcloc.to_string d.loc)
    (severity_to_string d.severity) d.check d.message

let pp fmt d =
  pp_short fmt d;
  match d.fix with None -> () | Some f -> Format.fprintf fmt "@.    fix: %s" f
