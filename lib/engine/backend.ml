type t = Domains | Processes | Sharded

let default = Domains
let all = [ Domains; Processes; Sharded ]

let to_name = function
  | Domains -> "domains"
  | Processes -> "processes"
  | Sharded -> "sharded"

let of_name = function
  | "domains" -> Some Domains
  | "processes" -> Some Processes
  | "sharded" -> Some Sharded
  | _ -> None
