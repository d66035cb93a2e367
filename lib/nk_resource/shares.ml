type t = (string * float) list (* ordered: first match wins *)

let create entries = entries

let empty = []

let is_empty t = t = []

let matches ~pattern site =
  pattern = "*" || pattern = site
  || String.length pattern > 2
     && String.length site > String.length pattern - 2
     && String.sub pattern 0 2 = "*."
     &&
     (* "*.suffix" covers any host strictly under ".suffix". *)
     let suffix = String.sub pattern 1 (String.length pattern - 1) in
     String.sub site (String.length site - String.length suffix) (String.length suffix)
     = suffix

let rec first_match table ~site =
  match table with
  | [] -> None
  | (pattern, v) :: rest -> if matches ~pattern site then Some v else first_match rest ~site

let fraction t ~site = first_match t ~site

let slots ~capacity fraction = int_of_float ((fraction *. float_of_int capacity) +. 0.5)

let reserved t = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 t

let to_list t = t
