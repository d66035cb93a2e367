(* Membership is an ordered set, so join/leave are O(log n) instead of
   the old re-sort-the-whole-array (join) and array->list->array
   round-trip (leave) — the difference between a 1000-node churn step
   costing microseconds and milliseconds. A sorted-array snapshot is
   cached lazily for [nodes] and invalidated on membership change. *)

module S = Set.Make (Node_id)

type t = {
  mutable members : S.t;
  mutable size : int; (* tracked; Set.cardinal is O(n) *)
  mutable sorted : Node_id.t array option; (* lazy cache for [nodes] *)
}

let create () = { members = S.empty; size = 0; sorted = None }

let mem t id = S.mem id t.members

let join t id =
  if not (S.mem id t.members) then begin
    t.members <- S.add id t.members;
    t.size <- t.size + 1;
    t.sorted <- None
  end

let leave t id =
  if S.mem id t.members then begin
    t.members <- S.remove id t.members;
    t.size <- t.size - 1;
    t.sorted <- None
  end

let size t = t.size

let sorted_array t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list (S.elements t.members) in
    t.sorted <- Some a;
    a

let nodes t = Array.to_list (sorted_array t)

let successor t key =
  if t.size = 0 then None
  else
    match S.find_first_opt (fun x -> Node_id.compare x key >= 0) t.members with
    | Some _ as s -> s
    | None -> S.min_elt_opt t.members (* wrap *)

(* The member strictly clockwise after [id] (wrapping). *)
let next_after t id =
  match S.find_first_opt (fun x -> Node_id.compare x id > 0) t.members with
  | Some _ as s -> s
  | None -> S.min_elt_opt t.members

let successors t key ~k =
  match successor t key with
  | None -> []
  | Some owner ->
    let rec collect acc current remaining =
      if remaining = 0 then List.rev acc
      else
        match next_after t current with
        | None -> List.rev acc
        | Some nxt ->
          if Node_id.equal nxt owner then List.rev acc (* wrapped around *)
          else collect (nxt :: acc) nxt (remaining - 1)
    in
    collect [ owner ] owner (min k t.size - 1)

(* The member strictly counter-clockwise before [key] (wrapping). *)
let predecessor t key =
  match S.find_last_opt (fun x -> Node_id.compare x key < 0) t.members with
  | Some _ as p -> p
  | None -> S.max_elt_opt t.members

(* The finger of [node] for exponent [i]: successor(node + 2^i). *)
let finger t node i = successor t (Node_id.add_pow2 node i)

let floor_log2 x =
  let rec go x i = if x <= 1 then i else go (x lsr 1) (i + 1) in
  go x 0

let lookup_path t ~from ~key =
  match successor t key with
  | None -> []
  | Some owner ->
    if Node_id.equal owner from then []
    else begin
      (* Greedy: jump to the finger that gets closest to the key without
         reaching it, i.e. the one with the largest exponent [i] that
         lies in (current, key); with no such finger, go to the owner.
         For a member [current], finger [i] lies in that interval
         exactly when 2^i <= d(current, q), where [q] is the key's
         predecessor, so [i] is the floor of that distance's log2. A
         [current] outside the ring (only ever [from]) is the one case
         where a finger can wrap past it: its top finger is then its own
         successor, which wins whenever it lies in the interval. *)
      let q = Option.get (predecessor t key) in
      let inside current f =
        let d = Node_id.distance current f in
        d > 0 && d < Node_id.distance current key
      in
      let hop current =
        match if mem t current then None else finger t current 61 with
        | Some f when inside current f -> f
        | _ ->
          if inside current q then
            Option.get (finger t current (floor_log2 (Node_id.distance current q)))
          else owner
      in
      let rec route current acc guard =
        if Node_id.equal current owner || guard = 0 then List.rev acc
        else begin
          let next = hop current in
          route next (next :: acc) (guard - 1)
        end
      in
      route from [] (t.size + 64)
    end
