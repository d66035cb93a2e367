(* A sampling profiler for the bench harness, off unless
   NAKIKA_PROFILE=1. While on, ITIMER_PROF delivers SIGPROF after every
   millisecond of process CPU; the handler walks the OCaml call stack
   and charges the sample to the innermost function ("self") and once
   to every distinct function on the stack ("inclusive"). Nothing in
   the request path is instrumented, so the tables account for every
   sample. When off, no timer is armed and no handler is installed.
   The kernel rounds the interval up to its tick, so expect a few
   hundred samples per CPU-second rather than a thousand.

   Caveat: OCaml 5 runs signal handlers at poll points — allocations,
   function entries and loop back-edges — so a sample lands on the
   nearest such point after the timer fires, not on the interrupted
   instruction.
   Short non-allocating leaf functions are charged to their callers.
   Names come from debug info; frames without it are skipped. *)

let enabled = Sys.getenv_opt "NAKIKA_PROFILE" = Some "1"

let interval = 0.001

let samples = ref 0

let self : (string, int) Hashtbl.t = Hashtbl.create 256

let inclusive : (string, int) Hashtbl.t = Hashtbl.create 256

let bump tbl name = Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let is_sampler name = String.starts_with ~prefix:"Dune__exe__Sampler." name

let on_sample _ =
  match Printexc.backtrace_slots (Printexc.get_callstack 256) with
  | None -> ()
  | Some slots -> (
    let names = List.filter_map Printexc.Slot.name (Array.to_list slots) in
    match List.filter (fun n -> not (is_sampler n)) names with
    | [] -> ()
    | top :: _ as stack ->
      incr samples;
      bump self top;
      List.iter (bump inclusive) (List.sort_uniq String.compare stack))

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = seconds; it_value = seconds })

let start () =
  if enabled then begin
    Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
    set_timer interval
  end

let print_table title tbl top =
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl)) in
  Printf.printf "\n%s\n" title;
  List.iteri
    (fun i (name, n) ->
      if i < top then
        Printf.printf "  %6.1f%%  %7d  %s\n" (100. *. float n /. float (max 1 !samples)) n name)
    rows

(* Stop sampling and print the top-[top] self and inclusive tables. *)
let report ?(top = 15) () =
  if enabled then begin
    set_timer 0.;
    Sys.set_signal Sys.sigprof Sys.Signal_default;
    Printf.printf "\n=== Sampling profile (%d samples) ===\n" !samples;
    print_table "self" self top;
    print_table "inclusive" inclusive top
  end
