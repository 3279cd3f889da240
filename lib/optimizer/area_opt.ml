(* The area optimizer: greedy gain-measured application of the logic and
   area critics' rules, with the timing constraint enforced as a penalty
   so area recovery avoids critical paths (Section 3's "area
   optimizations ... avoid critical or near-critical paths"). *)

module R = Milo_rules.Rule
module Engine = Milo_rules.Engine

let cost_fn ?(required = infinity) ?(input_arrivals = []) ctx () =
  (* With a measurer in the context the totals are already current —
     O(1) instead of a full STA + estimate fold per evaluation. *)
  let m =
    match !(ctx.R.measurer) with
    | Some ms -> Milo_measure.Measure.current ms
    | None -> Engine.measure_fn ctx ~input_arrivals ()
  in
  let penalty =
    if m.Engine.delay > required then 1000.0 *. (m.Engine.delay -. required)
    else 0.0
  in
  m.Engine.area +. (0.05 *. m.Engine.power) +. penalty

let optimize ?(exec = Milo_parallel.Exec.sequential) ?(required = infinity)
    ?(input_arrivals = []) ?(max_steps = 200) ?budget ~rules ~cleanups ctx =
  Milo_trace.Trace.with_span "area-opt" @@ fun () ->
  let cost = cost_fn ~required ~input_arrivals ctx in
  (* A worker fork carries a fork of the context's measurer (none
     outside a measured window), so the factory's cost function reads
     the fork's running totals — the same objective, measured over the
     candidate's cone as on the coordinator. *)
  let cost_factory wctx = cost_fn ~required ~input_arrivals wctx in
  Engine.greedy_pass_par ~max_steps ?budget ~exec ~cost_factory ctx ~cost
    ~cleanups rules

(* Area recovery with lookahead (used by the metarules experiment). *)
let optimize_lookahead ?(exec = Milo_parallel.Exec.sequential)
    ?(required = infinity) ?(input_arrivals = [])
    ?(params = Milo_rules.Search.default_params) ?stats ?budget ~rules
    ~cleanups ctx =
  let cost = cost_fn ~required ~input_arrivals ctx in
  let cost_factory wctx = cost_fn ~required ~input_arrivals wctx in
  Milo_rules.Search.run_par ~params ?stats ?budget ~exec ~cost_factory ctx
    ~cost ~cleanups rules
