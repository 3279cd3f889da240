(* Incremental-measurement equivalence suite — the measurement layer's
   tier-1 gate.

   Drives random rule sequences over mapped designs with a live
   measurer and the differential oracle enabled, exercising every path
   of the apply/measure/undo discipline:

   - [Engine.evaluate] (apply + measure + undo, gain probes);
   - manual [guarded_apply] + cleanups + [measure_step], then a random
     choice of commit+[measure_keep] or undo+[measure_drop];

   and after every committed or undone step cross-checks the running
   totals against a from-scratch [Sta.analyze] + estimate fold, within
   1e-9 relative.  [Measure.set_debug_check true] additionally makes
   the measurer itself raise [Divergence] on any advance/retreat that
   disagrees with a full recompute — the suite requires zero.  The
   random stream is a fixed LCG, so failures reproduce exactly. *)

module D = Milo_netlist.Design
module R = Milo_rules.Rule
module Engine = Milo_rules.Engine
module Measure = Milo_measure.Measure
module Sta = Milo_timing.Sta
module Estimate = Milo_estimate.Estimate
module Suite = Milo_designs.Suite
module Flow = Milo.Flow
module Critic = Milo_critic.Critic

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

(* Deterministic pseudo-random stream: reproducible across runs and
   platforms, independent of [Random]'s global state. *)
let lcg = ref 1

let rand n =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod n

let ecl = lazy (Milo_library.Ecl.get ())

let ctx_for design =
  let ecl = Lazy.force ecl in
  R.make_context ecl
    (Milo_compilers.Gate_comp.named_set ~prefix:"E_" ecl)
    design

let rules () = Critic.logic @ Critic.area @ Critic.power
let cleanups () = Critic.cleanup

(* From-scratch reference totals, computed with the measurer's own
   (memoized) macro environment. *)
let full_totals env design =
  let sta = Sta.analyze ~input_arrivals:[] env design in
  {
    Measure.delay = Sta.worst_delay sta;
    area = Estimate.area env design;
    power = Estimate.power env design;
  }

let close got want =
  Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)

let check_state what m =
  let want = full_totals (Measure.env m) (Measure.design m) in
  let got = Measure.current m in
  if
    not
      (close got.Measure.delay want.Measure.delay
      && close got.Measure.area want.Measure.area
      && close got.Measure.power want.Measure.power)
  then
    fail
      "%s: incremental (%.12g, %.12g, %.12g) <> full (%.12g, %.12g, %.12g)"
      what got.Measure.delay got.Measure.area got.Measure.power
      want.Measure.delay want.Measure.area want.Measure.power

(* One random step: pick a live (rule, site) candidate, then exercise a
   random path of the measurement discipline.  Returns false when the
   design has no candidates left. *)
let step name i ctx m =
  let candidates =
    List.concat_map
      (fun r -> List.map (fun s -> (r, s)) (Engine.guarded_find ctx r))
      (rules ())
  in
  match candidates with
  | [] -> false
  | _ -> (
      let r, site = List.nth candidates (rand (List.length candidates)) in
      let where =
        Printf.sprintf "%s step %d (%s)" name i r.R.rule_name
      in
      match rand 3 with
      | 0 ->
          (* Probe path: apply + measure + undo inside [evaluate]. *)
          let cost () = Engine.weighted () (Measure.current m) in
          ignore (Engine.evaluate ctx ~cost ~cleanups:(cleanups ()) r site);
          check_state (where ^ " after evaluate") m;
          true
      | mode ->
          (* Manual path: apply + cleanups + measure_step, then a random
             keep or drop. *)
          let log = D.new_log () in
          if Engine.guarded_apply ctx r site log then (
            Engine.run_cleanups ctx (cleanups ()) log;
            let mstep = Engine.measure_step ctx log in
            if mode = 1 then (
              Engine.measure_keep ctx mstep;
              D.commit log;
              check_state (where ^ " after commit") m)
            else (
              D.undo ctx.R.design log;
              Engine.measure_drop ctx mstep;
              check_state (where ^ " after undo") m);
            true)
          else (
            D.undo ctx.R.design log;
            check_state (where ^ " after failed apply") m;
            true))

let drive name design ~steps =
  let ctx = ctx_for design in
  match Measure.create ~input_arrivals:[] (Lazy.force ecl) design with
  | exception e ->
      fail "%s: Measure.create raised %s" name (Printexc.to_string e)
  | m -> (
      ctx.R.measurer := Some m;
      check_state (name ^ " initial") m;
      try
        let i = ref 0 in
        while !i < steps && step name !i ctx m do
          incr i
        done;
        let s = Measure.stats m in
        Printf.printf
          "%-24s %3d steps  adv=%d ret=%d commit=%d resync=%d oracle=%d\n"
          name !i s.Measure.advances s.Measure.retreats s.Measure.commits
          s.Measure.resyncs s.Measure.oracle_checks
      with
      | Measure.Divergence msg -> fail "%s: oracle divergence: %s" name msg
      | e -> fail "%s: raised %s" name (Printexc.to_string e))

(* Mapped suite designs: the compiled + conservatively mapped form the
   optimizer actually sees. *)
let mapped_case (c : Suite.case) =
  let mapped, _ = Flow.human_baseline ~technology:Flow.Ecl c.Suite.case_design in
  (c.Suite.case_name, mapped)

(* --- Forked measurers ------------------------------------------------ *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let totals_bits_equal (a : Measure.totals) (b : Measure.totals) =
  bits_equal a.Measure.delay b.Measure.delay
  && bits_equal a.Measure.area b.Measure.area
  && bits_equal a.Measure.power b.Measure.power

(* A fork of a measurer through [Rule.fork_context]: bit-equal to its
   parent at birth; a random advance/retreat/commit sequence on it
   leaves the parent's totals, worst delay and endpoint table exactly
   as they were; and after every advance it agrees with a fresh
   measurer of the forked design. *)
let drive_fork name design ~steps =
  let ctx = ctx_for design in
  if !((R.fork_context ctx).R.measurer) <> None then
    fail "%s: fork of a context without a measurer carries one" name;
  let m = Measure.create ~input_arrivals:[] (Lazy.force ecl) design in
  ctx.R.measurer := Some m;
  let parent_totals = Measure.current m in
  let parent_worst = Sta.worst_delay (Measure.sta m) in
  let parent_eps = Sta.endpoints (Measure.sta m) in
  let parent_unchanged where =
    if
      not
        (totals_bits_equal (Measure.current m) parent_totals
        && bits_equal (Sta.worst_delay (Measure.sta m)) parent_worst
        && Sta.endpoints (Measure.sta m) = parent_eps)
    then fail "%s: %s moved the parent measurer" name where
  in
  let wctx = R.fork_context ctx in
  match !(wctx.R.measurer) with
  | None -> fail "%s: fork of a measured context carries no measurer" name
  | Some f -> (
      if not (totals_bits_equal (Measure.current f) parent_totals) then
        fail "%s: fork totals differ from the parent's" name;
      if not (bits_equal (Sta.worst_delay (Measure.sta f)) parent_worst) then
        fail "%s: fork worst delay differs from the parent's" name;
      if Measure.design f != wctx.R.design || Measure.design f == design then
        fail "%s: fork does not measure the forked design" name;
      try
        for i = 0 to steps - 1 do
          let candidates =
            List.concat_map
              (fun r -> List.map (fun s -> (r, s)) (Engine.guarded_find wctx r))
              (rules ())
          in
          if candidates <> [] then begin
            let r, site = List.nth candidates (rand (List.length candidates)) in
            let where = Printf.sprintf "fork step %d (%s)" i r.R.rule_name in
            let log = D.new_log () in
            if Engine.guarded_apply wctx r site log then begin
              Engine.run_cleanups wctx (cleanups ()) log;
              let mstep = Engine.measure_step wctx log in
              parent_unchanged (where ^ " advance");
              (match mstep with
              | Engine.Measured _ ->
                  let fresh =
                    Measure.create ~input_arrivals:[] (Lazy.force ecl)
                      wctx.R.design
                  in
                  let got = Measure.current f
                  and want = Measure.current fresh in
                  if
                    not
                      (close got.Measure.delay want.Measure.delay
                      && close got.Measure.area want.Measure.area
                      && close got.Measure.power want.Measure.power)
                  then
                    fail "%s: %s: fork (%.12g, %.12g, %.12g) <> fresh \
                          (%.12g, %.12g, %.12g)"
                      name where got.Measure.delay got.Measure.area
                      got.Measure.power want.Measure.delay want.Measure.area
                      want.Measure.power
              | Engine.No_measurer | Engine.Measure_failed -> ());
              if rand 2 = 0 then begin
                Engine.measure_keep wctx mstep;
                D.commit log
              end
              else begin
                D.undo wctx.R.design log;
                Engine.measure_drop wctx mstep
              end;
              parent_unchanged (where ^ " keep/drop")
            end
            else D.undo wctx.R.design log
          end
        done;
        Printf.printf "%-24s fork: %d steps, parent untouched\n" name steps
      with
      | Measure.Divergence msg -> fail "%s: fork oracle divergence: %s" name msg
      | e -> fail "%s: fork raised %s" name (Printexc.to_string e))

(* A rule whose edit bypasses its change log: the measurer never sees
   the component it adds, so the debug oracle diverges on the first
   advance after it. *)
let unlogged_rule =
  R.make ~name:"test-unlogged-add" ~cls:R.Area
    ~find:(fun _ -> [ R.site ~comps:[] "unlogged" ])
    ~apply:(fun ctx _ _ ->
      ignore (D.add_comp ctx.R.design (Milo_netlist.Types.Macro "E_INV"));
      true)

(* A divergence inside a supervised task must reach the coordinator as
   [Measure.Divergence], at every fan-out site, and must not quarantine
   the rule as a fault. *)
let divergence_escapes name design =
  let exec = Milo_parallel.Exec.inline () in
  let cost_factory wctx () =
    Engine.weighted () (Measure.current (Option.get !(wctx.R.measurer)))
  in
  let sites =
    [
      ( "greedy_step_par",
        fun ctx ->
          ignore
            (Engine.greedy_step_par ~exec ~cost_factory ctx ~cleanups:[]
               [ unlogged_rule ]) );
      ( "search_par",
        fun ctx ->
          ignore
            (Milo_rules.Search.search_par ~exec ~cost_factory ctx
               ~cost:(cost_factory ctx) ~cleanups:[] [ unlogged_rule ]) );
    ]
  in
  List.iter
    (fun (site, run) ->
      Engine.quarantine_reset ();
      let ctx = ctx_for (D.copy design) in
      ctx.R.measurer :=
        Some (Measure.create ~input_arrivals:[] (Lazy.force ecl) ctx.R.design);
      (match run ctx with
      | () -> fail "%s: %s: worker divergence did not escape" name site
      | exception Measure.Divergence _ -> ()
      | exception e ->
          fail "%s: %s: raised %s instead of Divergence" name site
            (Printexc.to_string e));
      if Engine.is_quarantined unlogged_rule.R.rule_name then
        fail "%s: %s: divergence quarantined the rule" name site)
    sites;
  Engine.quarantine_reset ()

(* The debug oracle on the flow path: with the fork measurers
   cross-checked on every advance and retreat, the suite designs
   optimize at one inline domain and at a forced four-domain pool with
   no quarantined rule and exactly the designs of a debug-off run. *)
let debug_flow_digests ~debug ~domains (c : Suite.case) =
  Measure.set_debug_check debug;
  let what =
    Printf.sprintf "%s debug=%b domains=%d" c.Suite.case_name debug domains
  in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:c.Suite.constraints ~domains
      ~force_domains:true c.Suite.case_design
  with
  | Flow.Complete res ->
      if res.Flow.quarantined <> [] then
        fail "%s: quarantined %s" what
          (String.concat ", " (List.map fst res.Flow.quarantined));
      Some (Milo_netlist.Hashcons.design_digest res.Flow.optimized)
  | Flow.Partial pr ->
      fail "%s: degraded at %s (%s)" what
        (Flow.stage_name pr.Flow.failed_stage)
        pr.Flow.failure.Flow.err_message;
      None
  | exception e ->
      fail "%s: raised %s" what (Printexc.to_string e);
      None

let check_debug_flow (c : Suite.case) =
  let off = debug_flow_digests ~debug:false ~domains:1 c in
  let on1 = debug_flow_digests ~debug:true ~domains:1 c in
  let on4 = debug_flow_digests ~debug:true ~domains:4 c in
  Measure.set_debug_check true;
  match (off, on1, on4) with
  | Some off, Some on1, Some on4 ->
      if on1 <> off then
        fail "%s: debug-on domains=1 digest differs from debug-off"
          c.Suite.case_name;
      if on4 <> off then
        fail "%s: debug-on domains=4 digest differs from debug-off"
          c.Suite.case_name;
      Printf.printf "%-24s debug oracle: domains 1 == 4 == debug-off\n"
        c.Suite.case_name
  | _ -> ()

(* The focused cleanup lookahead against the whole-design one: with
   the engine's cleanup oracle armed, every candidate the greedy steps
   evaluate (and every winner they commit) re-runs its cleanups over
   the whole design on a copy, which must record the same entries and
   reach the same digest.  Flows run as the benchmark runs them
   (sampled guard, certification, one supervised domain), so the
   per-level steps and the flat area-opt fan-out are both covered; the
   final designs must equal an oracle-off run's.  At least one checked
   run must start from a committed design that still has cleanup sites
   (design 6's per-level dead logic, design 7's first flat step) — a
   focus that dropped the seed would diverge there. *)
let check_cleanup_focus cases =
  let run ~debug (name, constraints, design) =
    Engine.set_debug_cleanups debug;
    match
      Flow.run ~technology:Flow.Ecl ~constraints ~guard:Milo_guard.Guard.Sampled
        ~certify:true ~domains:1 design
    with
    | Flow.Complete res ->
        Some (Milo_netlist.Hashcons.design_digest res.Flow.optimized)
    | Flow.Partial pr ->
        fail "%s: cleanup focus: degraded at %s (%s)" name
          (Flow.stage_name pr.Flow.failed_stage)
          pr.Flow.failure.Flow.err_message;
        None
  in
  let seeded = ref 0 in
  List.iter
    (fun ((name, _, _) as case) ->
      let off = run ~debug:false case in
      let on = run ~debug:true case in
      let c, s, divergences = Engine.debug_cleanup_counts () in
      Engine.set_debug_cleanups false;
      seeded := !seeded + s;
      List.iter (fun d -> fail "%s: cleanup focus: %s" name d) divergences;
      if off <> on then fail "%s: cleanup oracle changed the final design" name;
      Printf.printf "%-24s cleanup focus: %d runs checked, %d seeded\n" name c s)
    cases;
  if !seeded = 0 then
    fail "cleanup focus: no checked run started from a design with cleanup sites"

let () =
  Engine.quarantine_reset ();
  check_cleanup_focus
    (List.map
       (fun (c : Suite.case) ->
         (c.Suite.case_name, c.Suite.constraints, c.Suite.case_design))
       (Suite.all ())
    @ [
        ( "random_g250_s7",
          Milo.Constraints.none,
          Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates:250
            ~seed:7 () );
      ]);
  Measure.set_debug_check true;
  lcg := 20260805;
  (* Random mapped workloads: dense combinational soup, lots of rule
     traffic. *)
  List.iter
    (fun (gates, seed) ->
      let d = Milo_designs.Workload.random_logic ~gates ~seed () in
      let target = Milo_techmap.Table_map.ecl_target () in
      let mapped = Milo_techmap.Table_map.map_design target d in
      drive (Printf.sprintf "workload_g%d_s%d" gates seed) mapped ~steps:40)
    [ (30, 11); (60, 23); (90, 37) ];
  (* Figure 19 suite designs, including the sequential ones. *)
  List.iter
    (fun c ->
      let name, mapped = mapped_case c in
      drive name mapped ~steps:30)
    [ Suite.design1 (); Suite.design4 (); Suite.design7 () ];
  (* Forked measurers, on a random workload and a sequential design. *)
  List.iter
    (fun (name, design) -> drive_fork name design ~steps:25)
    [
      ( "fork_g60_s23",
        Milo_techmap.Table_map.map_design
          (Milo_techmap.Table_map.ecl_target ())
          (Milo_designs.Workload.random_logic ~gates:60 ~seed:23 ()) );
      mapped_case (Suite.design7 ());
    ];
  divergence_escapes "design1" (snd (mapped_case (Suite.design1 ())));
  List.iter check_debug_flow (Suite.all ());
  Measure.set_debug_check false;
  if !failures > 0 then (
    Printf.printf "%d failure(s)\n" !failures;
    exit 1)
  else print_endline "measure_suite: all equivalence checks passed"
