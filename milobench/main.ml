(* The MILO benchmark harness: Figure 19, an area-bound and a
   timing-bound workload, each a fixed list of [Milo.Flow.run] calls
   under the CLI defaults (ECL, sampled guard, certification on, one
   supervised domain).

     main.exe --workload fig19|random_area|timing_journaled
              --seed N --seconds S --trace 0|1

   [--trace 0] reports the end-to-end metrics, measured with the
   benchmark's tracing off; [--trace 1] is the separate traced run that
   reports the per-layer metrics.  Progress, raw and calibrated times go
   to stderr, together with one [fingerprint] line of the run's exact
   counts (see selftest.py); the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.

   A run has two phases.  The counting phase comes first, so that every
   run reaches it in the same process state: one set-up, then one
   repetition of the workload (and one traced repetition with
   [--trace 1]) whose allocated words, peak heap, QoR and counters are
   exact and repeat across runs.  The timed phase follows: the set-up
   repeated cold, then repetitions of the workload until [--seconds]
   have passed since the counting phase began (at least three, or two
   traced/untraced pairs).  A full major GC runs before every flow call,
   outside its timed interval, and every time is calibrated against the
   host-speed sampler below; timings are medians over repetitions.

   Correctness is checked outside the timed intervals: every final
   netlist is compared with its input by [Guard.check] at full
   parameters (what [milo verify] runs), every repetition must
   reproduce the first one's design digests and QoR, and the journaled
   workload's journal must recover whole, record for record. *)

module D = Milo_netlist.Design
module C = Milo.Constraints
module Flow = Milo.Flow
module Trace = Milo_trace.Trace
module Profile = Milo_trace.Profile
module Metrics = Milo_trace.Metrics
module Guard = Milo_guard.Guard
module Certify = Milo_absint.Certify
module J = Milo_journal.Journal
module P = Milo_provenance.Provenance

let now = Unix.gettimeofday
let note fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* --- Statistics ------------------------------------------------------- *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs
    /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* --- Workloads -------------------------------------------------------- *)

type workload = Fig19 | Random_area | Timing_journaled

let workloads =
  [
    ("fig19", Fig19);
    ("random_area", Random_area);
    ("timing_journaled", Timing_journaled);
  ]

(* The journaled workload runs the flow with its own journal, provenance
   recorder and tracer: those writes are part of the work measured. *)
let observed = function Timing_journaled -> true | Fig19 | Random_area -> false

type case = { label : string; design : D.t; constraints : C.t }

(* The netlists are fixed — the generator seeds below are part of the
   workload — so the exact counts repeat across runs; [--seed] varies
   the verification vectors (see [verify]). *)
let random_case ~gates ~seed =
  let design =
    Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates ~seed ()
  in
  { label = D.name design; design; constraints = C.none }

let timing_factor = 0.3

let build_designs = function
  | Fig19 ->
      List.map
        (fun (c : Milo_designs.Suite.case) ->
          {
            label = c.Milo_designs.Suite.case_name;
            design = c.Milo_designs.Suite.case_design;
            constraints = c.Milo_designs.Suite.constraints;
          })
        (Milo_designs.Suite.all ())
  | Random_area -> [ random_case ~gates:250 ~seed:7 ]
  | Timing_journaled -> [ random_case ~gates:150 ~seed:11 ]

(* --- Host speed sampler --------------------------------------------------- *)

(* The host's speed drifts by tens of percent over seconds, and wall time
   equals CPU time, so no clock separates the program's work from the
   drift.  A SIGALRM every [probe_interval_s] runs a short fixed probe —
   Map, Hashtbl and float work, the mix the flow's hot paths are made of —
   at the next safe point and logs when it ran and how long it took: the
   host's speed sampled inside flow calls as well as between them.  Each
   timed interval is then re-expressed in seconds at the probe's nominal
   speed ([calibrated]). *)
module IM = Map.Make (Int)

let probe_interval_s = 0.1
let probe_keys = 4096

(* The probe's time on a quiet host. *)
let probe_nominal_s = 0.0035

(* How strongly the flow's speed follows the probe's: the slope of log
   flow time on log probe time, regressed over 322 repetitions of the
   three workloads on a 2-vCPU Xeon host, was 1.09-1.24. *)
let speed_exponent = 1.2

let probe_log_size = 1 lsl 16
let probe_start = Array.make probe_log_size 0.0
let probe_dur = Array.make probe_log_size 0.0
let probes = ref 0

let probe () =
  let h = Hashtbl.create 64 in
  let m = ref IM.empty in
  let x = ref 1 and acc = ref 0.0 in
  for i = 1 to probe_keys do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    m := IM.add k i !m;
    Hashtbl.replace h k (float_of_int i);
    match IM.find_opt (k lxor 1) !m with
    | Some v -> acc := !acc +. sqrt (float_of_int (v + k))
    | None -> acc := !acc +. Hashtbl.find h k
  done;
  ignore (Sys.opaque_identity !acc)

(* One timed probe, started on an empty minor heap so that it never pays
   for collecting the flow's young objects. *)
let sample () =
  if !probes < probe_log_size then begin
    Gc.minor ();
    let t0 = now () in
    probe ();
    probe_start.(!probes) <- t0;
    probe_dur.(!probes) <- now () -. t0;
    incr probes
  end

let on_alarm (_ : int) = sample ()

(* Probes at a call boundary: enough for [calibrated]'s median of three
   to rest on samples taken right at the call's start and end. *)
let bracket () =
  for _ = 1 to 3 do
    sample ()
  done

let sampling = ref false

let set_sampler on =
  sampling := on;
  let every = if on then probe_interval_s else 0.0 in
  if on then Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_alarm);
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = every; it_value = every });
  if not on then Sys.set_signal Sys.sigalrm Sys.Signal_ignore

(* Probes logged from index [i] on, oldest first. *)
let probes_since i = List.init (!probes - i) (fun k -> i + k)

(* [t0, t1] less the probes that ran inside it, each stretch scaled by
   the speed the three most recent probes measured (their median, raised
   to [speed_exponent]); the stretch
   before the interval's first probe uses the probes before it, or the
   first one when there are none. *)
let calibrated t0 t1 =
  let n = !probes in
  if n = 0 then t1 -. t0
  else begin
    let speed j =
      let recent = List.filter (fun k -> k >= 0) [ j; j - 1; j - 2 ] in
      (probe_nominal_s /. median (List.map (fun k -> probe_dur.(k)) recent))
      ** speed_exponent
    in
    let first_in = ref n in
    for j = n - 1 downto 0 do
      if probe_start.(j) >= t0 then first_in := j
    done;
    let cursor = ref t0 and acc = ref 0.0 in
    let current = ref (speed (max 0 (!first_in - 1))) in
    for j = !first_in to n - 1 do
      if probe_start.(j) < t1 then begin
        acc := !acc +. ((probe_start.(j) -. !cursor) *. !current);
        cursor := probe_start.(j) +. probe_dur.(j);
        current := speed j
      end
    done;
    !acc +. (Float.max 0.0 (t1 -. !cursor) *. !current)
  end

(* Wall time of [t0, t1] outside the probes that ran inside it. *)
let net_wall t0 t1 =
  let inside = ref 0.0 in
  for j = 0 to !probes - 1 do
    if probe_start.(j) >= t0 && probe_start.(j) < t1 then
      inside := !inside +. probe_dur.(j)
  done;
  t1 -. t0 -. !inside

(* --- Set-up ------------------------------------------------------------ *)

(* Build the input designs, load the technology library and certify the
   logic-level rules from a cold certificate cache — what a one-shot CLI
   run pays before its first flow. *)
let setup_once w =
  let t0 = now () in
  let cases = Trace.with_span "designs.build" (fun () -> build_designs w) in
  let target =
    Trace.with_span "library.load" (fun () ->
        Milo_techmap.Table_map.make_target ~prefix:"E_"
          (Milo_library.Technology.create "ecl" Milo_library.Ecl.macros))
  in
  let certs =
    Trace.with_span "absint.certify" (fun () ->
        Certify.reset_cache Certify.shared_cache;
        Certify.certify_rules target Milo_critic.Critic.all_logic_level)
  in
  let t1 = now () in
  if certs = [] then failwith "certification produced no certificates";
  (cases, t0, t1)

(* [setup_s]: the set-up repeated cold (the certificate cache reset each
   time) with the sampler on, reported as the median calibrated time. *)
let setup_reps = 15

let setup_time w =
  let times =
    List.init setup_reps (fun _ ->
        bracket ();
        let _, t0, t1 = setup_once w in
        (calibrated t0 t1, net_wall t0 t1))
  in
  note "setup: raw %s s; calibrated %s s"
    (String.concat " " (List.map (fun (_, r) -> Printf.sprintf "%.5f" r) times))
    (String.concat " " (List.map (fun (c, _) -> Printf.sprintf "%.5f" c) times));
  (median (List.map fst times), median (List.map snd times))

(* The reference each QoR ratio divides by, and the timing workload's
   constraint derived from it: computed once, untimed. *)
let baselines w cases =
  List.map
    (fun c ->
      let base =
        Flow.baseline_stats ~technology:Flow.Ecl
          ~input_arrivals:c.constraints.C.input_arrivals c.design
      in
      let c =
        match w with
        | Timing_journaled ->
            { c with constraints = C.delay (timing_factor *. base.Flow.delay) }
        | Fig19 | Random_area -> c
      in
      (c, base))
    cases

(* --- One flow call ----------------------------------------------------- *)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type call = {
  wall : float;  (** wall time of the call, less the probes inside it *)
  cal : float;  (** the same at the probe's nominal speed *)
  alloc : float;  (** words allocated by the call (probes included) *)
  minor_gcs : int;
  major_gcs : int;
  result : (Flow.result, string) result;
  tracer : Trace.t option;
  epoch : float;  (** Unix time of the tracer's clock origin *)
  journal : string option;
  steps : int;  (** provenance step records: the journal's Delta records *)
  stages : int;  (** stages entered: the journal's Stage records *)
  checkpoints : int;  (** checkpoints taken: the journal's Checkpoint records *)
}

(* Journals go to a fresh file per call under the working directory and
   are deleted once checked. *)
let journal_dir = ".milobench_tmp"

let run_flow ~traced ~observe ~journal case =
  let epoch = now () in
  let trace = if traced || observe then Some (Trace.create ()) else None in
  let provenance = if observe then Some (P.create ()) else None in
  let journal = if observe then Some journal else None in
  let stages = ref 0 and checkpoints = ref 0 in
  let hooks =
    {
      Flow.before_stage = (fun _ _ -> incr stages);
      on_checkpoint = (fun _ -> incr checkpoints);
    }
  in
  let call () =
    match
      Flow.run ~technology:Flow.Ecl ~constraints:case.constraints
        ~guard:Guard.Sampled ~certify:true ~domains:1 ~hooks ?trace ?journal
        ?provenance case.design
    with
    | Flow.Complete r -> Ok r
    | Flow.Partial p -> Error ("partial outcome: " ^ p.Flow.failure.Flow.err_message)
    | exception e -> Error (Printexc.to_string e)
  in
  Gc.full_major ();
  if !sampling then bracket ();
  let gc0 = Gc.quick_stat () in
  let a0 = alloc_words () in
  let t0 = now () in
  (* An untraced call runs with the benchmark's own tracer suppressed, so
     the flow sees no ambient tracer. *)
  let result =
    if traced then Trace.with_span "flow.run" call else Trace.without call
  in
  let t1 = now () in
  let alloc = alloc_words () -. a0 in
  let gc1 = Gc.quick_stat () in
  if !sampling then bracket ();
  let steps =
    match provenance with
    | None -> 0
    | Some p ->
        List.length
          (List.filter (function P.Step _ -> true | _ -> false) (P.events p))
  in
  {
    wall = net_wall t0 t1;
    cal = calibrated t0 t1;
    alloc;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    result;
    tracer = trace;
    epoch;
    journal;
    steps;
    stages = !stages;
    checkpoints = !checkpoints;
  }

(* --- One repetition of a workload -------------------------------------- *)

type rep = {
  calls : (case * Flow.stats * call) list;  (** case, its baseline, the call *)
  raw_s : float;  (** wall time of the rep's flow calls, less probes *)
  cal_s : float;  (** the same at the probe's nominal speed *)
  probe_s : float list;  (** the probes' times during the rep *)
  top_heap_words : int;  (** after the rep's calls, before any check *)
}

let run_rep ~traced ~observe ~tag cases =
  let first_probe = !probes in
  let calls =
    List.mapi
      (fun i (case, base) ->
        let journal =
          Filename.concat journal_dir (Printf.sprintf "%s-%d.journal" tag i)
        in
        (case, base, run_flow ~traced ~observe ~journal case))
      cases
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  {
    calls;
    raw_s = sum (List.map (fun (_, _, c) -> c.wall) calls);
    cal_s = sum (List.map (fun (_, _, c) -> c.cal) calls);
    probe_s = List.map (fun j -> probe_dur.(j)) (probes_since first_probe);
    top_heap_words;
  }

(* --- Output checks (outside every timed interval) ---------------------- *)

type checks = {
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** benchmark-level failures *)
  reference : (string, string * Flow.stats) Hashtbl.t;
      (** per case: the first repetition's verified digest and QoR *)
  mutable verify_s : float;
  mutable recover_s : float list;
  mutable journal_records : int;
  mutable journal_bytes : int;
}

let verify_env =
  lazy
    (let techs =
       [
         Milo_library.Generic.get ();
         (Flow.target_of Flow.Ecl).Milo_techmap.Table_map.tech;
         (Flow.target_of Flow.Cmos).Milo_techmap.Table_map.tech;
       ]
     in
     (Milo_sim.Simulator.env_of_techs techs, Flow.seq_classifier techs))

(* The final netlist against its input, at full parameters: what
   [milo verify] runs.  The seed picks the random vectors used past the
   exhaustive bound. *)
let verify ~seed case (r : Flow.result) =
  let env, is_seq = Lazy.force verify_env in
  match
    Guard.check
      ~params:{ Guard.full_params with Guard.seed }
      ~is_seq env case.design env r.Flow.optimized
  with
  | None -> Ok ()
  | Some d -> Error ("not equivalent to its input: " ^ Guard.describe d)
  | exception e -> Error ("verification raised " ^ Printexc.to_string e)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* The journal must recover whole: a Finish record, no torn tail, and
   one record per header, stage, checkpoint, committed delta and finish
   that the flow's hooks and provenance recorder observed. *)
let check_journal ck path call =
  let t0 = now () in
  let recovered =
    try Ok (Trace.with_span "journal.recover" (fun () -> J.recover path))
    with e -> Error (Printexc.to_string e)
  in
  ck.recover_s <- (now () -. t0) :: ck.recover_s;
  remove_if_exists path;
  remove_if_exists (path ^ ".tmp");
  match recovered with
  | Error m -> Error ("journal recovery raised " ^ m)
  | Ok r ->
      let records = List.length r.J.r_records in
      let expected = 2 + call.stages + call.checkpoints + call.steps in
      ck.journal_records <- records;
      ck.journal_bytes <- r.J.r_total_bytes;
      let finished =
        match List.rev r.J.r_records with
        | J.Finish { f_outcome = "complete"; _ } :: _ -> true
        | _ -> false
      in
      if not finished then Error "journal lacks a complete Finish record"
      else if r.J.r_truncated_bytes <> 0 then
        Error (Printf.sprintf "journal has a %d-byte torn tail" r.J.r_truncated_bytes)
      else if records <> expected then
        Error
          (Printf.sprintf "journal holds %d records, the flow committed %d"
             records expected)
      else Ok ()

let check_rep ck rep =
  List.iter
    (fun (case, _, call) ->
      ck.attempted <- ck.attempted + 1;
      let outcome =
        match call.result with
        | Error m -> Error m
        | Ok r -> (
            let digest = Milo_netlist.Hashcons.design_digest r.Flow.optimized in
            let verdict =
              match Hashtbl.find_opt ck.reference case.label with
              | Some (d, final) ->
                  if d = digest && final = r.Flow.final then Ok ()
                  else Error "final netlist differs from the first repetition's"
              | None -> (
                  let t0 = now () in
                  let v =
                    Trace.with_span "guard.check" (fun () ->
                        verify ~seed:ck.seed case r)
                  in
                  ck.verify_s <- ck.verify_s +. (now () -. t0);
                  match v with
                  | Ok () ->
                      Hashtbl.replace ck.reference case.label (digest, r.Flow.final);
                      Ok ()
                  | Error _ as e -> e)
            in
            match (verdict, call.journal) with
            | Ok (), Some path -> check_journal ck path call
            | v, _ -> v)
      in
      match outcome with
      | Ok () -> ()
      | Error m ->
          ck.failed <- ck.failed + 1;
          note "FAILED %s: %s" case.label m)
    rep.calls

(* --- Per-layer metrics from a traced repetition ------------------------ *)

(* Program spans by name; a span not named here (a child added later)
   counts toward its nearest named ancestor. *)
let layer_of_span name =
  let has prefix = String.starts_with ~prefix name in
  match name with
  | "stage:micro" -> Some "critic.micro_s"
  | "stage:compile" -> Some "compilers.compile_s"
  | "stage:techmap" -> Some "techmap.map_s"
  | "time-opt" -> Some "optimizer.time_opt_s"
  | "area-opt" -> Some "optimizer.area_opt_s"
  | "power-opt" -> Some "optimizer.power_opt_s"
  | "electric" -> Some "optimizer.electric_s"
  | "stage:capture" | "stage:optimize" -> Some "flow.other_s"
  | _ when has "level:" -> Some "optimizer.level_s"
  | _ when has "flow:" -> Some "flow.other_s"
  | _ -> None

let flow_layers =
  [
    "critic.micro_s";
    "compilers.compile_s";
    "techmap.map_s";
    "optimizer.level_s";
    "optimizer.time_opt_s";
    "optimizer.area_opt_s";
    "optimizer.electric_s";
    "optimizer.power_opt_s";
    "flow.other_s";
  ]

let histogram m name =
  match List.assoc_opt name (Metrics.histograms m) with
  | Some h -> (float_of_int h.Metrics.count, h.Metrics.sum)
  | None -> (0.0, 0.0)

(* A span's duration at the probe's nominal speed; [epoch] is the Unix
   time of its tracer's clock origin. *)
let span_cal epoch (sp : Trace.span) =
  if Trace.span_closed sp then
    calibrated (epoch +. sp.Trace.start) (epoch +. sp.Trace.stop)
  else 0.0

(* Sums over the rep's calls, span times at the probe's nominal speed;
   means are taken over the pooled samples. *)
let layers_of_rep rep =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter (fun l -> add l 0.0) flow_layers;
  List.iter
    (fun (_, _, call) ->
      add "flow.run_s" call.cal;
      add "gc.minor_collections" (float_of_int call.minor_gcs);
      add "gc.major_collections" (float_of_int call.major_gcs);
      add "provenance.steps" (float_of_int call.steps);
      (match call.tracer with
      | None -> ()
      | Some tr ->
          let rec visit inherited (n : Profile.node) =
            let layer =
              Option.value ~default:inherited (layer_of_span n.Profile.span.Trace.name)
            in
            let children =
              sum (List.map (fun c -> span_cal call.epoch c.Profile.span) n.Profile.children)
            in
            add layer (Float.max 0.0 (span_cal call.epoch n.Profile.span -. children));
            List.iter (visit layer) n.Profile.children
          in
          List.iter (visit "flow.other_s") (Profile.tree tr);
          let m = Trace.metrics tr in
          let counter name = float_of_int (Metrics.counter m name) in
          add "rules.applies" (counter "engine.applies");
          add "rules.search_nodes" (counter "search.nodes");
          add "rules.search_evals" (counter "search.evals");
          add "trace.events" (float_of_int (Trace.event_count tr));
          List.iter
            (fun (hist, key) ->
              let n, s = histogram m hist in
              add (key ^ ".n") n;
              add (key ^ ".sum") s)
            [
              ("engine.eval_us", "eval_us");
              ("measure.cone_comps", "cone_comps");
              ("sta.update.cone", "sta_cone");
            ]);
      match call.result with
      | Error _ -> ()
      | Ok r ->
          let g = r.Flow.guard_stats in
          add "guard.stage_checks" (float_of_int g.Guard.stage_checks);
          add "guard.rule_checks" (float_of_int g.Guard.rule_checks);
          add "guard.rule_skipped" (float_of_int g.Guard.rule_skipped);
          add "guard.rule_certified" (float_of_int g.Guard.rule_certified);
          add "optimizer.level_applications"
            (float_of_int
               (List.fold_left
                  (fun acc e -> acc + e.Milo_optimizer.Logic_optimizer.applications)
                  0
                  r.Flow.optimizer_report.Milo_optimizer.Logic_optimizer.entries)))
    rep.calls;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  Hashtbl.replace tbl "rules.evals" (get "eval_us.n");
  Hashtbl.replace tbl "rules.eval_us_mean" (ratio (get "eval_us.sum") (get "eval_us.n"));
  Hashtbl.replace tbl "rules.apply_per_eval" (ratio (get "rules.applies") (get "eval_us.n"));
  Hashtbl.replace tbl "measure.cone_comps_mean"
    (ratio (get "cone_comps.sum") (get "cone_comps.n"));
  Hashtbl.replace tbl "timing.sta_update_cone_mean"
    (ratio (get "sta_cone.sum") (get "sta_cone.n"));
  Hashtbl.replace tbl "trace.coverage_frac"
    (ratio (sum (List.map get flow_layers)) (get "flow.run_s"));
  get

(* --- Metrics and the result line --------------------------------------- *)

let end_to_end =
  [
    ("flow_s", "s");
    ("setup_s", "s");
    ("flow_alloc_mw", "Mwords");
    ("peak_heap_mb", "MB");
    ("delay_ratio", "ratio");
    ("area_ratio", "ratio");
    ("power_ratio", "ratio");
    ("required_delay_ratio", "ratio");
  ]

let per_layer =
  [
    ("designs.build_s", "s");
    ("library.load_s", "s");
    ("absint.certify_s", "s");
    ("critic.micro_s", "s");
    ("compilers.compile_s", "s");
    ("techmap.map_s", "s");
    ("optimizer.level_s", "s");
    ("optimizer.level_applications", "count");
    ("optimizer.time_opt_s", "s");
    ("optimizer.timing_met_frac", "ratio");
    ("optimizer.area_opt_s", "s");
    ("optimizer.electric_s", "s");
    ("optimizer.power_opt_s", "s");
    ("flow.other_s", "s");
    ("rules.evals", "count");
    ("rules.eval_us_mean", "us");
    ("rules.applies", "count");
    ("rules.apply_per_eval", "ratio");
    ("rules.search_nodes", "count");
    ("rules.search_evals", "count");
    ("measure.cone_comps_mean", "comps");
    ("timing.sta_update_cone_mean", "nets");
    ("guard.stage_checks", "count");
    ("guard.rule_checks", "count");
    ("guard.rule_skipped", "count");
    ("guard.rule_certified", "count");
    ("guard.verify_s", "s");
    ("journal.records", "count");
    ("journal.bytes", "bytes");
    ("journal.recover_s", "s");
    ("provenance.steps", "count");
    ("trace.events", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("flow_wall_s", "s");
    ("calib.kernel_s", "s");
    ("trace.overhead_frac", "ratio");
    ("trace.coverage_frac", "ratio");
  ]

let json_float ck name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    ck.problems <- (name ^ " is not a finite number") :: ck.problems;
    "0"
  end

let print_result ck units values =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float ck name (values name))
          unit)
      units
  in
  List.iter (fun p -> note "PROBLEM: %s" p) ck.problems;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ck.failed = 0 && ck.problems = [] && ck.attempted > 0)
    ck.attempted ck.failed
    (String.concat ", " metrics)

(* The exact counts two runs with one seed must reproduce (selftest.py). *)
let print_fingerprint ck ~workload ~mode extra =
  let cases =
    Hashtbl.fold (fun label (d, (s : Flow.stats)) acc ->
        Printf.sprintf "%S: [%S, \"%h\", \"%h\", \"%h\"]" label d s.Flow.delay
          s.Flow.area s.Flow.power
        :: acc)
      ck.reference []
    |> List.sort compare
  in
  Printf.eprintf "fingerprint {\"workload\": %S, \"mode\": %S, %s, \"cases\": {%s}}\n%!"
    workload mode
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: \"%h\"" k v) extra))
    (String.concat ", " cases)

(* --- Running a workload ------------------------------------------------- *)

(* Share of the rep's designs whose final delay meets the required delay
   (a design without one meets it). *)
let timing_met_frac rep =
  let met =
    List.filter
      (fun (case, _, call) ->
        match (call.result, case.constraints.C.required_delay) with
        | Ok _, None -> true
        | Ok r, Some req -> r.Flow.final.Flow.delay <= req
        | Error _, _ -> false)
      rep.calls
  in
  float_of_int (List.length met) /. float_of_int (List.length rep.calls)

(* Geometric means over the rep's designs of MILO's final cost over the
   human baseline's, and of the final delay over the required delay (1
   when no design has a required delay). *)
let qor rep =
  let ratios f =
    geomean
      (List.filter_map
         (fun (case, (base : Flow.stats), call) ->
           match call.result with
           | Ok r -> f case r.Flow.final base
           | Error _ -> None)
         rep.calls)
  in
  let of_base get _ final base = Some (get final /. get base) in
  let required =
    ratios (fun case (final : Flow.stats) _ ->
        Option.map (fun req -> final.Flow.delay /. req)
          case.constraints.C.required_delay)
  in
  [
    ("delay_ratio", ratios (of_base (fun s -> s.Flow.delay)));
    ("area_ratio", ratios (of_base (fun s -> s.Flow.area)));
    ("power_ratio", ratios (of_base (fun s -> s.Flow.power)));
    ("required_delay_ratio", if Float.is_nan required then 1.0 else required);
  ]

let describe_rep kind i rep =
  note "rep %d %s: raw %.4f s, calibrated %.4f s, probes %d (median %.6f s)" i
    kind rep.raw_s rep.cal_s (List.length rep.probe_s) (median rep.probe_s)

let run ~workload ~w ~seed ~seconds ~traced =
  let observe = observed w in
  if observe && not (Sys.file_exists journal_dir) then Sys.mkdir journal_dir 0o755;
  let ck =
    {
      seed;
      attempted = 0;
      failed = 0;
      problems = [];
      reference = Hashtbl.create 8;
      verify_s = 0.0;
      recover_s = [];
      journal_records = 0;
      journal_bytes = 0;
    }
  in
  let bench_epoch = now () in
  let bench_tr = Trace.create () in
  let body () =
    (* Everything up to the timed phase is deterministic: the counting
       reps see the same process state in every run, so their exact
       counts (allocation, heap, GC and rule counters) repeat. *)
    let cases, _, _ = setup_once w in
    let cases = Trace.without (fun () -> baselines w cases) in
    let i = ref 0 in
    let one ~traced =
      incr i;
      let tag = Printf.sprintf "%d-%d-%d" (Unix.getpid ()) seed !i in
      let rep = run_rep ~traced ~observe ~tag cases in
      describe_rep (if traced then "traced" else "untraced") !i rep;
      check_rep ck rep;
      rep
    in
    let t_start = now () in
    let counting = one ~traced:false in
    let counting_traced = if traced then Some (one ~traced:true) else None in
    (* The timed phase: set-up and flow times, sampled and calibrated. *)
    set_sampler true;
    let setup_s, setup_raw_s = setup_time w in
    let untraced = ref [] and traced_reps = ref [] in
    let min_reps = if traced then 2 else 3 in
    while List.length !untraced < min_reps || now () -. t_start < seconds do
      untraced := one ~traced:false :: !untraced;
      if traced then traced_reps := one ~traced:true :: !traced_reps
    done;
    set_sampler false;
    ( (setup_s, setup_raw_s),
      counting,
      counting_traced,
      List.rev !untraced,
      List.rev !traced_reps )
  in
  let (setup_s, setup_raw_s), counting, counting_traced, untraced, traced_reps =
    if traced then Trace.with_tracer bench_tr body else body ()
  in
  if observe then (try Sys.rmdir journal_dir with Sys_error _ -> ());
  let median_of f reps = median (List.map f reps) in
  let all_probes = List.init !probes (fun j -> probe_dur.(j)) in
  note "flow: raw median %.4f s, calibrated median %.4f s over %d reps; setup raw %.5f s, calibrated %.5f s; probe median %.6f s"
    (median_of (fun r -> r.raw_s) untraced)
    (median_of (fun r -> r.cal_s) untraced)
    (List.length untraced) setup_raw_s setup_s (median all_probes);
  match counting_traced with
  | None ->
      let values =
        [
          ("flow_s", median_of (fun r -> r.cal_s) untraced);
          ("setup_s", setup_s);
          ( "flow_alloc_mw",
            sum (List.map (fun (_, _, c) -> c.alloc) counting.calls) /. 1e6 );
          ( "peak_heap_mb",
            float_of_int (counting.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
        ]
        @ qor counting
      in
      print_fingerprint ck ~workload ~mode:"end_to_end"
        (List.filter (fun (k, _) -> k <> "flow_s" && k <> "setup_s") values);
      print_result ck end_to_end (fun k -> List.assoc k values)
  | Some counted ->
      let span_median name =
        median
          (List.filter_map
             (fun (s : Trace.span) ->
               if s.Trace.name = name then Some (span_cal bench_epoch s) else None)
             (Trace.spans bench_tr))
      in
      let layers = List.map layers_of_rep traced_reps in
      let layer_median k = median (List.map (fun get -> get k) layers) in
      let counts = layers_of_rep counted in
      let wall_untraced = median_of (fun r -> r.cal_s) untraced in
      let wall_traced = median_of (fun r -> r.cal_s) traced_reps in
      let coverage = layer_median "trace.coverage_frac" in
      if coverage < 0.9 then
        ck.problems <-
          Printf.sprintf "named self-times cover %.1f%% of the traced flow time"
            (100.0 *. coverage)
          :: ck.problems;
      let values k =
        match k with
        | "designs.build_s" -> span_median "designs.build"
        | "library.load_s" -> span_median "library.load"
        | "absint.certify_s" -> span_median "absint.certify"
        | "guard.verify_s" -> ck.verify_s
        | "journal.records" -> float_of_int ck.journal_records
        | "journal.bytes" -> float_of_int ck.journal_bytes
        | "journal.recover_s" -> if ck.recover_s = [] then 0.0 else median ck.recover_s
        | "flow_wall_s" -> median_of (fun r -> r.raw_s) untraced
        | "calib.kernel_s" -> median all_probes
        | "trace.overhead_frac" -> (wall_traced -. wall_untraced) /. wall_untraced
        | "trace.coverage_frac" -> coverage
        | "optimizer.timing_met_frac" -> timing_met_frac counted
        | k when String.ends_with ~suffix:"_s" k -> layer_median k
        | k -> counts k
      in
      print_fingerprint ck ~workload ~mode:"per_layer"
        (List.filter_map
           (fun (k, unit) ->
             if unit = "count" || unit = "bytes" then Some (k, values k) else None)
           per_layer);
      print_result ck per_layer values

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME fig19|random_area|timing_journaled");
      ("--seed", Arg.Set_int seed, "N seed of the verification vectors");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe";
  match List.assoc_opt !workload workloads with
  | None ->
      note "unknown workload %S" !workload;
      exit 2
  | Some w ->
      if !trace <> 0 && !trace <> 1 then begin
        note "--trace takes 0 or 1";
        exit 2
      end;
      run ~workload:!workload ~w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
