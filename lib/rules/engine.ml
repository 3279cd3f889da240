(* The recognize-act engine.

   Three control disciplines from the paper's survey, all over the same
   rule representation:

   - [ops_pass]: strictly rule-based control with OPS-style conflict
     resolution (refraction, recency, specificity) — the R1 / Logic
     Consultant discipline.  No measurement, no backtracking.
   - [greedy_pass]: measure-the-gain control — apply a candidate,
     run cleanup rules, measure the cost function, undo, and commit the
     best candidate (Logic Consultant's gain evaluation with its
     one-rule cleanup lookahead).
   - deeper lookahead lives in [Search] (SOCRATES). *)

module D = Milo_netlist.Design
module Trace = Milo_trace.Trace
module Prov = Milo_provenance.Provenance
module Pool = Milo_parallel.Pool
module Exec = Milo_parallel.Exec

type measure = Milo_measure.Measure.totals = {
  delay : float;
  area : float;
  power : float;
}

let pp_measure ppf m =
  Format.fprintf ppf "delay=%.2fns area=%.1fcells power=%.1fmW" m.delay m.area
    m.power

(* Cost function over measurements; lower is better. *)
type objective = measure -> float

let weighted ?(w_delay = 1.0) ?(w_area = 1.0) ?(w_power = 0.2) () m =
  (w_delay *. m.delay) +. (w_area *. m.area) +. (w_power *. m.power)

let measure_fn ctx ~input_arrivals () =
  let env name = Milo_library.Technology.find ctx.Rule.tech name in
  let sta = Milo_timing.Sta.analyze ~input_arrivals env ctx.Rule.design in
  {
    delay = Milo_timing.Sta.worst_delay sta;
    area = Milo_estimate.Estimate.area env ctx.Rule.design;
    power = Milo_estimate.Estimate.power env ctx.Rule.design;
  }

(* --- Debug linting ---------------------------------------------------- *)

(* When enabled, the structural lint invariants (connectivity
   consistency, single drivers, valid references, no combinational
   loops) are re-checked after every rule application, so an unsound
   rewrite is caught at the offending rule instead of three flow stages
   later.  Costs a full design scan per application — debugging only. *)

exception Lint_violation of string * string

let () =
  Printexc.register_printer (function
    | Lint_violation (rule, report) ->
        Some (Printf.sprintf "Lint_violation after rule %s:\n%s" rule report)
    | _ -> None)

let debug_lint = ref false
let set_debug_lint v = debug_lint := v

let lint_after ctx name =
  if !debug_lint then begin
    let is_sequential kind =
      match kind with
      | Milo_netlist.Types.Instance _ -> true
      | Milo_netlist.Types.Macro m -> (
          match Milo_library.Technology.find_opt ctx.Rule.tech m with
          | Some mac -> Milo_library.Macro.is_sequential mac
          | None -> false)
      | k -> Milo_netlist.Types.is_sequential_kind k
    in
    let diags =
      Milo_lint.Lint.run ~resolve:ctx.Rule.resolve ~is_sequential
        ~rules:Milo_lint.Lint.structural_rules ctx.Rule.design
    in
    match Milo_lint.Lint.errors diags with
    | [] -> ()
    | errs ->
        raise
          (Lint_violation
             ( name,
               String.concat "\n"
                 (List.map Milo_lint.Diagnostic.to_string errs) ))
  end

(* --- Rule quarantine -------------------------------------------------- *)

(* Transactional rule application for the measured (greedy / lookahead)
   disciplines: a rule whose [apply] raises — or whose result fails the
   debug-lint invariants — is rolled back through its own change log and
   quarantined for the rest of the run instead of aborting the pass.
   The strictly rule-based OPS disciplines keep the raising behaviour:
   they are the debugging surface where a loud failure is wanted. *)

(* Why a rule was quarantined: its [apply]/[find] raised, or the
   semantic guard caught it changing the function of its site (a
   miscompile that was reverted).  The distinction matters downstream —
   a raising rule is a crash bug, a miscompiling one is a correctness
   bug that would have shipped silently. *)
type reason = Raised | Miscompiled

let reason_name = function Raised -> "raised" | Miscompiled -> "miscompiled"

(* Per rule: failure count, the first trapped failure message and why —
   the count says how noisy the rule was, the message says why it
   first went wrong. *)
let quarantine : (string, int * string * reason) Hashtbl.t = Hashtbl.create 16

(* Oracle-worker discipline for the parallel fan-out: while candidate
   evaluations run on forked design snapshots — on pool domains or
   inline on the coordinator — the global quarantine table is
   read-only.  A worker that traps a failure defers it into a
   domain-local buffer; the coordinator imports the buffers in task
   (= submission) order after the fan-out, so first-failure messages
   and quarantine trace events are deterministic regardless of which
   domain trapped what when. *)
type deferred_failure = { df_rule : string; df_msg : string; df_reason : reason }

let worker_key : deferred_failure list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let in_worker () = Domain.DLS.get worker_key <> None

let quarantine_reset () = Hashtbl.reset quarantine

let is_quarantined name =
  Hashtbl.mem quarantine name
  ||
  (* A failure trapped earlier in this worker task quarantines the rule
     for the task's remaining sites, mirroring what the sequential pass
     would do globally. *)
  (match Domain.DLS.get worker_key with
  | Some buf -> List.exists (fun d -> d.df_rule = name) !buf
  | None -> false)

(* Full quarantine image, for journal checkpoints: a resumed run
   restores it so rules trapped before the crash stay trapped. *)
let quarantine_dump () =
  Hashtbl.fold
    (fun name (n, msg, reason) acc -> (name, n, msg, reason) :: acc)
    quarantine []
  |> List.sort compare

let quarantine_restore dump =
  Hashtbl.reset quarantine;
  List.iter
    (fun (name, n, msg, reason) -> Hashtbl.replace quarantine name (n, msg, reason))
    dump

let quarantined () =
  Hashtbl.fold (fun name (n, _, _) acc -> (name, n) :: acc) quarantine []
  |> List.sort compare

let quarantined_errors () =
  Hashtbl.fold (fun name (_, msg, _) acc -> (name, msg) :: acc) quarantine []
  |> List.sort compare

let quarantined_reasons () =
  Hashtbl.fold (fun name (_, _, r) acc -> (name, r) :: acc) quarantine []
  |> List.sort compare

let note_failure_named ~reason name msg =
  match Domain.DLS.get worker_key with
  | Some buf -> buf := { df_rule = name; df_msg = msg; df_reason = reason } :: !buf
  | None -> (
      match Hashtbl.find_opt quarantine name with
      | Some (n, m, rs) -> Hashtbl.replace quarantine name (n + 1, m, rs)
      | None ->
          Hashtbl.replace quarantine name (1, msg, reason);
          if Trace.enabled () then
            Trace.emit
              (Trace.Rule_quarantined { rule = name; failures = 1; message = msg }))

let note_failure_msg ~reason (r : Rule.t) msg =
  note_failure_named ~reason r.Rule.rule_name msg

let note_failure (r : Rule.t) exn =
  note_failure_msg ~reason:Raised r (Printexc.to_string exn)

(* Run [f] as an oracle worker: quarantine writes are deferred into a
   local buffer (returned oldest-first), and tracing / provenance are
   suppressed on this domain, so a task behaves identically whether it
   runs inline on the coordinator or on a pool domain.  The rule guard
   never runs in a worker — see [guard_snapshot].  A measurement
   divergence (the debug oracle on the fork's measurer) is returned as
   [Error], not raised: raised, the supervisor would turn it into a
   task fault and quarantine the rule as if it were buggy. *)
let worker_task f =
  let buf = ref [] in
  let saved = Domain.DLS.get worker_key in
  Domain.DLS.set worker_key (Some buf);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set worker_key saved)
    (fun () ->
      let v =
        match Trace.without (fun () -> Prov.without f) with
        | v -> Ok v
        | exception Milo_measure.Measure.Divergence msg -> Error msg
      in
      (v, List.rev_map (fun d -> (d.df_rule, d.df_msg, d.df_reason)) !buf))

(* Coordinator side of a fan-out: in task order, fold each finished
   task's deferred failures into the global quarantine and hand its
   value to [ok], or its fault to [failed]; then re-raise the first
   divergence a task carried, so the debug oracle stops the run on the
   coordinator exactly as it does on the sequential path. *)
let merge_tasks outcomes ~ok ~failed =
  let diverged = ref None in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Pool.Done (v, fails) -> (
          List.iter
            (fun (rule, msg, reason) -> note_failure_named ~reason rule msg)
            fails;
          match v with
          | Ok v -> ok i v
          | Error msg -> if !diverged = None then diverged := Some msg)
      | Pool.Task_failed fault -> failed i fault)
    outcomes;
  Option.iter (fun msg -> raise (Milo_measure.Measure.Divergence msg)) !diverged

(* --- Semantic rule guard ----------------------------------------------- *)

(* Cone-local equivalence checking of individual rule applications
   (the transactional tier of the semantic guard).  Before an apply,
   the functions of the site's output nets are snapshotted as truth
   vectors over their fan-in cone leaves; after the apply the same
   nets are re-evaluated over the same leaf assignments.  Any
   difference means the rule changed observable behaviour: the edits
   are rolled back through the sub-log and the rule is quarantined
   with reason [Miscompiled].

   The check is conservative: a net whose new function can no longer
   be expressed over the old leaves (the rewrite restructured the
   region, a leaf vanished, a non-expandable driver appeared) is
   skipped, never reported — false positives would quarantine sound
   rules.  Stage guards in the flow backstop whatever is skipped. *)

module Guard = Milo_guard.Guard

type rule_guard_state = {
  rg_policy : Guard.policy;
  rg_budget : Budget.t option;
  rg_stats : Guard.stats;
  rg_seen : (string, unit) Hashtbl.t;  (* rules checked at least once *)
  mutable rg_tick : int;  (* check opportunities, for sampling *)
}

(* Domain-local: the flow arms the guard on the coordinating domain;
   worker domains never see it (their [guard_snapshot] short-circuits
   anyway), so its mutable sampling position is single-domain state
   and needs no locking. *)
let rule_guard_key : rule_guard_state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let rule_guard () = Domain.DLS.get rule_guard_key

let set_rule_guard ?budget ?stats policy =
  match policy with
  | Guard.Off -> rule_guard () := None
  | Guard.Sampled | Guard.Full ->
      rule_guard ()
      := Some
           {
             rg_policy = policy;
             rg_budget = budget;
             rg_stats =
               (match stats with Some s -> s | None -> Guard.fresh_stats ());
             rg_seen = Hashtbl.create 16;
             rg_tick = 0;
           }

let clear_rule_guard () = rule_guard () := None
let rule_guard_stats () = Option.map (fun g -> g.rg_stats) !(rule_guard ())

(* Journal-resume support: the [Sampled] tier's position (tick counter
   and first-application set) is part of the run's deterministic state
   — a resumed run must re-enter the sampling sequence exactly where
   the interrupted one left off, or its guard counters diverge from
   the uninterrupted run's. *)
let guard_sample_state () =
  Option.map
    (fun g ->
      ( g.rg_tick,
        Hashtbl.fold (fun n () acc -> n :: acc) g.rg_seen []
        |> List.sort compare ))
    !(rule_guard ())

let restore_guard_sample_state tick seen =
  match !(rule_guard ()) with
  | None -> ()
  | Some g ->
      g.rg_tick <- tick;
      Hashtbl.reset g.rg_seen;
      List.iter (fun n -> Hashtbl.replace g.rg_seen n ()) seen

(* --- Certified rules --------------------------------------------------- *)

(* Rules holding a static Certified certificate (proved sound offline
   by [Milo_absint.Certify] over exhaustive cone enumeration).  Their
   applications skip the dynamic cone re-simulation: the per-apply
   Full-guard cost collapses to the flow's stage-boundary checks.  The
   engine only stores names — certification itself lives above this
   layer — and the store is global like the quarantine: the flow
   installs it per run.  Quarantine still dominates: a certified rule
   that raises is quarantined like any other. *)
(* An immutable set behind an atomic, not a hashtable: worker domains
   read it during parallel candidate evaluation while the coordinator
   could in principle be between runs — a torn hashtable read would be
   undefined behaviour, an atomic set swap is always coherent. *)
module SS = Set.Make (String)

let certified : SS.t Atomic.t = Atomic.make SS.empty

let set_certified names = Atomic.set certified (SS.of_list names)
let clear_certified () = Atomic.set certified SS.empty
let is_certified name = SS.mem name (Atomic.get certified)
let certified_rules () = SS.elements (Atomic.get certified)

(* Sampling interval for the [Sampled] tier: the first application of
   each rule is always checked (a systematically wrong rule is caught
   immediately), then every Nth opportunity across all rules. *)
let sample_interval = 16

let should_check g (r : Rule.t) =
  match g.rg_policy with
  | Guard.Off -> false
  | Guard.Full -> true
  | Guard.Sampled ->
      if
        match g.rg_budget with
        | Some b -> Budget.exhausted b
        | None -> false
      then false
      else begin
        g.rg_tick <- g.rg_tick + 1;
        if Hashtbl.mem g.rg_seen r.Rule.rule_name then
          g.rg_tick mod sample_interval = 0
        else begin
          Hashtbl.replace g.rg_seen r.Rule.rule_name ();
          true
        end
      end

let guard_max_leaves = 8

(* Output nets of the site's components: the signals whose function
   the rule may legitimately restructure but must not change. *)
let site_out_nets ctx (site : Rule.site) =
  List.concat_map
    (fun cid ->
      match D.comp_opt ctx.Rule.design cid with
      | None -> []
      | Some c ->
          Hashtbl.fold
            (fun pin nid acc ->
              match
                D.pin_dir ~resolve:ctx.Rule.resolve ctx.Rule.design cid pin
              with
              | Milo_netlist.Types.Output -> nid :: acc
              | Milo_netlist.Types.Input -> acc
              | exception _ -> acc)
            c.D.conns [])
    site.Rule.site_comps
  |> List.sort_uniq compare

(* Packed truth vectors: chunk [c] of the array holds minterms
   [c*lanes .. c*lanes+lanes-1], lane [l] in bit position [l].  Leaf
   [i]'s input word for chunk [c] therefore has bit [l] equal to bit
   [i] of minterm [c*lanes + l]. *)
let lanes = Milo_sim.Eval.Packed.lanes

let leaf_words leaves c =
  let base = c * lanes in
  List.mapi
    (fun i leaf ->
      let w = ref 0 in
      for l = 0 to lanes - 1 do
        if (base + l) lsr i land 1 <> 0 then w := !w lor (1 lsl l)
      done;
      (leaf, !w))
    leaves

let chunks_for n = ((1 lsl n) + lanes - 1) / lanes

(* Truth vectors are a function of the cone's structure alone, so
   structurally identical cones — ubiquitous in mapped datapaths —
   share one packed sweep through a digest-keyed cache.  Keys include
   the library name: cone digests intern macro *names*, whose
   behavior is per-technology. *)
type tv_state = {
  tv_tbl : (string, int array) Hashtbl.t;
  mutable tv_hits : int;
  mutable tv_misses : int;
}

(* Domain-local: the guard only runs on the coordinating domain today,
   but a shared hashtable mutated from a hot path is exactly the kind
   of latent hazard the parallel runtime must not inherit — per-domain
   caches need no locking and keep the bound per-domain too. *)
let tv_key : tv_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tv_tbl = Hashtbl.create 256; tv_hits = 0; tv_misses = 0 })

let tv_cache_bound = 4096

let cone_truth_vector ctx cone =
  let tv_cache = Domain.DLS.get tv_key in
  let key =
    Milo_library.Technology.name ctx.Rule.tech ^ ":" ^ Cone.digest ctx cone
  in
  match Hashtbl.find_opt tv_cache.tv_tbl key with
  | Some tv ->
      tv_cache.tv_hits <- tv_cache.tv_hits + 1;
      tv
  | None ->
      tv_cache.tv_misses <- tv_cache.tv_misses + 1;
      let n = List.length cone.Cone.leaves in
      let tv =
        Array.init (chunks_for n) (fun c ->
            Cone.eval_packed ctx cone (leaf_words cone.Cone.leaves c))
      in
      if Hashtbl.length tv_cache.tv_tbl >= tv_cache_bound then
        Hashtbl.reset tv_cache.tv_tbl;
      Hashtbl.replace tv_cache.tv_tbl key tv;
      tv

(* Truth vectors of the verifiable site outputs over their cone
   leaves.  Cones with no components (the driver is not an expandable
   combinational macro — e.g. micro-level kinds) are unverifiable
   here and left to the stage guard. *)
let snapshot_cones ctx nets =
  List.filter_map
    (fun nid ->
      match Cone.extract ctx ~max_leaves:guard_max_leaves nid with
      | Some cone when cone.Cone.comps <> [] ->
          Some (nid, cone.Cone.leaves, cone_truth_vector ctx cone)
      | Some _ | None -> None)
    nets

exception Unverifiable

(* Evaluate [nid]'s post-apply function under a packed leaf
   assignment (one word = [lanes] vectors), expanding through
   combinational macro drivers.  A net that is neither assigned nor
   expandable — or a combinational cycle — makes the comparison
   meaningless: [Unverifiable]. *)
let eval_after ctx assignment nid0 =
  let memo = Hashtbl.create 16 in
  let visiting = Hashtbl.create 16 in
  let rec value nid =
    match Hashtbl.find_opt memo nid with
    | Some v -> v
    | None ->
        if Hashtbl.mem visiting nid then raise Unverifiable;
        Hashtbl.replace visiting nid ();
        let v =
          match List.assoc_opt nid assignment with
          | Some v -> v
          | None -> (
              match Cone.expandable ctx nid with
              | Some (c, m) ->
                  let pvs =
                    List.map
                      (fun pin ->
                        ( pin,
                          match D.connection ctx.Rule.design c.D.id pin with
                          | Some n -> value n
                          | None -> 0 ))
                      m.Milo_library.Macro.inputs
                  in
                  let outs = Milo_sim.Eval.Packed.macro_comb_outputs m pvs in
                  List.assoc (List.nth m.Milo_library.Macro.outputs 0) outs
              | None -> raise Unverifiable)
        in
        Hashtbl.remove visiting nid;
        Hashtbl.replace memo nid v;
        v
  in
  value nid0

(* Compare the snapshot against the post-apply design.  Returns a
   human-readable description of the first divergence, or [None] when
   every verifiable net kept its function. *)
let check_snapshot ctx snaps =
  let describe nid assignment =
    let net_name =
      match D.net_opt ctx.Rule.design nid with
      | Some n -> n.D.nname
      | None -> string_of_int nid
    in
    let asg =
      String.concat ", "
        (List.map
           (fun (l, v) ->
             let nm =
               match D.net_opt ctx.Rule.design l with
               | Some n -> n.D.nname
               | None -> string_of_int l
             in
             Printf.sprintf "%s=%d" nm (if v then 1 else 0))
           assignment)
    in
    Printf.sprintf "net %s changed function under {%s}" net_name asg
  in
  let rec nets = function
    | [] -> None
    | (nid, leaves, tv) :: rest ->
        if D.net_opt ctx.Rule.design nid = None then nets rest
        else begin
          let n = List.length leaves in
          let total = 1 lsl n in
          let rec vec c =
            if c >= Array.length tv then None
            else
              let base = c * lanes in
              let live = min lanes (total - base) in
              let mask = if live >= lanes then -1 else (1 lsl live) - 1 in
              let assignment = leaf_words leaves c in
              match eval_after ctx assignment nid with
              | v ->
                  let diff = (v lxor tv.(c)) land mask in
                  if diff = 0 then vec (c + 1)
                  else
                    (* First mismatching lane, as a scalar witness. *)
                    let l = ref 0 in
                    while diff land (1 lsl !l) = 0 do
                      incr l
                    done;
                    let m = base + !l in
                    Some
                      (describe nid
                         (List.mapi
                            (fun i leaf -> (leaf, m lsr i land 1 <> 0))
                            leaves))
              | exception Unverifiable -> None
          in
          match vec 0 with Some d -> Some d | None -> nets rest
        end
  in
  nets snaps

(* Guard verdict of the most recent [guard_snapshot] decision, for the
   provenance recorder.  Read by [greedy_step] immediately after the
   winning commit-time apply — before cleanups run their own applies
   and overwrite it. *)
let last_verdict_key : Prov.verdict ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Prov.Unguarded)

let last_verdict () = Domain.DLS.get last_verdict_key

(* Snapshot decision for one application: [None] when no check should
   run (guard off, sampled out, or nothing verifiable at the site).

   Oracle workers never guard: their applications are scratch
   evaluations on forked snapshots whose results are discarded; only
   the coordinator's authoritative re-application of the merged winner
   is guarded (and ticks the sampling position), which is what keeps
   guard stats bit-identical across domain counts. *)
let guard_snapshot ctx r site =
  if in_worker () then begin
    last_verdict () := Prov.Unguarded;
    None
  end
  else
    match !(rule_guard ()) with
    | None ->
        last_verdict () := Prov.Unguarded;
        None
    | Some g ->
        if is_certified r.Rule.rule_name then begin
          g.rg_stats.Guard.rule_certified <- g.rg_stats.Guard.rule_certified + 1;
          last_verdict () := Prov.Certified;
          None
        end
        else if not (should_check g r) then begin
          g.rg_stats.Guard.rule_skipped <- g.rg_stats.Guard.rule_skipped + 1;
          last_verdict () := Prov.Skipped;
          None
        end
        else begin
          match snapshot_cones ctx (site_out_nets ctx site) with
          | [] ->
              g.rg_stats.Guard.rule_skipped <- g.rg_stats.Guard.rule_skipped + 1;
              last_verdict () := Prov.Skipped;
              None
          | snaps ->
              g.rg_stats.Guard.rule_checks <- g.rg_stats.Guard.rule_checks + 1;
              last_verdict () := Prov.Checked;
              Some (g, snaps)
        end

(* Match sites, treating a raising [find] as "no sites" (and
   quarantining the rule).  A quarantined rule matches nothing. *)
let guarded_find ctx (r : Rule.t) =
  if is_quarantined r.Rule.rule_name then []
  else
    match r.Rule.find ctx with
    | sites -> sites
    | exception ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e) ->
        raise e
    | exception e ->
        note_failure r e;
        []

(* Apply into a private sub-log so a failure rolls back exactly this
   rule's edits; on success the sub-log is spliced (newest first) into
   the caller's log so the caller's undo/commit semantics are intact.

   When the rule guard is armed, a successful apply is additionally
   re-simulated over the touched cone: a semantic divergence is
   treated exactly like a raising apply — rolled back and quarantined
   — except the reason recorded is [Miscompiled]. *)
let guarded_apply ctx (r : Rule.t) site log =
  (* Cooperative cancellation point: inside a supervised parallel task
     this heartbeats and raises [Pool.Cancelled] past the deadline —
     before any edit, so the task's scratch snapshot is abandoned
     cleanly.  A no-op on the authoritative path. *)
  Pool.poll ();
  if is_quarantined r.Rule.rule_name then false
  else
    let snap = guard_snapshot ctx r site in
    let local = D.new_log () in
    match
      let ok = r.Rule.apply ctx site local in
      if ok then lint_after ctx r.Rule.rule_name;
      ok
    with
    | ok -> (
        match
          match (ok, snap) with
          | true, Some (_, snaps) -> check_snapshot ctx snaps
          | (true | false), _ -> None
        with
        | None ->
            log := !local @ !log;
            ok
        | Some detail ->
            D.undo ctx.Rule.design local;
            (match snap with
            | Some (g, _) ->
                g.rg_stats.Guard.rule_mismatches <-
                  g.rg_stats.Guard.rule_mismatches + 1
            | None -> ());
            note_failure_msg ~reason:Miscompiled r ("miscompile: " ^ detail);
            if Prov.enabled () then
              Prov.debit ~kind:"miscompile" ~rule:r.Rule.rule_name;
            if Trace.enabled () then
              Trace.emit
                (Trace.Rule_miscompiled
                   { rule = r.Rule.rule_name; site = site.Rule.descr; detail });
            false)
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception Pool.Cancelled ->
        (* Not a rule failure: the task's deadline passed mid-apply.
           Undo this rule's edits and let the supervisor classify the
           task; the snapshot is discarded anyway. *)
        D.undo ctx.Rule.design local;
        raise Pool.Cancelled
    | exception e ->
        D.undo ctx.Rule.design local;
        note_failure r e;
        if Prov.enabled () then
          Prov.debit ~kind:"quarantine" ~rule:r.Rule.rule_name;
        false

(* --- Cleanup lookahead ---------------------------------------------------- *)

(* The Logic Consultant examines its high-priority cleanup rules after
   each regular rule application, Rete-style (Section 2.2.1): "once a
   test has been performed on a tree node, it is not redone until a
   change in data occurs upon which the attribute is dependent".

   Cleanup rules keep a locality contract (see [Rule.rule_class]): a
   component's site status depends only on the component and the nets
   on its pins, with their drivers and fanout.  So after a change log,
   a component can anchor a site only if it anchored one before (the
   [seed]: the components of every cleanup site of the committed
   design), or the log touched it, or it has a pin on a touched net.
   The finds scan just that focus, which grows with each cleanup's own
   edits; since a focused scan keeps the whole scan's order, the same
   sites fire in the same order as over the whole design.  Without a
   seed the focus is the whole design. *)

(* Components of every site the cleanups find over the whole current
   design: the seed of a greedy step, taken once on the committed
   design.  [None] when a find raises — the lookahead then scans the
   whole design, and quarantines the rule exactly where it did. *)
let cleanup_seed ctx cleanups =
  match
    List.concat_map
      (fun (r : Rule.t) ->
        if is_quarantined r.Rule.rule_name then []
        else List.concat_map (fun s -> s.Rule.site_comps) (r.Rule.find ctx))
      cleanups
  with
  | comps -> Some (List.sort_uniq compare comps)
  | exception ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e) ->
      raise e
  | exception _ -> None

(* Widen [focus] by the edits [entries] record: the touched components,
   and every component with a pin on a touched net — the nets the
   entries name, plus the nets of the touched components. *)
let widen_focus ctx focus entries =
  let design = ctx.Rule.design in
  let net nid =
    match D.net_opt design nid with
    | Some n -> List.iter (fun (cid, _) -> Hashtbl.replace focus cid ()) n.D.npins
    | None -> ()
  in
  let comp cid =
    Hashtbl.replace focus cid ();
    match D.comp_opt design cid with
    | Some c -> Hashtbl.iter (fun _ nid -> net nid) c.D.conns
    | None -> ()
  in
  List.iter
    (function
      | D.E_add_comp (cid, _, _) | D.E_set_kind (cid, _, _) -> comp cid
      | D.E_remove_comp (cid, _, _, saved) ->
          comp cid;
          List.iter (fun (_, nid) -> net nid) saved
      | D.E_connect (cid, _, prev, next) ->
          comp cid;
          Option.iter net prev;
          Option.iter net next
      | D.E_add_net (nid, _) | D.E_remove_net (nid, _, _) -> net nid)
    entries

(* The entries prepended to [log] since its head was [head]. *)
let since head log =
  let rec go l = if l == head then [] else match l with e :: r -> e :: go r | [] -> [] in
  go !log

(* Apply every applicable cleanup rule until none fires (bounded).  The
   budget counts successful applications only — dead or non-applying
   sites cost nothing — and once exhausted no further site is scanned.
   With a [seed] (see [cleanup_seed]) the design must be the seed's
   committed design plus exactly the edits in [log]. *)
let run_cleanups_in ?seed ctx cleanups log =
  let budget = ref (4 * (1 + D.num_comps ctx.Rule.design)) in
  let focus =
    Option.map
      (fun seed ->
        let tbl = Hashtbl.create 64 in
        List.iter (fun cid -> Hashtbl.replace tbl cid ()) seed;
        widen_focus ctx tbl !log;
        tbl)
      seed
  in
  let saved = !(ctx.Rule.focus) in
  ctx.Rule.focus := focus;
  Fun.protect ~finally:(fun () -> ctx.Rule.focus := saved) @@ fun () ->
  let fire r site =
    let head = !log in
    guarded_apply ctx r site log
    && begin
         decr budget;
         Option.iter (fun tbl -> widen_focus ctx tbl (since head log)) focus;
         true
       end
  in
  let rec pass () =
    let fired =
      List.exists
        (fun (r : Rule.t) ->
          !budget > 0
          && List.exists
               (fun site ->
                 !budget > 0 && Rule.site_alive ctx site && fire r site)
               (guarded_find ctx r))
        cleanups
    in
    if fired && !budget > 0 then pass ()
  in
  pass ()

(* Differential oracle for the focus: when armed, every seeded run is
   repeated over the whole design on an id-preserving copy taken before
   it, as an oracle worker (no rule guard, trace or provenance, its
   failures discarded), and the two must record the same entries and
   reach the same design digest.  The counts are atomic: seeded runs
   also happen inside worker tasks. *)
let debug_cleanups = Atomic.make false
let cleanup_checks = Atomic.make 0
let cleanup_seeded = Atomic.make 0
let cleanup_divergences : string list Atomic.t = Atomic.make []

let set_debug_cleanups v =
  Atomic.set cleanup_checks 0;
  Atomic.set cleanup_seeded 0;
  Atomic.set cleanup_divergences [];
  Atomic.set debug_cleanups v

let debug_cleanup_counts () =
  ( Atomic.get cleanup_checks,
    Atomic.get cleanup_seeded,
    List.rev (Atomic.get cleanup_divergences) )

let run_cleanups ?seed ctx cleanups log =
  match seed with
  | Some s when Atomic.get debug_cleanups ->
      let whole =
        {
          ctx with
          Rule.design = D.copy ctx.Rule.design;
          focus = ref None;
          measurer = ref None;
        }
      in
      let head = !log in
      run_cleanups_in ?seed ctx cleanups log;
      let wlog = D.new_log () in
      ignore (worker_task (fun () -> run_cleanups_in whole cleanups wlog));
      Atomic.incr cleanup_checks;
      if s <> [] then Atomic.incr cleanup_seeded;
      let focused = List.rev (since head log) in
      let digest = Milo_netlist.Hashcons.design_digest in
      if focused <> D.entries wlog || digest ctx.Rule.design <> digest whole.Rule.design
      then begin
        let msg =
          Printf.sprintf "%s: focused cleanups recorded %d entries, whole-design %d"
            (D.name ctx.Rule.design) (List.length focused)
            (List.length (D.entries wlog))
        in
        let rec push () =
          let old = Atomic.get cleanup_divergences in
          if not (Atomic.compare_and_set cleanup_divergences old (msg :: old)) then push ()
        in
        push ()
      end
  | Some _ | None -> run_cleanups_in ?seed ctx cleanups log

(* --- Measurer lock-step ------------------------------------------------ *)

(* When the context carries an incremental measurer, every measured
   apply/undo/commit must move it in lock-step with the design.  The
   protocol: after applying a log, [measure_step]; then either undo the
   design and [measure_drop], or commit and [measure_keep].  A failed
   advance (e.g. the candidate state is unmeasurable) yields
   [Measure_failed]: dropping it is free, keeping it forces a full
   resync since the committed edits were never folded in. *)

type mstep =
  | No_measurer
  | Measured of Milo_measure.Measure.token
  | Measure_failed

let measure_step ctx log =
  match !(ctx.Rule.measurer) with
  | None -> No_measurer
  | Some m -> (
      match Milo_measure.Measure.advance m (D.entries log) with
      | tok -> Measured tok
      | exception
          (( Out_of_memory | Stack_overflow
           | Milo_measure.Measure.Divergence _ ) as e) ->
          raise e
      | exception _ -> Measure_failed)

let measure_drop ctx step =
  match (step, !(ctx.Rule.measurer)) with
  | Measured tok, Some m -> Milo_measure.Measure.retreat m tok
  | (No_measurer | Measure_failed | Measured _), _ -> ()

let measure_keep ctx step =
  match (step, !(ctx.Rule.measurer)) with
  | Measured tok, Some m -> Milo_measure.Measure.commit m tok
  | Measure_failed, Some m ->
      Milo_measure.Measure.resync ~reason:"failed-advance-committed" m
  | (No_measurer | Measure_failed | Measured _), _ -> ()

type application = {
  rule : Rule.t;
  site : Rule.site;
  gain : float;  (** cost decrease including cleanups *)
}

(* Snapshot the incremental measurer's totals as a trace cost — only
   meaningful (and only called) when tracing is on. *)
let trace_cost ctx =
  match !(ctx.Rule.measurer) with
  | None -> None
  | Some m ->
      let c = Milo_measure.Measure.current m in
      Some { Trace.delay = c.delay; area = c.area; power = c.power }

(* Compact site identity for the provenance recorder, computed before
   the apply rewrites the site: the matched description plus the
   hash-consed kind spec of every live site component.  Two structurally
   identical sites reached through different histories digest equal. *)
let site_digest ctx (site : Rule.site) =
  let b = Buffer.create 64 in
  Buffer.add_string b site.Rule.descr;
  List.iter
    (fun cid ->
      match D.comp_opt ctx.Rule.design cid with
      | Some c ->
          Buffer.add_char b '|';
          Buffer.add_string b (Milo_netlist.Hashcons.kind_spec c.D.kind)
      | None -> ())
    site.Rule.site_comps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Candidate evaluation: apply rule + cleanups, measure, undo.  A cost
   function that fails on the candidate state (an unmappable or
   unmeasurable intermediate) rejects the candidate rather than
   aborting the pass — the design is restored first.

   When a tracer is installed, each evaluation is timed into the
   per-rule attribution table and the eval-latency histogram, and a
   rejected candidate emits a [Rule_refused] event naming the reason.
   [seed] focuses the cleanup lookahead (see [run_cleanups]). *)
let evaluate ?budget ?seed ctx ~cost ~cleanups (r : Rule.t) site =
  Pool.poll ();
  match budget with
  | Some b when Budget.exhausted b -> None
  | _ ->
      (match budget with Some b -> Budget.eval b | None -> ());
      let traced = Trace.enabled () in
      let t0 = if traced then Unix.gettimeofday () else 0.0 in
      let finish ?reason result =
        if traced then begin
          let dt = Unix.gettimeofday () -. t0 in
          Trace.sample "engine.eval_us" (dt *. 1e6);
          (match result with
          | Some gain ->
              Trace.note_rule ~rule:r.Rule.rule_name ~dt ~gain ~outcome:`Eval
          | None ->
              Trace.note_rule ~rule:r.Rule.rule_name ~dt ~gain:0.0
                ~outcome:`Refused);
          match reason with
          | Some reason ->
              Trace.emit
                (Trace.Rule_refused
                   { rule = r.Rule.rule_name; site = site.Rule.descr; reason })
          | None -> ()
        end;
        result
      in
      let before = cost () in
      let log = D.new_log () in
      if not (guarded_apply ctx r site log) then begin
        D.undo ctx.Rule.design log;
        finish ~reason:"apply-failed" None
      end
      else begin
        run_cleanups ?seed ctx cleanups log;
        match measure_step ctx log with
        | Measure_failed ->
            (* The candidate state is unmeasurable incrementally (e.g.
               unmapped): reject it, nothing to retreat. *)
            D.undo ctx.Rule.design log;
            finish ~reason:"unmeasurable" None
        | step -> (
            match cost () with
            | after ->
                D.undo ctx.Rule.design log;
                measure_drop ctx step;
                finish (Some (before -. after))
            | exception ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e)
              ->
                raise e
            | exception _ ->
                D.undo ctx.Rule.design log;
                measure_drop ctx step;
                finish ~reason:"cost-failed" None)
      end

(* Authoritative commit of a winning candidate: re-apply on the real
   design (under the rule guard), run cleanups, keep the measurer step,
   deposit the provenance note and commit.  Shared by the sequential
   and parallel greedy steps — in the parallel path this is the only
   place the winner touches the coordinator's design, so every
   observable side effect (trace, ledger, guard stats, journal entries)
   flows from the same code regardless of domain count. *)
let commit_app ?budget ?seed ctx ~cleanups (app : application) =
  let traced = Trace.enabled () in
  let prov = Prov.enabled () in
  let t0 = if traced then Unix.gettimeofday () else 0.0 in
  let before = if traced || prov then trace_cost ctx else None in
  let site = if prov then Some (site_digest ctx app.site) else None in
  let log = D.new_log () in
  if guarded_apply ctx app.rule app.site log then begin
    let verdict = !(last_verdict ()) in
    run_cleanups ?seed ctx cleanups log;
    measure_keep ctx (measure_step ctx log);
    (* Attribution note for the commit below: the measurer's totals
       are final here (cleanups measured, step kept), so [after] is
       exactly what the next kept application will see as [before]
       — the conservation invariant. *)
    if prov then
      Prov.pending ~design:ctx.Rule.design ~label:app.rule.Rule.rule_name
        ?site ~verdict ?before ?after:(trace_cost ctx) ();
    D.commit ~label:app.rule.Rule.rule_name ~design:ctx.Rule.design log;
    (match budget with Some b -> Budget.step b | None -> ());
    if traced then begin
      Trace.note_rule ~rule:app.rule.Rule.rule_name
        ~dt:(Unix.gettimeofday () -. t0)
        ~gain:app.gain ~outcome:`Applied;
      Trace.count "engine.applies" 1;
      Trace.emit ?before
        ?after:(trace_cost ctx)
        (Trace.Rule_applied
           {
             rule = app.rule.Rule.rule_name;
             site = app.site.Rule.descr;
             gain = app.gain;
           })
    end;
    Some app
  end
  else begin
    (* The winning rule failed on commit (it was just quarantined);
       everything it recorded is already rolled back. *)
    D.undo ctx.Rule.design log;
    if prov then Prov.debit ~kind:"rollback" ~rule:app.rule.Rule.rule_name;
    if traced then begin
      Trace.note_rule ~rule:app.rule.Rule.rule_name
        ~dt:(Unix.gettimeofday () -. t0)
        ~gain:0.0 ~outcome:`Rolled_back;
      Trace.emit
        (Trace.Rule_rolled_back
           { rule = app.rule.Rule.rule_name; site = app.site.Rule.descr })
    end;
    None
  end

(* One greedy step: evaluate all candidates, commit the best if it
   improves the cost.  Returns the applied candidate.  The cleanup seed
   is taken once, on the committed design every candidate starts from. *)
let greedy_step ?(min_gain = 1e-9) ?budget ctx ~cost ~cleanups rules =
  let candidates =
    List.concat_map
      (fun (r : Rule.t) ->
        List.map (fun site -> (r, site)) (guarded_find ctx r))
      rules
  in
  let seed = if candidates = [] then None else cleanup_seed ctx cleanups in
  let best =
    List.fold_left
      (fun acc (r, site) ->
        match evaluate ?budget ?seed ctx ~cost ~cleanups r site with
        | None -> acc
        | Some gain -> (
            match acc with
            | Some { gain = g; _ } when g >= gain -> acc
            | _ -> Some { rule = r; site; gain }))
      None candidates
  in
  match best with
  | Some app when app.gain > min_gain ->
      commit_app ?budget ?seed ctx ~cleanups app
  | Some _ | None -> None

(* --- Parallel greedy ------------------------------------------------- *)

(* One parallel greedy step.  The fan-out unit is the rule: candidates
   are found on the coordinator (sequential semantics, including
   find-failure quarantine), then each rule's site list is evaluated by
   one supervised task on a forked snapshot of the design.  Grouping by
   rule — never by domain count — is what keeps the merge deterministic:
   a rule that fails mid-task skips its own remaining sites exactly as
   the sequential pass would, and the (rule index, site ordinal) merge
   order plus the sequential tie-break (earlier candidate wins ties)
   reproduce the sequential winner whenever the measured gains agree.

   Workers are pure oracles: no trace, no provenance, no guard, no
   budget mutation.  The coordinator charges the budget (one eval per
   candidate, deterministically), imports deferred quarantine failures
   in task order, and re-applies only the merged winner through
   [commit_app] — the same authoritative path the sequential step
   uses.  The cleanup seed is taken on the coordinator and reaches the
   workers through their task closures: their forks keep its ids. *)
let greedy_step_par ?(min_gain = 1e-9) ?budget ~exec ~cost_factory ctx
    ~cleanups rules =
  match budget with
  | Some b when Budget.exhausted b -> None
  | _ ->
      let groups =
        List.filter_map
          (fun (r : Rule.t) ->
            match guarded_find ctx r with
            | [] -> None
            | sites -> Some (r, sites))
          rules
      in
      if groups = [] then None
      else begin
        (match budget with
        | Some b ->
            List.iter
              (fun (_, sites) -> List.iter (fun _ -> Budget.eval b) sites)
              groups
        | None -> ());
        let seed = cleanup_seed ctx cleanups in
        let tasks =
          List.map
            (fun ((r : Rule.t), sites) () ->
              worker_task (fun () ->
                  let wctx = Rule.fork_context ctx in
                  let wcost = cost_factory wctx in
                  List.map
                    (fun site -> evaluate ?seed wctx ~cost:wcost ~cleanups r site)
                    sites))
            groups
        in
        let groups = Array.of_list groups in
        let best = ref None in
        merge_tasks (Exec.map exec tasks)
          ~ok:(fun ti gains ->
            let (r : Rule.t), sites = groups.(ti) in
            List.iter2
              (fun site gain ->
                match gain with
                | None -> ()
                | Some gain -> (
                    match !best with
                    | Some { gain = g; _ } when g >= gain -> ()
                    | _ -> best := Some { rule = r; site; gain }))
              sites gains)
          ~failed:(fun ti fault ->
            (* The whole task is written off and its rule quarantined:
               a raising rule, a deadline overrun or a stall are all
               contained here, never escalated. *)
            note_failure_named ~reason:Raised (fst groups.(ti)).Rule.rule_name
              ("parallel task: " ^ Pool.fault_message fault));
        match !best with
        | Some app when app.gain > min_gain ->
            commit_app ?budget ?seed ctx ~cleanups app
        | Some _ | None -> None
      end

let greedy_pass ?(max_steps = 1000) ?budget ctx ~cost ~cleanups rules =
  let stop n =
    n >= max_steps
    || match budget with Some b -> Budget.exhausted b | None -> false
  in
  let rec go n acc =
    if stop n then List.rev acc
    else
      match greedy_step ?budget ctx ~cost ~cleanups rules with
      | Some app -> go (n + 1) (app :: acc)
      | None -> List.rev acc
  in
  go 0 []

(* Parallel greedy pass: [Sequential] plans take the legacy path
   byte-for-byte; [Inline] and [Pooled] plans share the fan-out step
   above, which is what makes [--domains 1] and [--domains N]
   bit-identical. *)
let greedy_pass_par ?(max_steps = 1000) ?budget ~exec ~cost_factory ctx ~cost
    ~cleanups rules =
  match (exec : Exec.t) with
  | Exec.Sequential -> greedy_pass ~max_steps ?budget ctx ~cost ~cleanups rules
  | Exec.Inline _ | Exec.Pooled _ ->
      let stop n =
        n >= max_steps
        || match budget with Some b -> Budget.exhausted b | None -> false
      in
      let rec go n acc =
        if stop n then List.rev acc
        else
          match greedy_step_par ?budget ~exec ~cost_factory ctx ~cleanups rules with
          | Some app -> go (n + 1) (app :: acc)
          | None -> List.rev acc
      in
      go 0 []
(* --- OPS-style strictly rule-based control --------------------------- *)

type ops_state = {
  fired : (string * int list, unit) Hashtbl.t;  (* refraction memory *)
  recency : (int, int) Hashtbl.t;  (* comp -> timestamp *)
  mutable clock : int;
}

let ops_create () =
  { fired = Hashtbl.create 256; recency = Hashtbl.create 256; clock = 0 }

let ops_recency st cid =
  Option.value ~default:0 (Hashtbl.find_opt st.recency cid)

let ops_touch st cids =
  st.clock <- st.clock + 1;
  List.iter (fun cid -> Hashtbl.replace st.recency cid st.clock) cids

(* One recognize-act cycle: conflict set = all (rule, site) matches;
   resolution: refraction, then recency of the matched components, then
   specificity (site size), then rule order.  Returns false when the
   conflict set is empty. *)
let ops_cycle ctx st rules =
  let conflict =
    List.concat_map
      (fun (r : Rule.t) ->
        List.filter_map
          (fun (site : Rule.site) ->
            let key = (r.Rule.rule_name, site.Rule.site_comps) in
            if Hashtbl.mem st.fired key then None else Some (r, site))
          (r.Rule.find ctx))
      rules
  in
  (* Third tie-break: rule order — the earlier a rule appears in the
     supplied list, the higher it scores. *)
  let rule_index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Rule.t) ->
      if not (Hashtbl.mem rule_index r.Rule.rule_name) then
        Hashtbl.replace rule_index r.Rule.rule_name i)
    rules;
  let score (r, (site : Rule.site)) =
    let rec_max =
      List.fold_left (fun acc c -> max acc (ops_recency st c)) 0
        site.Rule.site_comps
    in
    ( rec_max,
      List.length site.Rule.site_comps,
      -(Option.value ~default:max_int
          (Hashtbl.find_opt rule_index r.Rule.rule_name)) )
  in
  match conflict with
  | [] -> false
  | first :: rest ->
      let r, site =
        List.fold_left
          (fun acc cand -> if score cand > score acc then cand else acc)
          first rest
      in
      let log = D.new_log () in
      let applied = r.Rule.apply ctx site log in
      D.commit ~label:r.Rule.rule_name ~design:ctx.Rule.design log;
      if applied then lint_after ctx r.Rule.rule_name;
      Hashtbl.replace st.fired (r.Rule.rule_name, site.Rule.site_comps) ();
      if applied then ops_touch st site.Rule.site_comps;
      true

let ops_run ?(max_cycles = 2000) ctx rules =
  let st = ops_create () in
  let rec go n = if n >= max_cycles then n else if ops_cycle ctx st rules then go (n + 1) else n in
  go 0

(* Incremental recognize-act, the Rete discipline of Section 2.2.1:
   "once a test has been performed on a tree node, it is not redone
   until a change in data occurs upon which the attribute is dependent".
   The conflict set is computed once, then maintained incrementally:
   after a firing, only sites in the neighbourhood of the touched
   components are re-matched; stale sites are re-validated by [apply]
   itself (which refuses sites that no longer match). *)
let ops_run_incremental ?(max_cycles = 100000) ?(radius = 2) ctx rules =
  let st = ops_create () in
  let design = ctx.Rule.design in
  let conflict :
      (string * int list, Rule.t * Rule.site) Hashtbl.t =
    Hashtbl.create 1024
  in
  let add_sites () =
    List.iter
      (fun (r : Rule.t) ->
        List.iter
          (fun (site : Rule.site) ->
            let key = (r.Rule.rule_name, site.Rule.site_comps) in
            if not (Hashtbl.mem st.fired key) then
              Hashtbl.replace conflict key (r, site))
          (r.Rule.find ctx))
      rules
  in
  (* Initial full match. *)
  ctx.Rule.focus := None;
  add_sites ();
  let neighbourhood touched =
    let tbl = Hashtbl.create 32 in
    let rec expand frontier depth =
      if depth > radius then ()
      else begin
        let next = ref [] in
        List.iter
          (fun cid ->
            if not (Hashtbl.mem tbl cid) then begin
              Hashtbl.replace tbl cid ();
              match D.comp_opt design cid with
              | None -> ()
              | Some c ->
                  Hashtbl.iter
                    (fun _pin nid ->
                      match D.net_opt design nid with
                      | None -> ()
                      | Some net ->
                          List.iter
                            (fun (cid', _) ->
                              if not (Hashtbl.mem tbl cid') then
                                next := cid' :: !next)
                            net.D.npins)
                    c.D.conns
            end)
          frontier;
        expand !next (depth + 1)
      end
    in
    expand touched 0;
    tbl
  in
  let score (_, (site : Rule.site)) =
    let rec_max =
      List.fold_left (fun acc c -> max acc (ops_recency st c)) 0
        site.Rule.site_comps
    in
    (rec_max, List.length site.Rule.site_comps)
  in
  let cycles = ref 0 in
  let rec loop () =
    if !cycles >= max_cycles || Hashtbl.length conflict = 0 then ()
    else begin
      (* Select the best live site. *)
      let best = ref None in
      Hashtbl.iter
        (fun key entry ->
          match !best with
          | Some (_, bentry) when score bentry >= score entry -> ()
          | _ -> best := Some (key, entry))
        conflict;
      match !best with
      | None -> ()
      | Some (key, (r, site)) ->
          Hashtbl.remove conflict key;
          Hashtbl.replace st.fired key ();
          (* Re-test the pattern before firing (the Rete discipline): the
             design may have changed since the site entered the conflict
             set, and rule side conditions (fanout, connectivity) must
             still hold. *)
          let still_matches () =
            let tbl = Hashtbl.create 4 in
            List.iter (fun cid -> Hashtbl.replace tbl cid ()) site.Rule.site_comps;
            ctx.Rule.focus := Some tbl;
            let found = r.Rule.find ctx in
            ctx.Rule.focus := None;
            List.exists
              (fun (s : Rule.site) ->
                s.Rule.site_comps = site.Rule.site_comps
                && s.Rule.site_data = site.Rule.site_data)
              found
          in
          if Rule.site_alive ctx site && still_matches () then begin
            let log = D.new_log () in
            let applied = r.Rule.apply ctx site log in
            D.commit ~label:r.Rule.rule_name ~design:ctx.Rule.design log;
            if applied then begin
              lint_after ctx r.Rule.rule_name;
              incr cycles;
              ops_touch st site.Rule.site_comps;
              (* Re-match only around the touched components. *)
              let hood = neighbourhood site.Rule.site_comps in
              ctx.Rule.focus := Some hood;
              add_sites ();
              ctx.Rule.focus := None
            end
          end;
          loop ()
    end
  in
  loop ();
  !cycles