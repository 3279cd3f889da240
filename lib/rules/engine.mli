(** The recognize–act engine: OPS-style strictly rule-based control
    (refraction / recency / specificity), and measured greedy control
    with cleanup-rule lookahead (the Logic Consultant's discipline). *)

module D = Milo_netlist.Design

type measure = Milo_measure.Measure.totals = {
  delay : float;
  area : float;
  power : float;
}

val pp_measure : Format.formatter -> measure -> unit

type objective = measure -> float

val weighted :
  ?w_delay:float -> ?w_area:float -> ?w_power:float -> unit -> objective

val measure_fn :
  Rule.context -> input_arrivals:(string * float) list -> unit -> measure
(** Timing/area/power of the current (technology-mapped) design. *)

exception Lint_violation of string * string
(** Raised in debug-lint mode when a rule application breaks a
    structural invariant: (rule name, lint report). *)

val set_debug_lint : bool -> unit
(** When enabled, the engine re-checks the structural lint invariants
    ([Milo_lint.Lint.structural_rules]) after every rule application
    and raises {!Lint_violation} naming the offending rule.  Costs a
    full design scan per application — debugging only.  Global; off by
    default. *)

type reason =
  | Raised  (** the rule's [apply] or [find] raised (or failed debug-lint) *)
  | Miscompiled
      (** the semantic guard caught the rule changing its site's
          function; the application was reverted *)

val reason_name : reason -> string
(** ["raised"] / ["miscompiled"]. *)

val quarantine_reset : unit -> unit
(** Clear the rule quarantine (call at the start of a flow run). *)

val is_quarantined : string -> bool

val quarantined : unit -> (string * int) list
(** Rules quarantined since the last reset, with the number of failed
    applications trapped for each, sorted by name.  A rule is
    quarantined when its [apply] (or [find]) raises, or when debug-lint
    flags its result, inside a measured pass: the offending edits are
    rolled back through the change log and the rule matches nothing for
    the rest of the run, instead of the exception aborting the pass. *)

val quarantined_errors : unit -> (string * string) list
(** For each quarantined rule, the message of the {e first} exception
    trapped from it (later failures only bump the count) — the raw
    material for [Report.partial_summary]'s diagnosis lines.  Sorted by
    name. *)

val quarantined_reasons : unit -> (string * reason) list
(** Why each quarantined rule was quarantined (the reason of its first
    trapped failure).  Sorted by name. *)

val quarantine_dump : unit -> (string * int * string * reason) list
(** Full quarantine image — rule, trapped-failure count, first error
    message, reason — sorted by name.  Journaled at flow checkpoints so
    a resumed run can restore it. *)

val quarantine_restore : (string * int * string * reason) list -> unit
(** Replace the quarantine with a recorded image (journal resume). *)

val note_failure_named : reason:reason -> string -> string -> unit
(** [note_failure_named ~reason key msg] quarantines [key] directly —
    used by the strategy layer to quarantine whole strategies
    (["strategy:NAME"]) when their parallel task faults.  Inside an
    oracle worker the failure is deferred into the worker's buffer
    like any rule failure. *)

(** {2 Parallel oracle workers}

    The parallel fan-out runs candidate evaluations as supervised
    tasks on forked design snapshots ({!Rule.fork_context}), each
    measured by a fork of the context's measurer when it has one.  Inside
    {!worker_task}, the engine's observable machinery is suspended:
    tracing and provenance are suppressed on the domain, the rule
    guard short-circuits (verdict [Unguarded], no stats ticks), and
    quarantine writes are deferred into a per-task buffer the
    coordinator imports in task order.  Only the merged winner is then
    re-applied authoritatively on the coordinator — which is what
    keeps every observable stream bit-identical across domain
    counts. *)

val worker_task :
  (unit -> 'a) -> ('a, string) result * (string * string * reason) list
(** Run a task body in oracle-worker mode; returns its value and the
    deferred failures (oldest first) as [(rule, message, reason)].  A
    {!Milo_measure.Measure.Divergence} raised by the body (the debug
    oracle on the fork's measurer) comes back as [Error message]
    instead of a task fault, for {!merge_tasks} to re-raise. *)

val merge_tasks :
  (('a, string) result * (string * string * reason) list)
  Milo_parallel.Pool.outcome
  array ->
  ok:(int -> 'a -> unit) ->
  failed:(int -> Milo_parallel.Pool.fault -> unit) ->
  unit
(** The coordinator's merge of a {!worker_task} fan-out.  In task
    order: folds each finished task's deferred failures into the global
    quarantine and passes its index and value to [ok], or its index and
    fault to [failed].  Then, if any task carried a divergence, raises
    {!Milo_measure.Measure.Divergence} with the first one's message. *)

(** {2 Semantic rule guard}

    When armed, every successful [guarded_apply] may be re-simulated
    over the touched cone (truth vectors of the site's output nets
    over their fan-in leaves, before vs after).  A divergence is
    rolled back and the rule quarantined with reason {!Miscompiled}.
    The check is conservative: sites whose new structure cannot be
    evaluated over the old leaves are skipped (the flow's stage guards
    backstop them), so a sound rule is never quarantined. *)

val set_rule_guard :
  ?budget:Budget.t -> ?stats:Milo_guard.Guard.stats ->
  Milo_guard.Guard.policy -> unit
(** Arm (or, with [Off], disarm) the rule guard.  [Sampled] checks the
    first application of each rule and then every 16th opportunity,
    and stops checking once [budget] is exhausted; [Full] checks every
    application.  Counters accumulate into [stats] when given.
    Global, like the quarantine; the flow sets and clears it per
    run. *)

val clear_rule_guard : unit -> unit

val rule_guard_stats : unit -> Milo_guard.Guard.stats option
(** Counters of the currently armed rule guard, if any. *)

val guard_sample_state : unit -> (int * string list) option
(** The [Sampled] tier's deterministic position — tick counter and the
    set of rules already checked once — journaled at flow checkpoints;
    [None] when no rule guard is armed. *)

val restore_guard_sample_state : int -> string list -> unit
(** Re-enter the sampling sequence at a recorded position (journal
    resume).  No-op when no rule guard is armed. *)

(** {2 Certified rules}

    Rules holding a static Certified certificate (proved sound offline
    by [Milo_absint.Certify]: exhaustive truth-table enumeration over
    their rewrite cones).  Their applications skip the dynamic cone
    re-simulation entirely — counted in [stats.rule_certified] — so a
    [Full] rule guard costs only the flow's stage-boundary checks.
    Probabilistic and Uncertified rules keep the dynamic check.  The
    store holds names only (certification lives above this layer) and
    is global like the quarantine; the flow installs and clears it per
    run.  Quarantine still dominates a certificate. *)

val set_certified : string list -> unit
(** Replace the certified-rule store with the given rule names. *)

val clear_certified : unit -> unit
val is_certified : string -> bool

val certified_rules : unit -> string list
(** Currently installed certified rule names, sorted. *)

val guarded_find : Rule.context -> Rule.t -> Rule.site list
(** [find] with quarantine: a raising or quarantined rule matches
    nothing. *)

val guarded_apply : Rule.context -> Rule.t -> Rule.site -> D.log -> bool
(** Transactional [apply]: edits go to a private sub-log, spliced into
    the given log on success; on an exception (or a debug-lint
    violation) the edits are undone, the rule is quarantined and the
    result is [false]. *)

val cleanup_seed : Rule.context -> Rule.t list -> int list option
(** The components of every site the (unquarantined) cleanup rules find
    over the whole current design, sorted — the focus a greedy step
    seeds its cleanup lookahead with, taken once on the committed
    design.  [None] when a [find] raises: the lookahead then scans the
    whole design. *)

val run_cleanups : ?seed:int list -> Rule.context -> Rule.t list -> D.log -> unit
(** Fire applicable cleanup rules to a bounded fixpoint, recording into
    the same log.  The bound charges successful applications only.

    With a [seed] from {!cleanup_seed} — taken on the design as it was
    before the edits already in the log — the rules' finds scan only a
    focus: the seed, the components the log touched, and every
    component with a pin on a touched net, widened by each cleanup's
    own edits.  By the [Cleanup] locality contract ({!Rule.rule_class})
    that fires the same sites in the same order as a whole-design scan.
    Without a seed the focus is the whole design. *)

val set_debug_cleanups : bool -> unit
(** Differential oracle for the focused lookahead: when armed, every
    seeded {!run_cleanups} is repeated over the whole design on a copy
    (rule guard, trace and provenance suspended) and the two must
    record the same entries and reach the same
    [Hashcons.design_digest].  Resets the counts below.  Global; off by
    default; for tests. *)

val debug_cleanup_counts : unit -> int * int * string list
(** Since the oracle was last (re)armed: seeded runs checked, those
    whose seed was non-empty (the committed design still had cleanup
    sites), and one message per divergence, oldest first. *)

(** {2 Incremental measurement lock-step}

    When [ctx.measurer] is set (see [Milo_measure.Measure]), the
    measured disciplines keep it synchronized with the design.  After
    applying edits into a log, call {!measure_step}; then pair
    [D.undo]+{!measure_drop} or [D.commit]+{!measure_keep}. *)

type mstep =
  | No_measurer  (** context carries no measurer: nothing to sync *)
  | Measured of Milo_measure.Measure.token
  | Measure_failed
      (** the advance raised (unmeasurable candidate state); dropping
          is free, keeping forces a full resync *)

val measure_step : Rule.context -> D.log -> mstep
(** Fold the log's entries into the context's measurer, if any.
    [Out_of_memory], [Stack_overflow] and [Measure.Divergence]
    propagate; any other failure yields [Measure_failed] with the
    measurer state unchanged. *)

val measure_drop : Rule.context -> mstep -> unit
(** After [D.undo] of the same log: retreat the measurer exactly. *)

val measure_keep : Rule.context -> mstep -> unit
(** After [D.commit] of the same log: keep the advanced state
    (resyncing from scratch if the step had failed). *)

type application = { rule : Rule.t; site : Rule.site; gain : float }

val evaluate :
  ?budget:Budget.t ->
  ?seed:int list ->
  Rule.context ->
  cost:(unit -> float) ->
  cleanups:Rule.t list ->
  Rule.t ->
  Rule.site ->
  float option
(** Gain of applying the rule (with cleanups) at the site: apply,
    measure, undo.  Counts one evaluation against [budget] and returns
    [None] without applying once the budget is exhausted.  [seed]
    focuses the cleanup lookahead ({!run_cleanups}); the design must be
    the one it was taken on. *)

val greedy_step :
  ?min_gain:float ->
  ?budget:Budget.t ->
  Rule.context ->
  cost:(unit -> float) ->
  cleanups:Rule.t list ->
  Rule.t list ->
  application option

val greedy_pass :
  ?max_steps:int ->
  ?budget:Budget.t ->
  Rule.context ->
  cost:(unit -> float) ->
  cleanups:Rule.t list ->
  Rule.t list ->
  application list
(** Greedy steps until quiescence, [max_steps], or the budget is
    exhausted — in the last case the pass stops cleanly with the
    applications committed so far. *)

val greedy_step_par :
  ?min_gain:float ->
  ?budget:Budget.t ->
  exec:Milo_parallel.Exec.t ->
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  application option
(** One parallel greedy step: candidates are found on the coordinator,
    each rule's sites are evaluated by one supervised task on a forked
    snapshot ([cost_factory] builds the worker's cost function over
    the fork), and the merged winner — (rule index, site ordinal)
    order, sequential tie-break — is re-applied authoritatively.  A
    faulting task quarantines its rule; the step never raises from a
    task and never hangs on one. *)

val greedy_pass_par :
  ?max_steps:int ->
  ?budget:Budget.t ->
  exec:Milo_parallel.Exec.t ->
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cost:(unit -> float) ->
  cleanups:Rule.t list ->
  Rule.t list ->
  application list
(** {!greedy_pass} with a parallel execution plan.  A [Sequential]
    plan takes the legacy path byte-for-byte (using [cost]); [Inline]
    and [Pooled] plans share {!greedy_step_par}, which is what makes
    [--domains 1] and [--domains N] produce identical results. *)

type ops_state

val ops_create : unit -> ops_state
val ops_cycle : Rule.context -> ops_state -> Rule.t list -> bool
val ops_run : ?max_cycles:int -> Rule.context -> Rule.t list -> int
(** Run recognize–act to quiescence; returns the cycle count. *)

val ops_run_incremental :
  ?max_cycles:int -> ?radius:int -> Rule.context -> Rule.t list -> int
(** Recognize–act with Rete-style incremental matching: after each
    firing, only the neighbourhood of the touched components is
    re-examined; a full scan runs only to confirm quiescence. *)
