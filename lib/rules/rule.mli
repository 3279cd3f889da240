(** First-class rewrite rules over netlists: an antecedent ([find]) and
    a consequent ([apply]) that records an undoable changelog, grouped
    into the expert classes of Figure 17. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type rule_class = Logic | Timing | Area | Power | Electric | Cleanup | Micro
(** [Cleanup] rules keep a locality contract: whether a component
    anchors a site (is the first of its [site_comps]) depends only on
    the component and the nets on its pins, with those nets' drivers
    and fanout — radius one.  [Engine.run_cleanups] relies on it to
    re-match only around a change log. *)

val class_name : rule_class -> string

type context = {
  design : D.t;
  tech : Milo_library.Technology.t;
  set : Milo_compilers.Gate_comp.gate_set;
  resolve : D.resolver;
  focus : (int, unit) Hashtbl.t option ref;
      (** when set, rule matching only examines these components (the
          Rete-style incremental discipline of Section 2.2.1) *)
  measurer : Milo_measure.Measure.t option ref;
      (** when set (see [Engine]), the measured disciplines keep this
          incremental measurer in lock-step with the design and
          measurer-aware cost functions read it in O(1) *)
}

val make_context :
  ?extra_resolve:D.resolver ->
  Milo_library.Technology.t ->
  Milo_compilers.Gate_comp.gate_set ->
  D.t ->
  context

val fork_context : context -> context
(** An oracle-worker fork: id-preserving copy of the design (sites
    found on the original resolve identically on the fork), shared
    immutable technology/set/resolver, a fresh focus slot, and — when
    the original carries a measurer — a forked measurer over the copy
    ([Milo_measure.Measure.fork]; otherwise none).  Nothing done
    through the fork is visible through the original. *)

val scan_comps : context -> D.comp list
(** Components eligible for matching, in ascending id: all of them, or
    only the focus set's when one is set — so a focused scan is the
    whole scan filtered to the focus, in the same order. *)

val find_macro : context -> string -> Milo_library.Macro.t option
val macro_of : context -> D.comp -> Milo_library.Macro.t option

type site = { site_comps : int list; site_data : int list; descr : string }

val site : ?data:int list -> comps:int list -> string -> site

type t = {
  rule_name : string;
  rule_class : rule_class;
  find : context -> site list;
  apply : context -> site -> D.log -> bool;
}

val make :
  name:string ->
  cls:rule_class ->
  find:(context -> site list) ->
  apply:(context -> site -> D.log -> bool) ->
  t

(** {2 Helpers for rule implementations} *)

val macro_comps :
  context -> (D.comp -> Milo_library.Macro.t -> bool) -> D.comp list

val driver_comp : context -> int -> (D.comp * string) option
val fanout : context -> int -> int

val replace_macro :
  context -> D.log -> int -> string -> (string -> string option) -> unit
(** [replace_macro ctx log cid mname pin_map] swaps the component's kind
    and rewires each new pin from the old pin [pin_map] names. *)

val remove_comp_and_dangling : context -> D.log -> int -> unit
val merge_net_into : context -> D.log -> src:int -> dst:int -> unit
(** Move every pin from [src] to [dst]; caller must ensure [src] is not
    an externally visible port net (check {!net_is_port}). *)

val net_is_port : context -> int -> bool

(** Route [signal]'s value to the consumers of [old_net], coping with
    [signal] being an input-port net (merge direction flips) or both
    nets being port-bound (a buffer bridges them). *)
val reroute : context -> D.log -> signal:int -> old_net:int -> unit
val site_alive : context -> site -> bool
