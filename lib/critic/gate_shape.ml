(* Recognizing gate shapes of library macros behaviourally (by truth
   table), so the same rules work on generic, ECL and CMOS macros
   regardless of naming. *)

module T = Milo_netlist.Types
module Macro = Milo_library.Macro
open Milo_boolfunc

type shape = { fn : T.gate_fn; arity : int }

(* The candidate functions of each arity with their truth tables, in
   match order, built once at module initialisation: shape queries run
   on every component of every cleanup and logic-rule [find], and
   an immutable table is safe to read from any domain. *)
let gate_tts =
  Array.init (Truth_table.max_vars + 1) (fun arity ->
      let fns =
        if arity = 0 then []
        else if arity = 1 then [ T.Inv; T.Buf ]
        else [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ]
      in
      List.map (fun fn -> (fn, Milo_library.Defs.gate_tt fn arity)) fns)

let of_macro (m : Macro.t) : shape option =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let arity = List.length m.Macro.inputs in
      if arity < 1 || arity > Truth_table.max_vars then None
      else
        List.find_map
          (fun (fn, gtt) ->
            if Truth_table.equal tt gtt then Some { fn; arity } else None)
          gate_tts.(arity)

let is_inv m =
  match of_macro m with Some { fn = T.Inv; _ } -> true | Some _ | None -> false

let is_buf m =
  match of_macro m with Some { fn = T.Buf; _ } -> true | Some _ | None -> false

let is_const (m : Macro.t) : bool option =
  match Macro.single_output_tt m with
  | Some tt when Truth_table.vars tt = 0 -> Truth_table.is_const tt
  | Some _ | None -> None

(* A macro implementing a 2:1 / 4:1 single-bit mux (D0.., S0.., Y). *)
let mux2_tt = Milo_library.Defs.mux_tt 2
let mux4_tt = Milo_library.Defs.mux_tt 4

let mux_inputs (m : Macro.t) : int option =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let check n mux_tt =
        List.length m.Macro.inputs = n + T.clog2 n
        && List.for_all (fun i -> List.mem (Printf.sprintf "D%d" i) m.Macro.inputs)
             (List.init n (fun i -> i))
        && Truth_table.equal tt mux_tt
      in
      if check 2 mux2_tt then Some 2 else if check 4 mux4_tt then Some 4 else None
