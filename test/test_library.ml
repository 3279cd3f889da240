(* Macro library tests: well-formedness of all three libraries, the
   truth-table function index, power variants. *)

module T = Milo_netlist.Types
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology
open Milo_boolfunc

let libs () = [ Util.generic (); Util.ecl (); Util.cmos () ]

let test_macro_wellformed () =
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          let name = Printf.sprintf "%s/%s" (Tech.name tech) m.Macro.mname in
          (* pin names unique *)
          let pins = List.map fst m.Macro.pins in
          Alcotest.(check int) (name ^ " unique pins")
            (List.length pins)
            (List.length (List.sort_uniq compare pins));
          (* every arc references real pins *)
          List.iter
            (fun ((i, o), d) ->
              Alcotest.(check bool) (name ^ " arc pins") true
                (List.mem i m.Macro.inputs && List.mem o m.Macro.outputs);
              Alcotest.(check bool) (name ^ " arc delay >= 0") true (d >= 0.0))
            m.Macro.arcs;
          Alcotest.(check bool) (name ^ " area >= 0") true (m.Macro.area >= 0.0);
          Alcotest.(check bool) (name ^ " power >= 0") true (m.Macro.power >= 0.0);
          (* combinational macros must have an arc from every input *)
          if not (Macro.is_sequential m) then
            List.iter
              (fun i ->
                Alcotest.(check bool)
                  (name ^ " input " ^ i ^ " has arc")
                  true
                  (List.exists (fun ((i', _), _) -> i' = i) m.Macro.arcs
                  || m.Macro.inputs = []))
              m.Macro.inputs)
        (Tech.all tech))
    (libs ())

let test_behavior_arity () =
  (* eval_comb accepts exactly the declared inputs and produces the
     declared outputs. *)
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          if not (Macro.is_sequential m) then begin
            let input = Array.make (List.length m.Macro.inputs) false in
            let out = Macro.eval_comb m input in
            Alcotest.(check int)
              (Printf.sprintf "%s output arity" m.Macro.mname)
              (List.length m.Macro.outputs)
              (Array.length out)
          end)
        (Tech.all tech))
    (libs ())

let test_single_output_tt_consistent () =
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          match Macro.single_output_tt m with
          | None -> ()
          | Some tt ->
              let n = List.length m.Macro.inputs in
              for v = 0 to (1 lsl n) - 1 do
                let input = Array.init n (fun i -> v land (1 lsl i) <> 0) in
                Alcotest.(check bool)
                  (Printf.sprintf "%s tt vs eval" m.Macro.mname)
                  (Macro.eval_comb m input).(0)
                  (Truth_table.eval tt input)
              done)
        (Tech.all tech))
    (libs ())

let test_power_variants () =
  let ecl = Util.ecl () in
  (* every high-power variant is strictly faster and hungrier *)
  List.iter
    (fun (m : Macro.t) ->
      match Tech.high_power_variant ecl m.Macro.mname with
      | None -> ()
      | Some hv ->
          Alcotest.(check bool)
            (m.Macro.mname ^ " H faster")
            true
            (Macro.worst_delay hv < Macro.worst_delay m);
          Alcotest.(check bool)
            (m.Macro.mname ^ " H hungrier")
            true
            (hv.Macro.power > m.Macro.power);
          (* same function *)
          (match (Macro.single_output_tt m, Macro.single_output_tt hv) with
          | Some a, Some b ->
              Alcotest.(check bool) (m.Macro.mname ^ " same fn") true
                (Truth_table.equal a b)
          | _ -> ());
          (* and the variant maps back *)
          (match Tech.standard_variant ecl hv.Macro.mname with
          | Some back ->
              Alcotest.(check string) "round trip" m.Macro.mname back.Macro.mname
          | None -> Alcotest.fail "missing standard variant"))
    (Tech.all ecl)

let test_cmos_has_no_variants () =
  let cmos = Util.cmos () in
  List.iter
    (fun (m : Macro.t) ->
      Alcotest.(check bool) (m.Macro.mname ^ " no HP in CMOS") true
        (Tech.high_power_variant cmos m.Macro.mname = None))
    (Tech.all cmos)

let test_matches_for () =
  let ecl = Util.ecl () in
  (* 2-input OR matches E_OR2 (and its variants) with some permutation *)
  let or2 = Truth_table.of_fun 2 (fun a -> a.(0) || a.(1)) in
  let ms = Tech.matches_for ecl or2 in
  Alcotest.(check bool) "or2 found" true
    (List.exists (fun (m, _) -> m.Macro.mname = "E_OR2") ms);
  (* asymmetric function: (a + b) c, matches E_OA21 under permutation *)
  let oa = Truth_table.of_fun 3 (fun a -> (a.(1) || a.(2)) && a.(0)) in
  let ms = Tech.matches_for ecl oa in
  (match List.find_opt (fun (m, _) -> m.Macro.mname = "E_OA21") ms with
  | Some (m, perm) ->
      (* applying the permutation must reproduce the macro's table *)
      let mtt = Option.get (Macro.single_output_tt m) in
      Alcotest.(check bool) "perm correct" true
        (Truth_table.equal (Truth_table.permute oa perm) mtt)
  | None -> Alcotest.fail "OA21 not matched")

let test_gate_arities () =
  let ecl = Util.ecl () in
  Alcotest.(check (list int)) "E_OR arities" [ 2; 3; 4; 5 ]
    (Tech.gate_arities ecl "E_OR");
  let cmos = Util.cmos () in
  Alcotest.(check (list int)) "C_NAND arities" [ 2; 3; 4 ]
    (Tech.gate_arities cmos "C_NAND")

let test_figure13_coverage () =
  (* The generic library carries everything Figure 13 lists. *)
  let lib = Util.generic () in
  let required =
    [ "AND2"; "AND3"; "AND4"; "OR2"; "OR3"; "OR4"; "NAND2"; "NAND3"; "NAND4";
      "NOR2"; "NOR3"; "NOR4"; "XOR2"; "XOR3"; "XOR4"; "XNOR2"; "XNOR3";
      "XNOR4"; "INV"; "BUF"; "VDD"; "VSS"; "MUX2"; "MUX4"; "DEC1x2"; "DEC2x4";
      "ADD1"; "ADD4"; "ADD4CLA"; "CMP2"; "CMP4"; "CNT2"; "CNT4"; "DFF";
      "DFF_R"; "DFF_S"; "DFF_SR"; "DFFN"; "DLATCH"; "DLATCH_R" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Tech.mem lib name))
    required

(* The precomputed-table shape recognizer agrees with recomputing each
   candidate gate's truth table in match order, on every macro of the
   three libraries; and it recognizes gates in each (not vacuous). *)
let test_gate_shape_tables () =
  let module GS = Milo_critic.Gate_shape in
  List.iter
    (fun tech ->
      let recognized = ref 0 in
      List.iter
        (fun (m : Macro.t) ->
          let name = Printf.sprintf "%s/%s" (Tech.name tech) m.Macro.mname in
          let arity = List.length m.Macro.inputs in
          let want =
            match Macro.single_output_tt m with
            | Some tt when arity >= 1 && arity <= Truth_table.max_vars ->
                List.find_map
                  (fun fn ->
                    if Truth_table.equal tt (Milo_library.Defs.gate_tt fn arity)
                    then Some fn
                    else None)
                  (if arity = 1 then [ T.Inv; T.Buf ]
                   else [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ])
            | Some _ | None -> None
          in
          let got =
            Option.map (fun (s : GS.shape) -> s.GS.fn) (GS.of_macro m)
          in
          if got <> None then incr recognized;
          Alcotest.(check bool) (name ^ " of_macro") true (got = want);
          (match GS.of_macro m with
          | Some s -> Alcotest.(check int) (name ^ " arity") arity s.GS.arity
          | None -> ());
          let want_mux =
            match Macro.single_output_tt m with
            | Some tt ->
                List.find_opt
                  (fun n ->
                    arity = n + T.clog2 n
                    && List.for_all
                         (fun i ->
                           List.mem (Printf.sprintf "D%d" i) m.Macro.inputs)
                         (List.init n Fun.id)
                    && Truth_table.equal tt (Milo_library.Defs.mux_tt n))
                  [ 2; 4 ]
            | None -> None
          in
          Alcotest.(check (option int)) (name ^ " mux_inputs") want_mux
            (GS.mux_inputs m))
        (Tech.all tech);
      Alcotest.(check bool)
        (Tech.name tech ^ " recognizes gates")
        true (!recognized > 0))
    (libs ())

let () =
  Alcotest.run "library"
    [
      ( "wellformed",
        [
          Alcotest.test_case "pins/arcs/areas" `Quick test_macro_wellformed;
          Alcotest.test_case "behavior arity" `Quick test_behavior_arity;
          Alcotest.test_case "tt consistency" `Quick
            test_single_output_tt_consistent;
          Alcotest.test_case "figure 13 coverage" `Quick test_figure13_coverage;
        ] );
      ( "variants",
        [
          Alcotest.test_case "high power (ECL)" `Quick test_power_variants;
          Alcotest.test_case "none in CMOS" `Quick test_cmos_has_no_variants;
        ] );
      ( "function-index",
        [
          Alcotest.test_case "matches_for" `Quick test_matches_for;
          Alcotest.test_case "gate arities" `Quick test_gate_arities;
        ] );
      ( "gate-shape",
        [
          Alcotest.test_case "table matches recomputation" `Quick
            test_gate_shape_tables;
        ] );
    ]
