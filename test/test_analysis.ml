(* Tests for the static-analysis pass: the diagnostics core, the
   electrical/CML rule checker, the DFT-coverage audit, the SCOAP
   testability metrics (against hand-computed goldens) and the
   pre-flight gate. *)

module A = Cml_analysis
module D = A.Diagnostic
module N = Cml_spice.Netlist
module W = Cml_spice.Waveform
module B = Cml_cells.Builder
module C = Cml_logic.Circuit

let has_rule id ds = List.exists (fun (d : D.t) -> d.D.rule = id) ds

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec scan i = i + lsub <= ls && (String.sub s i lsub = sub || scan (i + 1)) in
  scan 0

let check_rule name id ds =
  if not (has_rule id ds) then
    Alcotest.failf "%s: expected %s in:\n%s" name id (D.render_text ds)

let check_no_rule name id ds =
  if has_rule id ds then Alcotest.failf "%s: unexpected %s in:\n%s" name id (D.render_text ds)

let check_no_errors name ds =
  if D.count D.Error ds > 0 then Alcotest.failf "%s: unexpected errors:\n%s" name (D.render_text ds)

(* ------------------------------------------------------------------ *)
(* diagnostics core *)

let test_sort_by_severity () =
  let d sev rule = D.make ~rule sev D.Toplevel "m" in
  let sorted = D.sort [ d D.Info "Z"; d D.Error "A"; d D.Warning "B" ] in
  Alcotest.(check (list string)) "severity order" [ "error"; "warning"; "info" ]
    (List.map (fun (x : D.t) -> D.severity_name x.D.severity) sorted)

let test_sort_deterministic_within_severity () =
  let d rule loc = D.make ~rule D.Error (D.Node loc) "m" in
  let a = [ d "ERC002" "b"; d "ERC001" "a"; d "ERC002" "a" ] in
  let b = [ d "ERC002" "a"; d "ERC002" "b"; d "ERC001" "a" ] in
  Alcotest.(check bool) "order independent of input order" true (D.sort a = D.sort b);
  Alcotest.(check (list string)) "rule then location" [ "ERC001"; "ERC002"; "ERC002" ]
    (List.map (fun (x : D.t) -> x.D.rule) (D.sort a))

let test_to_string_format () =
  let d = D.make ~rule:"ERC001" D.Error (D.Node "x3.ce") "floating" in
  Alcotest.(check string) "one-line form" "error[ERC001] node x3.ce: floating" (D.to_string d)

let test_render_text_summary () =
  let ds =
    [ D.make ~rule:"A" D.Error D.Toplevel "e"; D.make ~rule:"B" D.Warning (D.Group 2) "w" ]
  in
  let text = D.render_text ds in
  Alcotest.(check bool) "summary line" true (contains text "1 error(s), 1 warning(s), 0 info");
  Alcotest.(check bool) "group location" true (contains text "group 2")

let test_render_json_escapes () =
  let d = D.make ~rule:"T001" D.Error (D.Node {|n"1|}) "bad \"value\"\nline2" in
  let json = D.render_json [ d ] in
  Alcotest.(check bool) "quote escaped" true (contains json {|n\"1|});
  Alcotest.(check bool) "newline escaped" true (contains json {|\nline2|});
  Alcotest.(check bool) "counts" true (contains json {|"errors":1,"warnings":0,"infos":0|})

let test_worst_and_count () =
  let ds = [ D.make ~rule:"A" D.Info D.Toplevel "i"; D.make ~rule:"B" D.Warning D.Toplevel "w" ] in
  Alcotest.(check bool) "worst is warning" true (D.worst ds = Some D.Warning);
  Alcotest.(check int) "info count" 1 (D.count D.Info ds);
  Alcotest.(check bool) "empty worst" true (D.worst [] = None)

let test_rule_catalog () =
  let ids = List.map (fun (r : A.Rules.info) -> r.A.Rules.id) A.Rules.all in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (r : A.Rules.info) ->
      match A.Rules.find r.A.Rules.id with
      | Some r' -> Alcotest.(check string) "find roundtrip" r.A.Rules.id r'.A.Rules.id
      | None -> Alcotest.failf "catalog misses %s" r.A.Rules.id)
    A.Rules.all;
  (match A.Rules.find A.Rules.erc_floating_node with
  | Some r -> Alcotest.(check bool) "ERC001 is an error" true (r.A.Rules.severity = D.Error)
  | None -> Alcotest.fail "ERC001 not in catalog");
  Alcotest.(check bool) "unknown id" true (A.Rules.find "NOPE999" = None)

(* ------------------------------------------------------------------ *)
(* electrical rules on seeded-bad netlists *)

let test_erc_floating_node () =
  let net = N.create () in
  let a = N.node net "a" in
  let b = N.node net "b" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r1" a b 100.0;
  let ds = A.Lint.netlist net in
  check_rule "floating" A.Rules.erc_floating_node ds;
  check_no_rule "floating suppresses dc-path" A.Rules.erc_no_dc_path ds

let test_erc_no_dc_path () =
  let net = N.create () in
  N.vsource net ~name:"v1" ~pos:(N.node net "a") ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"rload" (N.node net "a") N.gnd 50.0;
  (* an island: two resistors between b and c, nothing to ground *)
  N.resistor net ~name:"r1" (N.node net "b") (N.node net "c") 100.0;
  N.resistor net ~name:"r2" (N.node net "b") (N.node net "c") 100.0;
  let ds = A.Lint.netlist net in
  check_rule "island" A.Rules.erc_no_dc_path ds;
  check_no_rule "island is not floating" A.Rules.erc_floating_node ds

let test_erc_capacitor_is_not_a_dc_path () =
  let net = N.create () in
  let a = N.node net "a" in
  let b = N.node net "b" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.capacitor net ~name:"c1" a b 1e-12;
  N.capacitor net ~name:"c2" b N.gnd 1e-12;
  check_rule "ac-coupled node" A.Rules.erc_no_dc_path (A.Lint.netlist net)

let test_erc_duplicate_names () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"Ra" a N.gnd 100.0;
  N.resistor net ~name:"rA" a N.gnd 200.0;
  check_rule "case-insensitive collision" A.Rules.erc_duplicate_name (A.Lint.netlist net)

let test_erc_nonpositive_resistance () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r1" a N.gnd 0.0;
  check_rule "zero ohm" A.Rules.erc_nonpositive_resistance (A.Lint.netlist net)

let test_erc_negative_capacitance () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r1" a N.gnd 50.0;
  N.capacitor net ~name:"c1" a N.gnd (-1e-12);
  check_rule "negative cap" A.Rules.erc_negative_capacitance (A.Lint.netlist net)

let test_erc_vsource_loop () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.vsource net ~name:"v2" ~pos:a ~neg:N.gnd (W.Dc 2.0);
  N.resistor net ~name:"r1" a N.gnd 50.0;
  check_rule "parallel sources" A.Rules.erc_vsource_loop (A.Lint.netlist net)

(* ------------------------------------------------------------------ *)
(* CML design rules on a mutated buffer cell *)

let buffer_builder () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"din" ~value:true in
  let (_ : B.diff) = Cml_cells.Buffer_cell.add b ~name:"x1" ~input in
  b

let scale_resistor net name k =
  match N.get_device net name with
  | N.Resistor { name; n1; n2; r } -> N.set_device net name (N.Resistor { name; n1; n2; r = r *. k })
  | _ -> Alcotest.failf "%s is not a resistor" name

let test_cml_buffer_baseline_clean () =
  let b = buffer_builder () in
  let ds = A.Lint.netlist b.B.net in
  check_no_errors "fault-free buffer" ds;
  Alcotest.(check int) "no warnings either" 0 (D.count D.Warning ds)

let test_cml_mismatched_loads () =
  let b = buffer_builder () in
  scale_resistor b.B.net "x1.r1" 1.2;
  let ds = A.Lint.netlist b.B.net in
  check_rule "load mismatch" A.Rules.cml_mismatched_loads ds;
  check_no_rule "equal-swing rule quiet" A.Rules.cml_swing_window ds

let test_cml_missing_tail () =
  let b = buffer_builder () in
  N.remove_device b.B.net "x1.q3";
  check_rule "no tail source" A.Rules.cml_missing_tail (A.Lint.netlist b.B.net)

let test_cml_swing_window () =
  let b = buffer_builder () in
  scale_resistor b.B.net "x1.r1" 10.0;
  scale_resistor b.B.net "x1.r2" 10.0;
  let ds = A.Lint.netlist b.B.net in
  check_rule "oversized swing" A.Rules.cml_swing_window ds;
  check_no_rule "loads still matched" A.Rules.cml_mismatched_loads ds;
  check_no_errors "swing is a warning" ds

let instrumented_chain ?multi_emitter ~stages () =
  let chain = Cml_cells.Chain.build ~stages ~freq:100e6 () in
  let builder = chain.Cml_cells.Chain.builder in
  let plan = Cml_dft.Insertion.instrument ?multi_emitter builder in
  (plan, builder)

let test_cml_vtest_unrouted () =
  let _plan, builder = instrumented_chain ~stages:3 () in
  check_no_errors "instrumented chain baseline" (A.Lint.netlist builder.B.net);
  N.rewire_terminal builder.B.net ~dev:"ro0.det0.q45" ~terminal:"b" N.gnd;
  check_rule "sensor base off the rail" A.Rules.cml_vtest_unrouted (A.Lint.netlist builder.B.net)

(* ------------------------------------------------------------------ *)
(* DFT-coverage audit *)

let test_audit_clean_plan () =
  let plan, builder = instrumented_chain ~stages:8 () in
  Alcotest.(check (list string)) "no findings" []
    (List.map D.to_string (Cml_dft.Audit.check plan builder))

let test_audit_oversized_group () =
  let plan, builder = instrumented_chain ~stages:8 () in
  let ds = Cml_dft.Audit.check ~max_safe_share:5 plan builder in
  check_rule "8 cells on one read-out" A.Rules.dft_oversized_group ds

let test_audit_uninstrumented_cell () =
  let plan, builder = instrumented_chain ~stages:3 () in
  (* a cell added after insertion ran is a coverage hole *)
  let input = B.diff_dc_input builder ~name:"din9" ~value:true in
  let (_ : B.diff) = Cml_cells.Buffer_cell.add builder ~name:"x9" ~input in
  let ds = Cml_dft.Audit.check plan builder in
  check_rule "late cell uncovered" A.Rules.dft_uninstrumented_cell ds;
  Alcotest.(check bool) "names the cell" true
    (List.exists (fun (d : D.t) -> d.D.location = D.Cell "x9") ds)

let test_audit_single_polarity () =
  let plan, builder = instrumented_chain ~multi_emitter:false ~stages:3 () in
  N.remove_device builder.B.net "ro0.det0.q5";
  let ds = Cml_dft.Audit.check plan builder in
  check_rule "complement side unmonitored" A.Rules.dft_single_polarity ds;
  check_no_errors "single polarity is a warning" ds

let test_audit_missing_readout () =
  let plan, builder = instrumented_chain ~stages:3 () in
  let doomed =
    List.filter_map
      (fun d ->
        let n = N.device_name d in
        if String.length n > 4 && String.sub n 0 4 = "ro0." && not (contains n ".det") then Some n
        else None)
      (N.devices builder.B.net)
  in
  Alcotest.(check bool) "read-out has devices to remove" true (doomed <> []);
  List.iter (N.remove_device builder.B.net) doomed;
  check_rule "phantom read-out" A.Rules.dft_missing_readout (Cml_dft.Audit.check plan builder)

let test_audit_view_direct () =
  let view =
    {
      A.Dft_audit.groups =
        [
          {
            A.Dft_audit.index = 0;
            members = [ { A.Dft_audit.cell = "x1"; monitors_p = true; monitors_n = true } ];
            readout_devices = 9;
          };
        ];
      all_cells = [ "x1"; "x2" ];
      max_safe_share = 45;
    }
  in
  let ds = A.Dft_audit.check view in
  check_rule "x2 uncovered" A.Rules.dft_uninstrumented_cell ds;
  check_no_rule "group size fine" A.Rules.dft_oversized_group ds

(* ------------------------------------------------------------------ *)
(* SCOAP golden values (hand-computed) *)

(* a = input, b = input, c = input
   d = AND(a, b)   CC1 = 1+1+1 = 3, CC0 = min(1,1)+1 = 2
   e = OR(d, c)    CC0 = 2+1+1 = 4, CC1 = min(3,1)+1 = 2
   f = NOT(e)      CC0 = 2+1 = 3,   CC1 = 4+1 = 5
   g = XOR(d, c)   CC1 = min(3+1, 2+1)+1 = 4, CC0 = min(2+1, 3+1)+1 = 4
   outputs f, g:   CO(f) = CO(g) = 0
   CO(e) = 0+1 = 1
   CO(d) = min(CO(e)+CC0(c)+1, CO(g)+min(CC0(c),CC1(c))+1) = min(3, 2) = 2
   CO(c) = min(CO(e)+CC0(d)+1, CO(g)+min(CC0(d),CC1(d))+1) = min(4, 3) = 3
   CO(a) = CO(d)+CC1(b)+1 = 4,  CO(b) = CO(d)+CC1(a)+1 = 4 *)
let golden_circuit () =
  let b = C.create () in
  let a = C.input b "a" in
  let bb = C.input b "b" in
  let c = C.input b "c" in
  let d = C.and2 b a bb in
  let e = C.or2 b d c in
  let f = C.not1 b e in
  let g = C.xor2 b d c in
  C.output b "f" f;
  C.output b "g" g;
  C.finalize b

let test_scoap_golden () =
  let m = A.Scoap.compute (golden_circuit ()) in
  Alcotest.(check (array int)) "cc0" [| 1; 1; 1; 2; 4; 3; 4 |] m.A.Scoap.cc0;
  Alcotest.(check (array int)) "cc1" [| 1; 1; 1; 3; 2; 5; 4 |] m.A.Scoap.cc1;
  Alcotest.(check (array int)) "co" [| 4; 4; 3; 2; 1; 0; 0 |] m.A.Scoap.co

let test_scoap_output_reports () =
  let t = golden_circuit () in
  let reports = A.Scoap.output_reports t (A.Scoap.compute t) in
  Alcotest.(check (list string)) "declaration order" [ "f"; "g" ]
    (List.map (fun (r : A.Scoap.output_report) -> r.A.Scoap.output) reports);
  List.iter
    (fun (r : A.Scoap.output_report) ->
      Alcotest.(check int)
        (Printf.sprintf "hardest CO in cone of %s" r.A.Scoap.output)
        4 r.A.Scoap.hardest_co)
    reports

let test_scoap_reconvergence () =
  let b = C.create () in
  let s = C.input b "s" in
  let x = C.not1 b s in
  let y = C.and2 b s x in
  C.output b "y" y;
  let t = C.finalize b in
  Alcotest.(check bool) "stem s meets again at y" true
    (List.mem (s, y) (A.Scoap.reconvergent_stems t));
  Alcotest.(check bool) "flagged by the rule" true
    (has_rule A.Rules.scoap_reconvergent (A.Lint.circuit t))

let test_scoap_no_false_reconvergence () =
  Alcotest.(check (list (pair int int))) "a tree has no reconvergent stems" []
    (A.Scoap.reconvergent_stems (golden_circuit ()) |> List.filter (fun (s, _) -> s >= 3))

let test_scoap_unobservable_net () =
  let b = C.create () in
  let a = C.input b "a" in
  let x = C.not1 b a in
  ignore x;
  let y = C.buf b a in
  C.output b "y" y;
  let t = C.finalize b in
  let m = A.Scoap.compute t in
  Alcotest.(check int) "dead net CO is infinite" A.Scoap.infinite m.A.Scoap.co.(x);
  check_rule "reported as error" A.Rules.scoap_unobservable (A.Lint.circuit t)

let test_scoap_s27_fixpoint_finite () =
  (* feedback through the three flip-flops must converge to finite
     values everywhere *)
  let m = A.Scoap.compute (Cml_logic.Bench_format.s27 ()) in
  let finite arr = Array.for_all (fun v -> v < A.Scoap.infinite) arr in
  Alcotest.(check bool) "cc0 finite" true (finite m.A.Scoap.cc0);
  Alcotest.(check bool) "cc1 finite" true (finite m.A.Scoap.cc1);
  Alcotest.(check bool) "co finite" true (finite m.A.Scoap.co)

let test_scoap_check_summary_info () =
  let ds = A.Lint.circuit (golden_circuit ()) in
  check_no_errors "golden circuit clean" ds;
  Alcotest.(check int) "one summary per output" 2
    (List.length (List.filter (fun (d : D.t) -> d.D.rule = A.Rules.scoap_output_summary) ds))

(* ------------------------------------------------------------------ *)
(* COP probability metrics *)

(* golden_circuit, by hand:
   p1(a) = p1(b) = p1(c) = 1/2
   p1(d) = p1(a) p1(b) = 1/4
   p1(e) = p1(d) + p1(c) - p1(d) p1(c) = 5/8
   p1(f) = 1 - p1(e) = 3/8
   p1(g) = p1(d)(1-p1(c)) + p1(c)(1-p1(d)) = 1/2
   obs(f) = obs(g) = 1 (outputs); obs(e) = obs(f) = 1
   obs(d) = max(obs(e)(1-p1(c)), obs(g)) = max(1/2, 1) = 1
   obs(c) = max(obs(e)(1-p1(d)), obs(g)) = max(3/4, 1) = 1
   obs(a) = obs(d) p1(b) = 1/2, obs(b) = obs(d) p1(a) = 1/2 *)
let test_cop_golden () =
  let m = A.Cop.compute (golden_circuit ()) in
  Alcotest.(check (array (float 1e-9)))
    "p1" [| 0.5; 0.5; 0.5; 0.25; 0.625; 0.375; 0.5 |] m.A.Cop.p1;
  Alcotest.(check (array (float 1e-9)))
    "obs" [| 0.5; 0.5; 1.0; 1.0; 1.0; 1.0; 1.0 |] m.A.Cop.obs;
  Alcotest.(check bool) "no corrections in a tree" true (m.A.Cop.corrections = [])

let test_cop_correction () =
  (* y = s AND (NOT s): independence says 1/4, the truth is 0 *)
  let b = C.create () in
  let s = C.input b "s" in
  let x = C.not1 b s in
  let y = C.and2 b s x in
  C.output b "y" y;
  let t = C.finalize b in
  let m = A.Cop.compute t in
  Alcotest.(check (float 1e-9)) "corrected p1(y)" 0.0 m.A.Cop.p1.(y);
  (match List.filter (fun c -> c.A.Cop.meet = y) m.A.Cop.corrections with
  | [ c ] ->
      Alcotest.(check int) "stem" s c.A.Cop.stem;
      Alcotest.(check (float 1e-9)) "naive" 0.25 c.A.Cop.naive;
      Alcotest.(check (float 1e-9)) "corrected" 0.0 c.A.Cop.corrected
  | cs -> Alcotest.failf "expected one correction at the meet, got %d" (List.length cs));
  let ds = A.Lint.circuit t in
  check_rule "skew warning" A.Rules.cop_skewed_probability ds;
  check_rule "correction note" A.Rules.cop_correlation ds

let test_cop_s27_sequential () =
  let m = A.Cop.compute (Cml_logic.Bench_format.s27 ()) in
  let in_unit arr = Array.for_all (fun v -> v >= 0.0 && v <= 1.0) arr in
  Alcotest.(check bool) "p1 in [0,1]" true (in_unit m.A.Cop.p1);
  Alcotest.(check bool) "obs in [0,1]" true (in_unit m.A.Cop.obs);
  Alcotest.(check bool) "flip-flop fixpoint iterated" true (m.A.Cop.passes > 1)

(* random DAG of 2-input gates; every sink becomes an output so no
   net is trivially dead *)
let build_random_circuit (n_in, choices) =
  let b = C.create () in
  let nets = ref [] in
  let consumed = Hashtbl.create 64 in
  for k = 0 to n_in - 1 do
    nets := C.input b (Printf.sprintf "i%d" k) :: !nets
  done;
  List.iter
    (fun (kind, f1, f2) ->
      let arr = Array.of_list (List.rev !nets) in
      let pick f = arr.(f mod Array.length arr) in
      let a = pick f1 and c = pick f2 in
      let eat n = Hashtbl.replace consumed n () in
      let id =
        match kind mod 5 with
        | 0 -> eat a; eat c; C.and2 b a c
        | 1 -> eat a; eat c; C.or2 b a c
        | 2 -> eat a; eat c; C.xor2 b a c
        | 3 -> eat a; C.not1 b a
        | _ -> eat a; C.buf b a
      in
      nets := id :: !nets)
    choices;
  List.iteri
    (fun i id ->
      if not (Hashtbl.mem consumed id) then C.output b (Printf.sprintf "o%d" i) id)
    !nets;
  C.finalize b

let prop_cop_probabilities =
  QCheck2.Test.make ~name:"COP stays in [0,1]; single-consumer obs is monotone" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 1 25) (triple (int_range 0 4) nat nat)))
    (fun spec ->
      let t = build_random_circuit spec in
      let m = A.Cop.compute t in
      let in_unit v = v >= -1e-9 && v <= 1.0 +. 1e-9 in
      Array.for_all in_unit m.A.Cop.p1
      && Array.for_all in_unit m.A.Cop.obs
      &&
      (* fanout-free composition: a net consumed by exactly one gate
         can never be more observable than that gate *)
      let consumers = Array.make (C.num_nets t) [] in
      Array.iteri
        (fun g gate ->
          let feed n = consumers.(n) <- g :: consumers.(n) in
          match gate with
          | C.Input _ -> ()
          | C.And (a, b) | C.Or (a, b) | C.Xor (a, b) -> feed a; feed b
          | C.Not a | C.Buf a | C.Dff { d = a } -> feed a
          | C.Mux { sel; a; b } -> feed sel; feed a; feed b)
        t.C.gates;
      let ok = ref true in
      Array.iteri
        (fun n cs ->
          match cs with
          | [ g ] -> if m.A.Cop.obs.(n) > m.A.Cop.obs.(g) +. 1e-9 then ok := false
          | _ -> ())
        consumers;
      !ok)

(* ------------------------------------------------------------------ *)
(* path-distance metrics *)

(* golden_circuit: gates d,e,f,g cost one level each, inputs are free.
   from_inputs = a,b,c:0  d:1  e:2  f:3  g:2
   to_outputs  = f,g:0  e:1  d:2 (via e->f)  c:2  a,b:3 *)
let test_distance_golden () =
  let m = A.Distance.compute (golden_circuit ()) in
  Alcotest.(check (array int)) "from_inputs" [| 0; 0; 0; 1; 2; 3; 2 |] m.A.Distance.from_inputs;
  Alcotest.(check (array int)) "to_outputs" [| 3; 3; 2; 2; 1; 0; 0 |] m.A.Distance.to_outputs;
  Alcotest.(check int) "comb depth" 3 m.A.Distance.comb_depth;
  Alcotest.(check int) "no ff segment" (-1) m.A.Distance.ff_to_ff;
  Alcotest.(check (list (pair string int)))
    "output depths" [ ("f", 3); ("g", 2) ] m.A.Distance.output_depths;
  (* the DIST002 summary names why a flip-flop segment is absent: no
     flip-flops at all, or flip-flops none of which feeds another *)
  let summary c =
    match List.find_opt (fun d -> d.D.rule = A.Rules.dist_summary) (A.Distance.check c) with
    | Some d -> d.D.message
    | None -> Alcotest.fail "no DIST002 summary"
  in
  let ends_with suffix s =
    let n = String.length s and k = String.length suffix in
    n >= k && String.sub s (n - k) k = suffix
  in
  Alcotest.(check bool) "combinational: no flip-flops" true
    (ends_with "absent (no flip-flops)" (summary (golden_circuit ())));
  let dff_only = Cml_logic.Bench_format.of_string "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n" in
  Alcotest.(check int) "dff-only: no ff segment" (-1) (A.Distance.compute dff_only).A.Distance.ff_to_ff;
  Alcotest.(check bool) "dff-only: the flip-flop is acknowledged" true
    (ends_with "absent (no flip-flop feeds another)" (summary dff_only))

let test_distance_s27 () =
  let m = A.Distance.compute (Cml_logic.Bench_format.s27 ()) in
  Alcotest.(check int) "deepest output segment" 8 (List.assoc "G17" m.A.Distance.output_depths);
  Alcotest.(check int) "deepest ff-to-ff segment" 9 m.A.Distance.ff_to_ff;
  Alcotest.(check bool) "every net has a sequential distance" true
    (Array.for_all (fun d -> d < A.Distance.unreachable) m.A.Distance.seq_depth)

let test_distance_deep_path_warning () =
  let b = C.create () in
  let a = C.input b "a" in
  let n = ref a in
  for _ = 1 to 50 do
    n := C.not1 b !n
  done;
  C.output b "y" !n;
  let ds = A.Lint.circuit (C.finalize b) in
  check_rule "deep path flagged" A.Rules.dist_deep_path ds;
  check_rule "summary present" A.Rules.dist_summary ds

(* ------------------------------------------------------------------ *)
(* multi-file lint determinism *)

let test_lint_files_parallel_parity () =
  let write_bench name c =
    let path = Filename.temp_file name ".bench" in
    let oc = open_out path in
    output_string oc (Cml_logic.Bench_format.to_string c);
    close_out oc;
    path
  in
  let big = write_bench "c432" (Cml_logic.Bench_circuits.c432_surrogate ()) in
  let small = write_bench "s27" (Cml_logic.Bench_format.s27 ()) in
  let paths = [ big; small; big ] in
  let render rs =
    String.concat "\n" (List.map (fun (p, ds) -> p ^ "\n" ^ D.render_json ds) rs)
  in
  let seq = render (A.Lint.files ~jobs:1 paths) in
  let par = render (A.Lint.files ~jobs:4 paths) in
  let order = List.map fst (A.Lint.files ~jobs:3 [ small; big ]) in
  Sys.remove big;
  Sys.remove small;
  Alcotest.(check bool) "reports keep input order" true (order = [ small; big ]);
  Alcotest.(check string) "byte-identical at any job count" seq par

(* ------------------------------------------------------------------ *)
(* lint façade and the pre-flight gate *)

let test_fails_thresholds () =
  let w = [ D.make ~rule:"X" D.Warning D.Toplevel "w" ] in
  Alcotest.(check bool) "warning below error" false (A.Lint.fails ~fail_on:D.Error w);
  Alcotest.(check bool) "warning at warning" true (A.Lint.fails ~fail_on:D.Warning w);
  Alcotest.(check bool) "empty never fails" false (A.Lint.fails ~fail_on:D.Info [])

let bad_netlist () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r1" a N.gnd 0.0;
  net

let test_preflight_raises_with_rule_id () =
  match A.Lint.preflight_netlist ~what:"unit-test netlist" (bad_netlist ()) with
  | () -> Alcotest.fail "expected Preflight_failed"
  | exception A.Lint.Preflight_failed msg ->
      Alcotest.(check bool) "cites the rule" true (contains msg A.Rules.erc_nonpositive_resistance)

let test_preflight_passes_clean () =
  A.Lint.preflight_netlist ~what:"clean buffer" (buffer_builder ()).B.net

let test_preflight_env_opt_out () =
  Unix.putenv "CML_DFT_NO_PREFLIGHT" "1";
  let disabled = A.Lint.preflight_enabled () in
  let outcome =
    match A.Lint.preflight_netlist ~what:"opt-out" (bad_netlist ()) with
    | () -> `Skipped
    | exception A.Lint.Preflight_failed _ -> `Raised
  in
  Unix.putenv "CML_DFT_NO_PREFLIGHT" "";
  Alcotest.(check bool) "disabled via env" false disabled;
  Alcotest.(check bool) "no-op while disabled" true (outcome = `Skipped);
  Alcotest.(check bool) "re-enabled" true (A.Lint.preflight_enabled ())

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "sort by severity" `Quick test_sort_by_severity;
          Alcotest.test_case "deterministic order" `Quick test_sort_deterministic_within_severity;
          Alcotest.test_case "to_string" `Quick test_to_string_format;
          Alcotest.test_case "text summary" `Quick test_render_text_summary;
          Alcotest.test_case "json escaping" `Quick test_render_json_escapes;
          Alcotest.test_case "worst and count" `Quick test_worst_and_count;
          Alcotest.test_case "rule catalog" `Quick test_rule_catalog;
        ] );
      ( "erc",
        [
          Alcotest.test_case "floating node" `Quick test_erc_floating_node;
          Alcotest.test_case "no dc path" `Quick test_erc_no_dc_path;
          Alcotest.test_case "capacitor blocks dc" `Quick test_erc_capacitor_is_not_a_dc_path;
          Alcotest.test_case "duplicate names" `Quick test_erc_duplicate_names;
          Alcotest.test_case "non-positive resistance" `Quick test_erc_nonpositive_resistance;
          Alcotest.test_case "negative capacitance" `Quick test_erc_negative_capacitance;
          Alcotest.test_case "vsource loop" `Quick test_erc_vsource_loop;
        ] );
      ( "cml-rules",
        [
          Alcotest.test_case "baseline clean" `Quick test_cml_buffer_baseline_clean;
          Alcotest.test_case "mismatched loads" `Quick test_cml_mismatched_loads;
          Alcotest.test_case "missing tail" `Quick test_cml_missing_tail;
          Alcotest.test_case "swing window" `Quick test_cml_swing_window;
          Alcotest.test_case "vtest unrouted" `Quick test_cml_vtest_unrouted;
        ] );
      ( "dft-audit",
        [
          Alcotest.test_case "clean plan" `Quick test_audit_clean_plan;
          Alcotest.test_case "oversized group" `Quick test_audit_oversized_group;
          Alcotest.test_case "uninstrumented cell" `Quick test_audit_uninstrumented_cell;
          Alcotest.test_case "single polarity" `Quick test_audit_single_polarity;
          Alcotest.test_case "missing read-out" `Quick test_audit_missing_readout;
          Alcotest.test_case "direct view" `Quick test_audit_view_direct;
        ] );
      ( "scoap",
        [
          Alcotest.test_case "golden cc/co" `Quick test_scoap_golden;
          Alcotest.test_case "output reports" `Quick test_scoap_output_reports;
          Alcotest.test_case "reconvergence" `Quick test_scoap_reconvergence;
          Alcotest.test_case "no false reconvergence" `Quick test_scoap_no_false_reconvergence;
          Alcotest.test_case "unobservable net" `Quick test_scoap_unobservable_net;
          Alcotest.test_case "s27 fixpoint finite" `Quick test_scoap_s27_fixpoint_finite;
          Alcotest.test_case "per-output summary" `Quick test_scoap_check_summary_info;
        ] );
      ( "cop",
        [
          Alcotest.test_case "golden probabilities" `Quick test_cop_golden;
          Alcotest.test_case "reconvergence correction" `Quick test_cop_correction;
          Alcotest.test_case "s27 sequential fixpoint" `Quick test_cop_s27_sequential;
          QCheck_alcotest.to_alcotest prop_cop_probabilities;
        ] );
      ( "distance",
        [
          Alcotest.test_case "golden depths" `Quick test_distance_golden;
          Alcotest.test_case "s27 segments" `Quick test_distance_s27;
          Alcotest.test_case "deep path warning" `Quick test_distance_deep_path_warning;
        ] );
      ( "lint-files",
        [ Alcotest.test_case "parallel parity" `Quick test_lint_files_parallel_parity ] );
      ( "preflight",
        [
          Alcotest.test_case "fails thresholds" `Quick test_fails_thresholds;
          Alcotest.test_case "raises with rule id" `Quick test_preflight_raises_with_rule_id;
          Alcotest.test_case "clean netlist passes" `Quick test_preflight_passes_clean;
          Alcotest.test_case "env opt-out" `Quick test_preflight_env_opt_out;
        ] );
    ]
