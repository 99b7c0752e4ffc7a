(* Validation of the cml_spice engine against hand-computable and
   analytically solvable circuits: resistive networks, RC transients,
   pn junctions, BJT configurations, sources and sweeps. *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module W = Cml_spice.Waveform
module T = Cml_spice.Transient

let vt = Cml_spice.Models.boltzmann_vt

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g (tol %.2g)" msg expected actual eps

(* ------------------------------------------------------------------ *)
(* Waveforms *)

let test_wave_dc () =
  check_close "dc" 2.5 (W.value (W.Dc 2.5) 123.0)

let test_wave_pulse_shape () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 1.0; fall = 1.0; width = 2.0; period = 0.0 }
  in
  check_close "before" 0.0 (W.value p 0.5);
  check_close "mid-rise" 0.5 (W.value p 1.5);
  check_close "top" 1.0 (W.value p 3.0);
  check_close "mid-fall" 0.5 (W.value p 4.5);
  check_close "after" 0.0 (W.value p 6.0)

let test_wave_pulse_periodic () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.1; fall = 0.1; width = 0.4; period = 1.0 }
  in
  check_close "cycle0 top" 1.0 (W.value p 0.3);
  check_close "cycle3 top" 1.0 (W.value p 3.3);
  check_close "cycle3 low" 0.0 (W.value p 3.8)

let test_wave_sine () =
  let s = W.Sine { offset = 1.0; ampl = 2.0; freq = 1.0; delay = 0.0; phase = 0.0 } in
  check_close "zero" 1.0 (W.value s 0.0);
  check_close "quarter" 3.0 (W.value s 0.25) ~eps:1e-9

let test_wave_pwl () =
  let p = W.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, -2.0) |] in
  check_close "interior 1" 1.0 (W.value p 0.5);
  check_close "interior 2" 0.0 (W.value p 2.0);
  check_close "clamped left" 0.0 (W.value p (-5.0));
  check_close "clamped right" (-2.0) (W.value p 9.0)

let test_wave_breakpoints () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.1; fall = 0.1; width = 0.4; period = 1.0 }
  in
  let bps = W.breakpoints p ~tstop:2.0 in
  Alcotest.(check bool) "contains first fall corner" true (List.exists (fun t -> Float.abs (t -. 0.5) < 1e-12) bps);
  Alcotest.(check bool) "sorted" true (List.sort compare bps = bps);
  Alcotest.(check bool) "inside range" true (List.for_all (fun t -> t > 0.0 && t < 2.0) bps)

let test_wave_square () =
  let s = W.square ~v_low:1.0 ~v_high:2.0 ~freq:1e6 ~edge:10e-9 () in
  check_close "high" 2.0 (W.value s 200e-9);
  check_close "low" 1.0 (W.value s 700e-9)

(* ------------------------------------------------------------------ *)
(* DC: resistive circuits *)

let divider solver =
  let net = N.create () in
  let vin = N.node net "in" and vout = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:vin ~neg:N.gnd (W.Dc 10.0);
  N.resistor net ~name:"R1" vin vout 1000.0;
  N.resistor net ~name:"R2" vout N.gnd 3000.0;
  let sim = E.compile ~options:{ E.default_options with solver } net in
  let x = E.dc_operating_point sim in
  check_close "divider out" 7.5 (E.voltage x vout);
  (* branch current of V1: current flows from + through source = -10/4k *)
  check_close "source current" (-0.0025) x.(E.branch_unknown sim "V1") ~eps:1e-9

let test_divider_dense () = divider E.Dense_solver
let test_divider_sparse () = divider E.Sparse_solver

let test_resistor_ladder () =
  (* 10-section ladder: voltage halves each section in the infinite
     limit; just verify against a dense hand solve via superposition:
     equal resistors in series, V(k) linear. *)
  let net = N.create () in
  let top = N.node net "n0" in
  N.vsource net ~name:"V1" ~pos:top ~neg:N.gnd (W.Dc 5.0);
  let rec build k prev =
    if k > 10 then ()
    else begin
      let nd = N.node net (Printf.sprintf "n%d" k) in
      N.resistor net ~name:(Printf.sprintf "R%d" k) prev nd 100.0;
      build (k + 1) nd
    end
  in
  build 1 top;
  N.resistor net ~name:"Rload" (N.node net "n10") N.gnd 100.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* series string of 11 equal resistors from 5 V to ground *)
  check_close "middle node" (5.0 *. 6.0 /. 11.0) (E.voltage x (N.node net "n5")) ~eps:1e-6

let test_current_source_into_resistor () =
  let net = N.create () in
  let out = N.node net "out" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:out (W.Dc 1e-3);
  N.resistor net ~name:"R1" out N.gnd 2000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  check_close "I*R" 2.0 (E.voltage x out)

let test_vcvs_amplifier () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 0.5);
  N.vcvs net ~name:"E1" ~pos:out ~neg:N.gnd ~cpos:inp ~cneg:N.gnd 10.0;
  N.resistor net ~name:"R1" out N.gnd 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  check_close "gain 10" 5.0 (E.voltage x out)

let test_vccs_transconductance () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 1.0);
  N.vccs net ~name:"G1" ~pos:out ~neg:N.gnd ~cpos:inp ~cneg:N.gnd 1e-3;
  N.resistor net ~name:"R1" out N.gnd 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* 1 mA pulled out of "out" through the VCCS into ground: -1 V *)
  check_close "gm into load" (-1.0) (E.voltage x out)

(* ------------------------------------------------------------------ *)
(* DC: junctions *)

let test_diode_forward_drop () =
  let net = N.create () in
  let a = N.node net "a" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:a (W.Dc 1e-3);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let is = Cml_spice.Models.default_diode.Cml_spice.Models.d_is in
  let expected = vt *. log ((1e-3 /. is) +. 1.0) in
  check_close "vf at 1 mA" expected (E.voltage x a) ~eps:1e-4

let test_diode_reverse_blocks () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc (-5.0)) ;
  N.diode net ~name:"D1" ~anode:(N.node net "k") ~cathode:N.gnd ();
  N.resistor net ~name:"R1" a (N.node net "k") 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* reverse-biased: essentially all of -5 V appears across the diode *)
  Alcotest.(check bool) "cathode node close to source" true (E.voltage x (N.node net "k") < -4.9)

let test_bjt_vbe_at_half_ma () =
  (* the calibration target of the paper's process: VBE about 0.9 V
     at the 0.5 mA tail current *)
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 5e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let vbe = E.voltage x b in
  Alcotest.(check bool)
    (Printf.sprintf "vbe in [0.85, 0.95], got %g" vbe)
    true
    (vbe > 0.85 && vbe < 0.95)

let test_bjt_beta_relation () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 2e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* collector current = beta * base current; read it from VC's branch *)
  let ic = -.x.(E.branch_unknown sim "VC") in
  check_close "ic = bf * ib" (100.0 *. 2e-6) ic ~eps:2e-6

let test_emitter_follower () =
  let net = N.create () in
  let b = N.node net "b" and e = N.node net "e" and vcc = N.node net "vcc" in
  N.vsource net ~name:"VCC" ~pos:vcc ~neg:N.gnd (W.Dc 5.0);
  N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 2.0);
  N.bjt net ~name:"Q1" ~c:vcc ~b ~e ();
  N.resistor net ~name:"RE" e N.gnd 2000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let ve = E.voltage x e in
  Alcotest.(check bool)
    (Printf.sprintf "ve about vb - vbe, got %g" ve)
    true
    (ve > 1.0 && ve < 1.25)

let test_differential_pair_steering () =
  (* the heart of CML: a 250 mV differential input fully steers the
     tail current to one side *)
  let net = N.create () in
  let vcc = N.node net "vcc" in
  let bp = N.node net "bp" and bn = N.node net "bn" in
  let op = N.node net "op" and on = N.node net "on" in
  let tail = N.node net "tail" in
  N.vsource net ~name:"VCC" ~pos:vcc ~neg:N.gnd (W.Dc 3.3);
  N.vsource net ~name:"VP" ~pos:bp ~neg:N.gnd (W.Dc 2.5);
  N.vsource net ~name:"VN" ~pos:bn ~neg:N.gnd (W.Dc 2.25);
  N.resistor net ~name:"RP" vcc op 500.0;
  N.resistor net ~name:"RN" vcc on 500.0;
  N.bjt net ~name:"QP" ~c:op ~b:bp ~e:tail ();
  N.bjt net ~name:"QN" ~c:on ~b:bn ~e:tail ();
  N.isource net ~name:"IT" ~pos:tail ~neg:N.gnd (W.Dc 0.5e-3);
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let vop = E.voltage x op and von = E.voltage x on in
  (* QP on: its collector drops by about I*R; QN off: collector at rail *)
  check_close "off side at rail" 3.3 von ~eps:0.01;
  check_close "on side dropped" (3.3 -. 0.25) vop ~eps:0.01

let test_multi_emitter_equals_parallel () =
  let build use_multi =
    let net = N.create () in
    let b = N.node net "b" and c = N.node net "c" in
    let e1 = N.node net "e1" and e2 = N.node net "e2" in
    N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
    N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 0.8);
    N.resistor net ~name:"R1" e1 N.gnd 1000.0;
    N.resistor net ~name:"R2" e2 N.gnd 1500.0;
    if use_multi then N.bjt_multi net ~name:"Q1" ~c ~b ~emitters:[| e1; e2 |] ()
    else begin
      N.bjt net ~name:"Q1a" ~c ~b ~e:e1 ();
      N.bjt net ~name:"Q1b" ~c ~b ~e:e2 ()
    end;
    let sim = E.compile net in
    let x = E.dc_operating_point sim in
    (E.voltage x e1, E.voltage x e2)
  in
  let m1, m2 = build true and p1, p2 = build false in
  check_close "e1 same" p1 m1 ~eps:1e-9;
  check_close "e2 same" p2 m2 ~eps:1e-9

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_rc_charging () =
  (* R = 1k, C = 1 uF, step 0 -> 1 V: v(t) = 1 - exp(-t/RC) *)
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1e-4; rise = 1e-6; fall = 1e-6; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-6;
  let sim = E.compile net in
  let cfg = T.config ~tstop:5e-3 ~max_step:2e-5 () in
  let r = T.run sim net cfg in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  let tau = 1e-3 in
  List.iter
    (fun mult ->
      let t = 1e-4 +. 1e-6 +. (mult *. tau) in
      let expected = 1.0 -. exp (-.(mult *. tau) /. tau) in
      check_close
        (Printf.sprintf "rc at %g tau" mult)
        expected
        (Cml_wave.Wave.value_at w t)
        ~eps:5e-3)
    [ 0.5; 1.0; 2.0; 3.0 ]

let test_rc_discharge_from_dc () =
  (* start charged via DC op, then input falls at t = 1 us *)
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 2.0; v2 = 0.0; delay = 1e-6; rise = 1e-8; fall = 1e-8; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-9;
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:6e-6 ~max_step:2e-8 ()) in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  check_close "initially charged" 2.0 (Cml_wave.Wave.value_at w 0.5e-6) ~eps:1e-3;
  let tau = 1e-6 in
  check_close "after 1 tau" (2.0 *. exp (-1.0)) (Cml_wave.Wave.value_at w (1e-6 +. 1e-8 +. tau)) ~eps:1e-2

let test_sine_through_rc_lowpass_amplitude () =
  (* f = fc: amplitude should be 1/sqrt(2) of input, well past startup *)
  let rr = 1000.0 and cc = 1e-9 in
  let fc = 1.0 /. (2.0 *. Float.pi *. rr *. cc) in
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Sine { offset = 0.0; ampl = 1.0; freq = fc; delay = 0.0; phase = 0.0 });
  N.resistor net ~name:"R1" inp out rr;
  N.capacitor net ~name:"C1" out N.gnd cc;
  let sim = E.compile net in
  let period = 1.0 /. fc in
  let r = T.run sim net (T.config ~tstop:(10.0 *. period) ~max_step:(period /. 200.0) ()) in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  let lo, hi = Cml_wave.Measure.extremes w ~t_from:(6.0 *. period) in
  check_close "attenuated amplitude" (1.0 /. sqrt 2.0) (0.5 *. (hi -. lo)) ~eps:0.02

let test_transient_records_initial_point () =
  let net = N.create () in
  let out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:out ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"R1" out N.gnd 1.0;
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:1e-6 ()) in
  check_close "t0" 0.0 r.T.times.(0);
  check_close "v0" 1.0 (T.node_trace r out).(0)

(* ------------------------------------------------------------------ *)
(* Sweeps *)

let test_sweep_linear_circuit () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 0.0);
  N.resistor net ~name:"R1" inp out 1000.0;
  N.resistor net ~name:"R2" out N.gnd 1000.0;
  let values = Cml_numerics.Vec.linspace 0.0 4.0 9 in
  let sols = Cml_spice.Sweep.vsource_sweep net ~source:"V1" ~values in
  Array.iteri
    (fun i x -> check_close "half of source" (values.(i) /. 2.0) (E.voltage x out))
    sols

let test_sweep_diode_exponential () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 0.0);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  let values = [| 0.5; 0.6; 0.7; 0.8 |] in
  let sim, sols = Cml_spice.Sweep.vsource_sweep_full net ~source:"V1" ~values in
  let currents = Array.map (fun x -> -.x.(E.branch_unknown sim "V1")) sols in
  (* each 60 mV step multiplies the current by about 10 *)
  let ratio1 = currents.(1) /. currents.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "exponential ratio about 48, got %g" ratio1)
    true
    (ratio1 > 30.0 && ratio1 < 70.0)

(* ------------------------------------------------------------------ *)
(* Engine odds and ends *)

let test_no_convergence_exception () =
  (* a floating node makes the DC system singular: every homotopy
     fails and the engine must say so rather than return garbage *)
  let net = N.create () in
  let a = N.node net "a" and b = N.node net "b" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.capacitor net ~name:"C1" a b 1e-12;
  N.capacitor net ~name:"C2" b N.gnd 1e-12;
  let sim = E.compile net in
  (match E.dc_operating_point sim with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception E.No_convergence _ -> ())

let test_models_limexp_continuity () =
  let below = E.limexp 79.999 and above = E.limexp 80.001 in
  Alcotest.(check bool) "continuous and increasing" true (above > below && below > 0.0)

let test_models_pnjlim_passthrough () =
  (* small updates are untouched *)
  let v = E.pnjlim ~vnew:0.61 ~vold:0.6 ~nvt:vt ~vcrit:0.7 in
  check_close "passthrough" 0.61 v

let test_models_pnjlim_clamps () =
  let v = E.pnjlim ~vnew:5.0 ~vold:0.8 ~nvt:vt ~vcrit:0.7 in
  Alcotest.(check bool) "clamped far below 5" true (v < 1.0)

let test_bjt_report () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 5e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  match E.bjt_report sim x with
  | [ o ] ->
      Alcotest.(check string) "name" "Q1" o.E.q_name;
      check_close "ic = beta*ib" 5e-4 o.E.ic ~eps:2e-5;
      Alcotest.(check bool) "vbe around 0.9" true (o.E.vbe > 0.85 && o.E.vbe < 0.95);
      check_close "vce is the supply" 3.0 o.E.vce ~eps:1e-6
  | l -> Alcotest.failf "expected one transistor, got %d" (List.length l)

let test_bjt_report_multi_emitter () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 0.8);
  N.resistor net ~name:"R1" (N.node net "e1") N.gnd 1000.0;
  N.resistor net ~name:"R2" (N.node net "e2") N.gnd 1000.0;
  N.bjt_multi net ~name:"Q45" ~c ~b ~emitters:[| N.node net "e1"; N.node net "e2" |] ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let names = List.map (fun (o : E.bjt_op) -> o.E.q_name) (E.bjt_report sim x) in
  Alcotest.(check (list string)) "per-emitter entries" [ "Q45#e0"; "Q45#e1" ] names

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_pulse_bounded =
  QCheck2.Test.make ~name:"pulse waveform stays within [v1, v2]" ~count:200
    QCheck2.Gen.(
      pair
        (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
        (float_range 0.0 50.0))
    (fun ((v1, v2), t) ->
      let p =
        W.Pulse { v1; v2; delay = 1.0; rise = 2.0; fall = 3.0; width = 4.0; period = 15.0 }
      in
      let v = W.value p t in
      v >= Float.min v1 v2 -. 1e-12 && v <= Float.max v1 v2 +. 1e-12)

let prop_breakpoints_sorted_in_range =
  QCheck2.Test.make ~name:"breakpoints are sorted, unique and inside (0, tstop)" ~count:200
    QCheck2.Gen.(
      pair (float_range 0.01 2.0) (pair (float_range 0.0 1.0) (float_range 0.05 1.0)))
    (fun (tstop, (delay, period)) ->
      let p =
        W.Pulse
          {
            v1 = 0.0;
            v2 = 1.0;
            delay;
            rise = period /. 10.0;
            fall = period /. 10.0;
            width = period /. 3.0;
            period;
          }
      in
      let bps = W.breakpoints p ~tstop in
      let sorted = List.sort_uniq compare bps = bps in
      sorted && List.for_all (fun t -> t > 0.0 && t < tstop) bps)

let prop_resistive_network_maximum_principle =
  (* a network of positive resistors driven by one source: every node
     voltage lies between the source value and ground *)
  QCheck2.Test.make ~name:"maximum principle on random resistor networks" ~count:100
    QCheck2.Gen.(
      int_range 2 8 >>= fun n ->
      list_size (int_range 1 20)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 10.0 10e3))
      >>= fun edges ->
      float_range 0.5 10.0 >>= fun vsrc -> return (n, edges, vsrc))
    (fun (n, edges, vsrc) ->
      let net = N.create () in
      let nodes = Array.init n (fun k -> N.node net (Printf.sprintf "n%d" k)) in
      N.vsource net ~name:"vs" ~pos:nodes.(0) ~neg:N.gnd (W.Dc vsrc);
      List.iteri
        (fun k (i, j, r) ->
          if i <> j then N.resistor net ~name:(Printf.sprintf "r%d" k) nodes.(i) nodes.(j) r)
        edges;
      (* tie every node weakly to ground so nothing floats *)
      Array.iteri
        (fun k nd -> N.resistor net ~name:(Printf.sprintf "leak%d" k) nd N.gnd 1e9)
        nodes;
      let x = E.dc_operating_point (E.compile net) in
      Array.for_all
        (fun nd ->
          let v = E.voltage x nd in
          v >= -.1e-6 && v <= vsrc +. 1e-6)
        nodes)

let prop_rc_matches_analytic =
  QCheck2.Test.make ~name:"random RC charge curves match the analytic exponential" ~count:10
    QCheck2.Gen.(pair (float_range 100.0 10e3) (float_range 1e-9 1e-7))
    (fun (rr, cc) ->
      let tau = rr *. cc in
      let net = N.create () in
      let inp = N.node net "in" and out = N.node net "out" in
      N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
        (W.Pulse
           {
             v1 = 0.0;
             v2 = 1.0;
             delay = tau /. 100.0;
             rise = tau /. 1000.0;
             fall = tau /. 1000.0;
             width = 1.0;
             period = 0.0;
           });
      N.resistor net ~name:"R1" inp out rr;
      N.capacitor net ~name:"C1" out N.gnd cc;
      let sim = E.compile net in
      let r = T.run sim net (T.config ~tstop:(4.0 *. tau) ~max_step:(tau /. 50.0) ()) in
      let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
      let t0 = (tau /. 100.0) +. (tau /. 1000.0) in
      List.for_all
        (fun mult ->
          let expected = 1.0 -. exp (-.mult) in
          Float.abs (Cml_wave.Wave.value_at w (t0 +. (mult *. tau)) -. expected) < 0.02)
        [ 0.5; 1.0; 2.0; 3.0 ])

(* ------------------------------------------------------------------ *)
(* Device bypass and warm starts *)

let run_chain_transient ~options ~stages ~freq =
  let chain = Cml_cells.Chain.build ~stages ~freq () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile ~options net in
  let tstop = 2.0 /. freq in
  T.run sim net (T.config ~tstop ~max_step:(tstop /. 100.0) ())

(* The bypass tolerance is a tenth of the Newton convergence band, so
   replaying cached stamps may move any node by at most a few vntol —
   well inside 10 x vntol (1e-5 at the default 1e-6). *)
let prop_bypass_matches_full_eval =
  QCheck2.Test.make ~name:"device bypass leaves CML chain trajectories unchanged" ~count:4
    QCheck2.Gen.(pair (int_range 2 4) (float_range 5e8 2e9))
    (fun (stages, freq) ->
      let on = run_chain_transient ~options:E.default_options ~stages ~freq in
      let off =
        run_chain_transient ~options:{ E.default_options with E.bypass = false } ~stages ~freq
      in
      E.bypassed_loads on.T.stats > 0
      && E.bypassed_loads off.T.stats = 0
      && Array.length on.T.times = Array.length off.T.times
      &&
      let dev = ref 0.0 in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun i v -> dev := Float.max !dev (Float.abs (v -. off.T.data.(k).(i))))
            row)
        on.T.data;
      !dev <= 10.0 *. E.default_options.E.vntol)

(* A warm Newton solve allocates only its result: the converged copy
   of the iterate ([nunk] + 1 words) and a few words of option, tuple
   and loop closure.  Assembly (stamps, junction evaluation, device
   caches) and the linear solve allocate nothing, so the count does
   not grow with the device count.  Bypass is off so that every
   iteration fully evaluates every junction device. *)
let newton_minor_words solver =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile ~options:{ E.default_options with E.solver; E.bypass = false } net in
  let x = E.dc_operating_point sim in
  E.init_capacitor_states sim x;
  let x0 = Array.map (fun v -> v +. 0.01) x in
  let integ = E.Tran { geq = 1e11; trap = false } in
  let solve () = E.newton sim ~time:0.0 ~integ x0 in
  ignore (solve ());
  let w0 = Gc.minor_words () in
  let r = solve () in
  let words = Gc.minor_words () -. w0 in
  (E.unknown_count sim, r, words)

let test_newton_allocation () =
  List.iter
    (fun (label, solver) ->
      match newton_minor_words solver with
      | _, None, _ -> Alcotest.failf "%s: warm Newton solve did not converge" label
      | nunk, Some (_, iters), words ->
          Alcotest.(check bool) (label ^ ": at least two iterations") true (iters >= 1);
          let bound = float_of_int (nunk + 32) in
          if words > bound then
            Alcotest.failf "%s: warm Newton solve (%d iterations) allocated %.0f minor words, \
                            bound %.0f (nunk %d + 32)" label (iters + 1) words bound nunk)
    [ ("dense", E.Dense_solver); ("sparse", E.Sparse_solver) ]

let test_transient_stats_accounting () =
  let chain = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:2e-9 ~max_step:10e-12 ()) in
  Alcotest.(check int) "one row per accepted step plus t = 0"
    (r.T.stats.E.accepted_steps + 1)
    (Array.length r.T.times);
  Alcotest.(check bool) "bypass fired" true (E.bypassed_loads r.T.stats > 0);
  Alcotest.(check bool) "bypass is a strict subset of loads" true
    (E.bypassed_loads r.T.stats < E.device_loads r.T.stats);
  Alcotest.(check bool) "newton iterations counted" true (r.T.stats.E.newton_iters > 0);
  Alcotest.(check int) "no guide means no guided seeds" 0 r.T.stats.E.guided_seeds;
  Alcotest.(check int) "no guide means no cold fallbacks" 0 r.T.stats.E.cold_fallbacks;
  Alcotest.(check bool) "LTE rejections are a subset of rejections" true
    (r.T.stats.E.lte_rejections <= r.T.stats.E.rejected_steps)

let test_transient_guide_is_used () =
  let chain = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 () in
  let nominal = T.run (E.compile net) net cfg in
  let warm = T.run ~guide:nominal (E.compile net) net cfg in
  Alcotest.(check bool) "guided seeds used" true (warm.T.stats.E.guided_seeds > 0);
  (* guided_seeds counts accepted steps only (plus the warm DC start),
     so a retried (LTE- or Newton-rejected) instant cannot inflate it
     past the step count *)
  Alcotest.(check bool) "guided seeds bounded by accepted steps + DC" true
    (warm.T.stats.E.guided_seeds <= warm.T.stats.E.accepted_steps + 1);
  Alcotest.(check bool) "cold fallbacks accounted separately" true
    (warm.T.stats.E.cold_fallbacks >= 0
    && warm.T.stats.E.cold_fallbacks <= warm.T.stats.E.accepted_steps + 1);
  Alcotest.(check int) "same grid as the cold run"
    (Array.length nominal.T.times)
    (Array.length warm.T.times);
  let dev = ref 0.0 in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun i v -> dev := Float.max !dev (Float.abs (v -. warm.T.data.(k).(i))))
        row)
    nominal.T.data;
  Alcotest.(check bool) "same trajectory as the cold run" true
    (!dev <= 10.0 *. E.default_options.E.vntol)

(* ------------------------------------------------------------------ *)
(* Streaming observers *)

let rc_net () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1e-8; rise = 1e-9; fall = 1e-9; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-9;
  (net, out)

let test_observers_match_dense_rows () =
  let net, out = rc_net () in
  let sim = E.compile net in
  let idx = E.node_unknown out in
  let obs = T.observers [ ("out", idx) ] in
  let r = T.run ~observers:obs sim net (T.config ~tstop:1e-6 ~max_step:2e-8 ()) in
  let times, values = T.probe_samples obs "out" in
  Alcotest.(check int) "one sample per accepted step plus t = 0"
    (r.T.stats.E.accepted_steps + 1)
    (Array.length times);
  (* at record_every = 1 the streamed probe is bit-identical to the
     dense recording *)
  Alcotest.(check int) "same count as dense rows" (Array.length r.T.times) (Array.length times);
  let dense = T.node_trace r out in
  Array.iteri
    (fun k t ->
      if t <> r.T.times.(k) || values.(k) <> dense.(k) then
        Alcotest.failf "probe sample %d differs from dense row" k)
    times

let test_observers_record_every_no_alias () =
  let net, out = rc_net () in
  let sim = E.compile net in
  let idx = E.node_unknown out in
  let obs = T.observers [ ("out", idx) ] in
  let r = T.run ~observers:obs sim net (T.config ~tstop:1e-6 ~max_step:2e-8 ~record_every:4 ()) in
  (* the observer sees every accepted step even though the dense
     recorder keeps only every 4th row *)
  Alcotest.(check int) "probe length" (r.T.stats.E.accepted_steps + 1) (T.probe_length obs);
  Alcotest.(check bool) "dense recorder thinned" true
    (Array.length r.T.times < T.probe_length obs);
  (* dense row j is the probe sample at stride 4 *)
  let times, values = T.probe_samples obs "out" in
  let dense = T.node_trace r out in
  Array.iteri
    (fun j t ->
      if j < Array.length r.T.times - 1 then begin
        (* the final dense row is the last accepted step whatever the
           stride, so only interior rows align to j * 4 *)
        if t <> times.(j * 4) || dense.(j) <> values.(j * 4) then
          Alcotest.failf "dense row %d is not probe sample %d" j (j * 4)
      end)
    r.T.times

let test_observers_validation_and_ground () =
  (match T.observers [ ("bad", -2) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let net, _ = rc_net () in
  let sim = E.compile net in
  let obs = T.observers [ ("gnd", -1) ] in
  let _ = T.run ~observers:obs sim net (T.config ~tstop:1e-7 ()) in
  let _, values = T.probe_samples obs "gnd" in
  Alcotest.(check bool) "ground probe reads zero" true
    (Array.for_all (fun v -> v = 0.0) values);
  (match T.probe_samples obs "missing" with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ())

let prop_observer_parity_with_dense =
  QCheck2.Test.make ~name:"streamed probes equal dense rows at the record_every stride" ~count:10
    QCheck2.Gen.(triple (float_range 100.0 10e3) (float_range 1e-9 1e-7) (int_range 1 5))
    (fun (rr, cc, every) ->
      let tau = rr *. cc in
      let net = N.create () in
      let inp = N.node net "in" and out = N.node net "out" in
      N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
        (W.Pulse
           {
             v1 = 0.0;
             v2 = 1.0;
             delay = tau /. 100.0;
             rise = tau /. 1000.0;
             fall = tau /. 1000.0;
             width = 1.0;
             period = 0.0;
           });
      N.resistor net ~name:"R1" inp out rr;
      N.capacitor net ~name:"C1" out N.gnd cc;
      let sim = E.compile net in
      let obs = T.observers [ ("in", E.node_unknown inp); ("out", E.node_unknown out) ] in
      let r =
        T.run ~observers:obs sim net
          (T.config ~tstop:(4.0 *. tau) ~max_step:(tau /. 50.0) ~record_every:every ())
      in
      T.probe_length obs = r.T.stats.E.accepted_steps + 1
      && List.for_all
           (fun (nd, name) ->
             let times, values = T.probe_samples obs name in
             let dense = T.node_trace r nd in
             let rows = Array.length r.T.times in
             (* every interior dense row j is the probe sample at
                j * every; the final dense row is the last accepted
                step regardless of stride *)
             let ok = ref true in
             for j = 0 to rows - 2 do
               if r.T.times.(j) <> times.(j * every) || dense.(j) <> values.(j * every) then
                 ok := false
             done;
             !ok)
           [ (inp, "in"); (out, "out") ])

let test_transient_incompatible_guide_ignored () =
  (* a guide from a different circuit (different unknown count) must
     be ignored, not crash the run *)
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"R1" a N.gnd 1e3;
  let small = T.run (E.compile net) net (T.config ~tstop:1e-9 ()) in
  let chain = Cml_cells.Chain.build ~stages:2 ~freq:1e9 () in
  let cnet = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let r = T.run ~guide:small (E.compile cnet) cnet (T.config ~tstop:1e-9 ~max_step:10e-12 ()) in
  Alcotest.(check int) "guide silently dropped" 0 r.T.stats.E.guided_seeds;
  Alcotest.(check int) "a dropped guide is not a cold fallback" 0 r.T.stats.E.cold_fallbacks;
  Alcotest.(check bool) "run still completes" true (Array.length r.T.times > 10)

let () =
  Alcotest.run "spice"
    [
      ( "waveform",
        [
          Alcotest.test_case "dc" `Quick test_wave_dc;
          Alcotest.test_case "pulse shape" `Quick test_wave_pulse_shape;
          Alcotest.test_case "pulse periodic" `Quick test_wave_pulse_periodic;
          Alcotest.test_case "sine" `Quick test_wave_sine;
          Alcotest.test_case "pwl" `Quick test_wave_pwl;
          Alcotest.test_case "breakpoints" `Quick test_wave_breakpoints;
          Alcotest.test_case "square helper" `Quick test_wave_square;
        ] );
      ( "dc-linear",
        [
          Alcotest.test_case "divider (dense)" `Quick test_divider_dense;
          Alcotest.test_case "divider (sparse)" `Quick test_divider_sparse;
          Alcotest.test_case "resistor ladder" `Quick test_resistor_ladder;
          Alcotest.test_case "current source" `Quick test_current_source_into_resistor;
          Alcotest.test_case "vcvs amplifier" `Quick test_vcvs_amplifier;
          Alcotest.test_case "vccs" `Quick test_vccs_transconductance;
        ] );
      ( "dc-nonlinear",
        [
          Alcotest.test_case "diode forward drop" `Quick test_diode_forward_drop;
          Alcotest.test_case "diode reverse blocks" `Quick test_diode_reverse_blocks;
          Alcotest.test_case "bjt vbe at 0.5 mA" `Quick test_bjt_vbe_at_half_ma;
          Alcotest.test_case "bjt beta relation" `Quick test_bjt_beta_relation;
          Alcotest.test_case "emitter follower" `Quick test_emitter_follower;
          Alcotest.test_case "differential pair steering" `Quick test_differential_pair_steering;
          Alcotest.test_case "multi-emitter = parallel" `Quick test_multi_emitter_equals_parallel;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc charging" `Quick test_rc_charging;
          Alcotest.test_case "rc discharge from dc" `Quick test_rc_discharge_from_dc;
          Alcotest.test_case "rc lowpass at fc" `Quick test_sine_through_rc_lowpass_amplitude;
          Alcotest.test_case "initial point recorded" `Quick test_transient_records_initial_point;
          Alcotest.test_case "stats accounting" `Slow test_transient_stats_accounting;
          Alcotest.test_case "warm newton allocates only its result" `Quick
            test_newton_allocation;
          Alcotest.test_case "guide warm-starts steps" `Slow test_transient_guide_is_used;
          Alcotest.test_case "incompatible guide ignored" `Quick
            test_transient_incompatible_guide_ignored;
        ] );
      ( "observers",
        [
          Alcotest.test_case "probes match dense rows" `Quick test_observers_match_dense_rows;
          Alcotest.test_case "record_every does not alias probes" `Quick
            test_observers_record_every_no_alias;
          Alcotest.test_case "validation and ground probe" `Quick
            test_observers_validation_and_ground;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "linear sweep" `Quick test_sweep_linear_circuit;
          Alcotest.test_case "diode exponential" `Quick test_sweep_diode_exponential;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no convergence raises" `Quick test_no_convergence_exception;
          Alcotest.test_case "limexp continuity" `Quick test_models_limexp_continuity;
          Alcotest.test_case "pnjlim passthrough" `Quick test_models_pnjlim_passthrough;
          Alcotest.test_case "pnjlim clamps" `Quick test_models_pnjlim_clamps;
          Alcotest.test_case "bjt operating-point report" `Quick test_bjt_report;
          Alcotest.test_case "report on dual emitters" `Quick test_bjt_report_multi_emitter;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_pulse_bounded;
            prop_breakpoints_sorted_in_range;
            prop_resistive_network_maximum_principle;
            prop_rc_matches_analytic;
            prop_observer_parity_with_dense;
            prop_bypass_matches_full_eval;
          ] );
    ]
