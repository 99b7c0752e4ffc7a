module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module Tel = Cml_telemetry

type variant =
  | V1 of Detector.config
  | V2 of { cfg : Detector.config; vtest : float }

type response = {
  vout : Cml_wave.Wave.t;
  out_p : Cml_wave.Wave.t;
  out_n : Cml_wave.Wave.t;
  tstability : float option;
  t_settle : float option;
  vmax : float;
  excursion : float;
  vout_drop : float;
}

let build_monitored ?(proc = Cml_cells.Process.default) ?(preflight = true) ~stages ~dut
    ~variant ~freq ~pipe () =
  let chain = Cml_cells.Chain.build ~proc ~stages ~freq () in
  let builder = chain.Cml_cells.Chain.builder in
  let outputs = Cml_cells.Chain.output chain dut in
  let vout =
    match variant with
    | V1 cfg -> Detector.attach_v1 builder ~name:"det" ~outputs cfg
    | V2 { cfg; vtest } ->
        let vt = Detector.ensure_vtest builder vtest in
        let out = Detector.attach_v2 builder ~name:"det" ~outputs ~vtest:vt cfg in
        (* engage test mode 2 ns into the transient, as a tester
           would: the detector's own response is then observable
           rather than already folded into the DC operating point *)
        let normal = Detector.vtest_normal proc in
        (match N.get_device builder.Cml_cells.Builder.net "vtest" with
        | N.Vsource src ->
            N.set_device builder.Cml_cells.Builder.net "vtest"
              (N.Vsource
                 {
                   src with
                   wave = Cml_spice.Waveform.Pwl [| (0.0, normal); (2e-9, normal); (3e-9, vtest) |];
                 })
        | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _
        | N.Vccs _ -> ());
        out
  in
  (* lint the instrumented (still fault-free) netlist before the
     deliberate defect goes in *)
  if preflight then
    Cml_analysis.Lint.preflight_netlist ~what:"monitored-chain netlist"
      builder.Cml_cells.Builder.net;
  let net =
    match pipe with
    | None -> builder.Cml_cells.Builder.net
    | Some r ->
        let device = Cml_cells.Chain.stage_name dut ^ ".q3" in
        Cml_defects.Inject.apply builder.Cml_cells.Builder.net (Cml_defects.Defect.Pipe { device; r })
  in
  (chain, outputs, vout, net)

let detector_response ?(proc = Cml_cells.Process.default) ?(stages = 3) ?(dut = 2) ?max_step
    ?preflight ?guide ~variant ~freq ~pipe ~tstop () =
  let _chain, outputs, vout, net =
    build_monitored ~proc ?preflight ~stages ~dut ~variant ~freq ~pipe ()
  in
  let sim = E.compile net in
  let max_step =
    match max_step with Some h -> h | None -> Float.min 10e-12 (1.0 /. freq /. 50.0)
  in
  let r = T.run ?guide sim net (T.config ~tstop ~max_step ()) in
  let wave nd = Cml_wave.Wave.create r.T.times (T.node_trace r nd) in
  let w_vout = wave vout in
  let w_p = wave outputs.Cml_cells.Builder.p and w_n = wave outputs.Cml_cells.Builder.n in
  (* measure the detector transient from the moment test mode is
     fully engaged (variant 2 ramps vtest over 2-3 ns) *)
  let t_engage = match variant with V1 _ -> 0.0 | V2 _ -> 3e-9 in
  let w_analysis = Cml_wave.Wave.sub_range w_vout ~t_from:t_engage ~t_to:tstop in
  let shift t = Option.map (fun x -> x -. t_engage) t in
  let tstability = shift (Cml_wave.Measure.time_to_stability ~noise:2e-3 w_analysis) in
  let t_settle = shift (Cml_wave.Measure.settling_time w_analysis) in
  let vmax =
    match tstability with
    | Some ts -> Cml_wave.Measure.vmax_after w_vout ~t_from:ts
    | None -> Cml_wave.Wave.vmax w_vout
  in
  let settle = tstop /. 3.0 in
  let lo_p, _ = Cml_wave.Measure.extremes w_p ~t_from:settle in
  let lo_n, _ = Cml_wave.Measure.extremes w_n ~t_from:settle in
  let nominal_low = Cml_cells.Process.v_low proc in
  let excursion = Float.max 0.0 (nominal_low -. Float.min lo_p lo_n) in
  let vout_floor, _ = Cml_wave.Measure.extremes w_vout ~t_from:(0.6 *. tstop) in
  {
    vout = w_vout;
    out_p = w_p;
    out_n = w_n;
    tstability;
    t_settle;
    vmax;
    excursion;
    vout_drop = proc.Cml_cells.Process.vgnd -. vout_floor;
  }

type threshold_row = {
  pipe_r : float;
  amplitude : float;
  drop : float;
  detected : bool;
}

let amplitude_thresholds ?(proc = Cml_cells.Process.default) ?(detect_drop = 0.15) ?jobs
    ?preflight ?(warm_start = true) ~variant ~freq ~pipe_values ~tstop () =
  Tel.Trace.with_span ~cat:"experiment" "amplitude_thresholds" @@ fun () ->
  (* a pipe defect adds one resistor across existing nodes, so the
     fault-free monitored chain is layout-compatible with every row
     and its trajectory can seed all of their Newton solves *)
  let guide =
    if warm_start then begin
      let _, _, _, net = build_monitored ~proc ?preflight ~stages:3 ~dut:2 ~variant ~freq ~pipe:None () in
      let sim = E.compile net in
      let max_step = Float.min 10e-12 (1.0 /. freq /. 50.0) in
      Some (T.run sim net (T.config ~tstop ~max_step ()))
    end
    else None
  in
  let row pipe_r =
    Tel.Trace.with_span ~cat:"experiment" "variant" @@ fun () ->
    let resp =
      detector_response ~proc ?preflight ?guide ~variant ~freq ~pipe:(Some pipe_r) ~tstop ()
    in
    {
      pipe_r;
      amplitude = resp.excursion;
      drop = resp.vout_drop;
      detected = resp.vout_drop > detect_drop;
    }
  in
  (* every row builds and simulates its own monitored chain *)
  let rows = Cml_runtime.Pool.parallel_list_map ?jobs row pipe_values in
  let min_detected =
    List.fold_left
      (fun acc r ->
        if not r.detected then acc
        else match acc with None -> Some r.amplitude | Some a -> Some (Float.min a r.amplitude))
      None rows
  in
  (rows, min_detected)

let swing_vs_frequency ?(proc = Cml_cells.Process.default) ?jobs ?(preflight = true) ~pipe
    ~freqs () =
  let one freq =
    Tel.Trace.with_span ~cat:"experiment" "variant" @@ fun () ->
    let chain = Cml_cells.Chain.build ~proc ~stages:3 ~freq () in
    let builder = chain.Cml_cells.Chain.builder in
    if preflight then
      Cml_analysis.Lint.preflight_netlist ~what:"swing-sweep netlist"
        builder.Cml_cells.Builder.net;
    let outputs = Cml_cells.Chain.output chain 2 in
    let net =
      match pipe with
      | None -> builder.Cml_cells.Builder.net
      | Some r ->
          Cml_defects.Inject.apply builder.Cml_cells.Builder.net
            (Cml_defects.Defect.Pipe { device = "x2.q3"; r })
    in
    let sim = E.compile net in
    let periods = 6.0 in
    let tstop = periods /. freq in
    let max_step = Float.min 10e-12 (1.0 /. freq /. 80.0) in
    let r = T.run sim net (T.config ~tstop ~max_step ()) in
    let wave nd = Cml_wave.Wave.create r.T.times (T.node_trace r nd) in
    let w_p = wave outputs.Cml_cells.Builder.p in
    let lo, hi = Cml_wave.Measure.extremes w_p ~t_from:(tstop /. 2.0) in
    (freq, lo, hi)
  in
  Tel.Trace.with_span ~cat:"experiment" "swing_vs_frequency" @@ fun () ->
  Cml_runtime.Pool.parallel_list_map ?jobs one freqs

type hysteresis = {
  sweep : (float * float * float) list;
  switch_down : float option;
  switch_up : float option;
}

let hysteresis ?(proc = Cml_cells.Process.default) ?config ?vtest ?v_min ?(points = 201)
    ?(preflight = true) () =
  let vtest_value = match vtest with Some v -> v | None -> Detector.vtest_test proc in
  let v_min =
    match v_min with Some v -> v | None -> proc.Cml_cells.Process.vgnd -. 0.2
  in
  let b = Cml_cells.Builder.create ~proc () in
  let vtest_node = Detector.ensure_vtest b vtest_value in
  let ro = Readout.attach b ~name:"ro" ~vtest:vtest_node ?config () in
  N.vsource b.Cml_cells.Builder.net ~name:"vdrive" ~pos:ro.Readout.vout ~neg:N.gnd
    (Cml_spice.Waveform.Dc vtest_value);
  if preflight then
    Cml_analysis.Lint.preflight_netlist ~what:"hysteresis-sweep netlist"
      b.Cml_cells.Builder.net;
  let down = Cml_numerics.Vec.linspace vtest_value v_min points in
  let up = Cml_numerics.Vec.linspace v_min vtest_value points in
  let values = Array.append down up in
  let _, sols = Cml_spice.Sweep.vsource_sweep_full b.Cml_cells.Builder.net ~source:"vdrive" ~values in
  let vfb k = E.voltage sols.(k) ro.Readout.vfb in
  let flag k = E.voltage sols.(k) ro.Readout.flag in
  let sweep = List.init (Array.length values) (fun k -> (values.(k), vfb k, flag k)) in
  let find lo hi =
    let rec go k acc =
      if k > hi then acc
      else if Float.abs (vfb k -. vfb (k - 1)) > 0.04 then go (k + 1) (Some values.(k))
      else go (k + 1) acc
    in
    go (lo + 1) None
  in
  {
    sweep;
    switch_down = find 0 (points - 1);
    switch_up = find points ((2 * points) - 1);
  }

type phase_response = {
  static_false : float;
  static_true : float;
  toggling : float;
}

let phase_sensitivity ?(proc = Cml_cells.Process.default) ?(preflight = true) ~variant ~pipe
    ~freq ~tstop () =
  let run stim =
    let b = Cml_cells.Builder.create ~proc () in
    let input =
      match stim with
      | `Static v -> Cml_cells.Builder.diff_dc_input b ~name:"ia" ~value:v
      | `Toggle -> Cml_cells.Builder.diff_square_input b ~name:"ia" ~freq ()
    in
    let out = Cml_cells.Buffer_cell.add b ~name:"g" ~input in
    let vout =
      match variant with
      | V1 cfg -> Detector.attach_v1 b ~name:"det" ~outputs:out cfg
      | V2 { cfg; vtest } ->
          let vt = Detector.ensure_vtest b vtest in
          Detector.attach_v2 b ~name:"det" ~outputs:out ~vtest:vt cfg
    in
    if preflight then
      Cml_analysis.Lint.preflight_netlist ~what:"phase-sensitivity netlist"
        b.Cml_cells.Builder.net;
    let net =
      Cml_defects.Inject.apply b.Cml_cells.Builder.net
        (Cml_defects.Defect.Pipe { device = "g.q3"; r = pipe })
    in
    let sim = E.compile net in
    let r = T.run sim net (T.config ~tstop ~max_step:10e-12 ()) in
    let w = Cml_wave.Wave.create r.T.times (T.node_trace r vout) in
    let vmin, _ = Cml_wave.Measure.extremes w ~t_from:(0.6 *. tstop) in
    proc.Cml_cells.Process.vgnd -. vmin
  in
  {
    static_false = run (`Static false);
    static_true = run (`Static true);
    toggling = run `Toggle;
  }
