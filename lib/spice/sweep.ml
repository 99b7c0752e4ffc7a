(* The sweep re-uses the transient machinery's trick of evaluating
   sources at a "time": the swept source's waveform is replaced by a
   piecewise-linear map from the point index to the swept value, so a
   single compiled sim serves every point and warm starts carry the
   hysteresis state. *)

let m_points = Cml_telemetry.Metrics.counter "sweep.points"

let vsource_sweep_full ?options ?(warm_start = true) net ~source ~values =
  let net = Netlist.copy net in
  (match Netlist.get_device net source with
  | Netlist.Vsource v ->
      let knots = Array.mapi (fun i x -> (float_of_int i, x)) values in
      Netlist.set_device net source (Netlist.Vsource { v with wave = Waveform.Pwl knots })
  | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Diode _ | Netlist.Bjt _
  | Netlist.Isource _ | Netlist.Vcvs _ | Netlist.Vccs _ ->
      raise Not_found);
  let sim = Engine.compile ?options net in
  let n = Array.length values in
  let out = Array.make n [||] in
  let stats0 = Engine.snapshot sim in
  let span = Cml_telemetry.Trace.start () in
  let prev = ref None in
  for i = 0 to n - 1 do
    let time = float_of_int i in
    let x =
      match !prev with
      | None -> Engine.dc_operating_point ~time sim
      | Some x0 -> Engine.dc_from ~time sim x0
    in
    out.(i) <- x;
    if warm_start then prev := Some x
  done;
  Cml_telemetry.Metrics.add m_points n;
  Engine.publish_metrics ~since:stats0 sim;
  Cml_telemetry.Trace.finish ~cat:"sim" "sweep" span;
  (sim, out)

let vsource_sweep ?options ?warm_start net ~source ~values =
  snd (vsource_sweep_full ?options ?warm_start net ~source ~values)
