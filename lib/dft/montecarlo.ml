module E = Cml_spice.Engine
module Tel = Cml_telemetry

type result = {
  samples : int;
  false_alarms : int;
  missed : int;
  good_vout_min : float;
  good_vout_max : float;
  bad_vout_max : float;
  separation : float;
  good_vouts : float array;
  bad_vouts : float array;
  sample_reports : Tel.Manifest.variant list;
  metrics : Tel.Metrics.snapshot;
  utilization : Tel.Events.domain_util list;
  wall_s : float;
}

let m_samples = Tel.Metrics.counter "montecarlo.samples"
let m_sample_seconds = Tel.Metrics.histogram "montecarlo.sample_seconds"

let run ?(proc = Cml_cells.Process.default) ?(spec = Cml_defects.Variation.default_spec)
    ?(n = 10) ?defect ?(multi_emitter = true) ?jobs ?(warm_start = true) ?manifest ~samples
    ~seed () =
  let defect =
    match defect with
    | Some d -> d
    | None ->
        Cml_defects.Defect.Pipe
          { device = Printf.sprintf "x%d.q3" (((n - 1) / 2) + 1); r = 4e3 }
  in
  (* each sample derives its own perturbed netlist from (seed + k)
     and compiles a fresh sim, so samples are independent tasks *)
  let setup () =
    let built = Sharing.build ~proc ~multi_emitter ~n () in
    let golden = built.Sharing.builder.Cml_cells.Builder.net in
    let faulty = Cml_defects.Inject.apply golden defect in
    let vtest_value = Detector.vtest_test proc in
    let lo, hi = Readout.thresholds Readout.default_config ~vtest:vtest_value in
    let decision = (lo +. hi) /. 2.0 in
    (* the unperturbed operating points: process variation moves
       values, not topology, so every perturbed sample's Newton solve
       can start from its netlist's nominal solution ([dc_from] falls
       back to the homotopy ladder when a sample strays too far) *)
    let nominal net =
      if warm_start then Some (E.dc_operating_point (E.compile net)) else None
    in
    let x_good = nominal golden and x_bad = nominal faulty in
    let measure net x_nom k =
      let perturbed = Cml_defects.Variation.perturb ~spec ~seed:(seed + k) net in
      let sim = E.compile perturbed in
      let x =
        match x_nom with
        | Some x0 when Array.length x0 = E.unknown_count sim -> E.dc_from sim x0
        | Some _ | None -> E.dc_operating_point sim
      in
      E.publish_metrics sim;
      let vfb = E.voltage x built.Sharing.readout.Readout.vfb in
      let vout = E.voltage x built.Sharing.readout.Readout.vout in
      (vfb > decision, vout)
    in
    fun k ->
      let good = measure golden x_good k and bad = measure faulty x_bad k in
      (good, bad)
  in
  let sample measure k =
    let ((flagged_good, vout_good), (flagged_bad, vout_bad)) as outcome = measure k in
    Tel.Metrics.incr m_samples;
    ( outcome,
      {
        Cml_runtime.Run.classes =
          ((if flagged_good then [ "false-alarm" ] else [])
          @ if flagged_bad then [ "detected" ] else [ "missed" ]);
        healing = None;
        failed = false;
        steps = 0 (* DC-only: no transient steps *);
        metrics = [ ("good_vout", vout_good); ("bad_vout", vout_bad) ];
      } )
  in
  let r =
    Cml_runtime.Run.run ~kind:"montecarlo" ~variant_span:"sample"
      ~span_args:(fun k -> [ ("sample", Tel.Trace.I k) ])
      ?jobs ~seed
      ~options:
        [
          ("n", string_of_int n);
          ("samples", string_of_int samples);
          ("defect", Cml_defects.Defect.describe defect);
          ("warm_start", string_of_bool warm_start);
        ]
      ?manifest ~seconds:m_sample_seconds ~name:(Printf.sprintf "sample %d") ~setup
      ~variant:sample (List.init samples Fun.id)
  in
  let count p = List.length (List.filter p r.results) in
  let good_vouts = Array.of_list (List.map (fun ((_, v), _) -> v) r.results) in
  let bad_vouts = Array.of_list (List.map (fun (_, (_, v)) -> v) r.results) in
  let gmin = Cml_numerics.Stats.minimum good_vouts in
  {
    samples;
    false_alarms = count (fun ((flagged, _), _) -> flagged);
    missed = count (fun (_, (flagged, _)) -> not flagged);
    good_vout_min = gmin;
    good_vout_max = Cml_numerics.Stats.maximum good_vouts;
    bad_vout_max = Cml_numerics.Stats.maximum bad_vouts;
    separation = gmin -. Cml_numerics.Stats.maximum bad_vouts;
    good_vouts;
    bad_vouts;
    sample_reports = r.variants;
    metrics = r.metrics;
    utilization = r.utilization;
    wall_s = r.wall_s;
  }
