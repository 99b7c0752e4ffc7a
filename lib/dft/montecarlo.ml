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

let to_manifest ?seed ?(options = []) r =
  let spans = Tel.Trace.aggregate (Tel.Trace.peek ()) in
  Tel.Manifest.create ?seed ~options ~variants:r.sample_reports ~metrics:r.metrics ~spans
    ~kind:"montecarlo" ()

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
  let snap0 = Tel.Metrics.snapshot () in
  let span = Tel.Trace.start () in
  let built = Sharing.build ~proc ~multi_emitter ~n () in
  let golden = built.Sharing.builder.Cml_cells.Builder.net in
  let faulty = Cml_defects.Inject.apply golden defect in
  let vtest_value = Detector.vtest_test proc in
  let lo, hi = Readout.thresholds Readout.default_config ~vtest:vtest_value in
  let decision = (lo +. hi) /. 2.0 in
  (* the unperturbed operating points: process variation moves values,
     not topology, so every perturbed sample's Newton solve can start
     from its netlist's nominal solution ([dc_from] falls back to the
     homotopy ladder when a sample strays too far) *)
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
  (* each sample derives its own perturbed netlist from (seed + k)
     and compiles a fresh sim, so samples are independent tasks *)
  let run_options =
    [
      ("n", string_of_int n);
      ("samples", string_of_int samples);
      ("defect", Cml_defects.Defect.describe defect);
      ("warm_start", string_of_bool warm_start);
    ]
  in
  let ev_run =
    Tel.Events.run_start ~kind:"montecarlo" ~total:samples ?jobs ~options:run_options ()
  in
  let util0 = Cml_runtime.Pool.utilization () in
  Cml_runtime.Pool.reset_stall_watermarks ();
  let wall_t0 = Tel.Clock.now_ns () in
  let outcomes =
    Cml_runtime.Pool.parallel_map ?jobs
      (fun k ->
        let name = Printf.sprintf "sample %d" k in
        Tel.Progress.variant_start name;
        let tok = Tel.Trace.start () in
        let t0 = Tel.Clock.now_ns () in
        let good = measure golden x_good k and bad = measure faulty x_bad k in
        let seconds = Tel.Clock.ns_to_s (Int64.sub (Tel.Clock.now_ns ()) t0) in
        Tel.Metrics.incr m_samples;
        Tel.Metrics.observe m_sample_seconds seconds;
        Tel.Trace.finish ~cat:"montecarlo"
          ~args:(if tok >= 0L then [ ("sample", Tel.Trace.I k) ] else [])
          "sample" tok;
        Tel.Progress.variant_finish ~failed:false;
        let flagged_good, _ = good and flagged_bad, _ = bad in
        Tel.Events.variant_done ev_run
          {
            Tel.Events.ev_idx = k;
            ev_name = name;
            ev_classes =
              ((if flagged_good then [ "false-alarm" ] else [])
              @ if flagged_bad then [ "detected" ] else [ "missed" ]);
            ev_healing = None;
            ev_failed = false;
            ev_steps = 0;  (* DC-only: no transient steps *)
            ev_seconds = seconds;
          };
        (good, bad, seconds))
      (Array.init samples Fun.id)
  in
  let false_alarms = ref 0 and missed = ref 0 in
  let good_vouts = Array.make samples 0.0 and bad_vouts = Array.make samples 0.0 in
  let sample_reports = ref [] in
  Array.iteri
    (fun k ((flagged_good, vout_good), (flagged_bad, vout_bad), seconds) ->
      if flagged_good then incr false_alarms;
      good_vouts.(k) <- vout_good;
      if not flagged_bad then incr missed;
      bad_vouts.(k) <- vout_bad;
      let classes =
        (if flagged_good then [ "false-alarm" ] else [])
        @ if flagged_bad then [ "detected" ] else [ "missed" ]
      in
      sample_reports :=
        {
          Tel.Manifest.v_name = Printf.sprintf "sample %d" k;
          v_classes = classes;
          v_seconds = seconds;
          v_metrics = [ ("good_vout", vout_good); ("bad_vout", vout_bad) ];
        }
        :: !sample_reports)
    outcomes;
  Tel.Trace.finish ~cat:"montecarlo" "montecarlo" span;
  let wall_s = Tel.Clock.ns_to_s (Int64.sub (Tel.Clock.now_ns ()) wall_t0) in
  let utilization =
    List.map
      (fun (dom, (d : Cml_runtime.Pool.domain_stats)) ->
        Tel.Events.util_row ~wall_s ~domain:dom ~busy_ns:d.Cml_runtime.Pool.busy_ns
          ~items:d.Cml_runtime.Pool.items ~longest_stall_ns:d.Cml_runtime.Pool.longest_stall_ns)
      (Cml_runtime.Pool.utilization_since util0)
  in
  let metrics = Tel.Metrics.diff snap0 (Tel.Metrics.snapshot ()) in
  let gmin = Cml_numerics.Stats.minimum good_vouts in
  let r =
    {
      samples;
      false_alarms = !false_alarms;
      missed = !missed;
      good_vout_min = gmin;
      good_vout_max = Cml_numerics.Stats.maximum good_vouts;
      bad_vout_max = Cml_numerics.Stats.maximum bad_vouts;
      separation = gmin -. Cml_numerics.Stats.maximum bad_vouts;
      good_vouts;
      bad_vouts;
      sample_reports = List.rev !sample_reports;
      metrics;
      utilization;
      wall_s;
    }
  in
  Tel.Events.finish ev_run
    ~classes:(Tel.Manifest.class_histogram (to_manifest r))
    ~wall_s ~utilization;
  (match manifest with
  | None -> ()
  | Some path -> Tel.Manifest.write ~path (to_manifest ~seed ~options:run_options r));
  r
