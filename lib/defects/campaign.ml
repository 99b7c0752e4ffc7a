module E = Cml_spice.Engine
module T = Cml_spice.Transient

type measurement = {
  dut_vlow : float;
  dut_vhigh : float;
  dut_swing : float;
  final_vlow : float;
  final_vhigh : float;
  final_swing : float;
  final_delay : float option;
  supply_current : float;
  degraded_at : int option;
  healing_depth : int option;
}

type flags = {
  stuck : bool;
  excessive_excursion : bool;
  reduced_swing : bool;
  delay_detectable : bool;
  iddq_detectable : bool;
  healed : bool;
}

type outcome = Measured of measurement * flags | Failed of string

type entry = { defect : Defect.t; outcome : outcome }

(* [variants] and [metrics] are telemetry riding alongside the
   deterministic [entries]: per-variant wall time and solver stats for
   the run manifest, and the metrics-registry movement over the whole
   campaign.  They are kept out of [entry] so a parallel run's entries
   stay structurally equal to a sequential run's. *)
type t = {
  reference : measurement;
  entries : entry list;
  variants : Cml_telemetry.Manifest.variant list;
  metrics : Cml_telemetry.Metrics.snapshot;
  utilization : Cml_telemetry.Events.domain_util list;
      (* per-domain busy/idle attribution over the variant phase *)
  wall_s : float;
}

(* The design adapter: all a campaign core needs to know about the
   circuit under attack.  [probes] names the unknowns to stream from a
   compiled sim (the supply branch index depends on its layout);
   [analyze] turns a finished run's probes into a measurement plus the
   robust output plateau levels.  The core passes the reference run's
   levels back as [nominal] for every variant, so a design with a
   stage chain can fill in its healing profile. *)
type design = {
  probes : E.sim -> (string * int) list;
  analyze : ?nominal:float * float -> T.observers -> measurement * (float * float);
}

let supply_probe sim probes =
  match E.branch_unknown sim "vdd" with
  | exception Not_found -> probes
  | br -> ("i(vdd)", br) :: probes

let diff_probes name (d : Cml_cells.Builder.diff) =
  [
    (name ^ ".p", E.node_unknown d.Cml_cells.Builder.p);
    (name ^ ".n", E.node_unknown d.Cml_cells.Builder.n);
  ]

(* The measurement both designs share, from the probe pairs [in],
   [dut] and [final] and the optional supply branch.  Everything the
   classifier needs comes from the observers, which see every accepted
   step, never from the (thinned or absent) dense trajectory. *)
let measure_probes obs ~dut ~final ~freq ~tstop =
  let wave name =
    let times, values = T.probe_samples obs name in
    Cml_wave.Wave.create times values
  in
  let t_from = tstop /. 2.0 in
  let supply_current =
    match wave "i(vdd)" with
    | exception Not_found -> 0.0
    | w ->
        let w = Cml_wave.Wave.map Float.abs w in
        Cml_wave.Wave.mean (Cml_wave.Wave.sub_range w ~t_from ~t_to:(Cml_wave.Wave.t_end w))
  in
  let wp_dut = wave (dut ^ ".p") and wn_dut = wave (dut ^ ".n") in
  let wp_fin = wave (final ^ ".p") and wn_fin = wave (final ^ ".n") in
  let lo_p, hi_p = Cml_wave.Measure.extremes wp_dut ~t_from in
  let lo_n, hi_n = Cml_wave.Measure.extremes wn_dut ~t_from in
  let lo_fp, hi_fp = Cml_wave.Measure.extremes wp_fin ~t_from in
  let lo_fn, hi_fn = Cml_wave.Measure.extremes wn_fin ~t_from in
  (* delay from the input pair's actual crossing to the final
     output's next actual crossing *)
  let w_in_p = wave "in.p" and w_in_n = wave "in.n" in
  let final_delay =
    match
      List.find_opt (fun t -> t >= t_from) (Cml_wave.Measure.differential_crossings w_in_p w_in_n)
    with
    | None -> None
    | Some t0 -> (
        match
          List.find_opt (fun t -> t > t0)
            (Cml_wave.Measure.differential_crossings wp_fin wn_fin)
        with
        | None -> None
        | Some t1 when t1 -. t0 < 0.75 /. freq -> Some (t1 -. t0)
        | Some _ -> None)
  in
  ( {
      dut_vlow = Float.min lo_p lo_n;
      dut_vhigh = Float.max hi_p hi_n;
      dut_swing = hi_p -. lo_p;
      final_vlow = Float.min lo_fp lo_fn;
      final_vhigh = Float.max hi_fp hi_fn;
      final_swing = hi_fp -. lo_fp;
      final_delay;
      supply_current;
      degraded_at = None;
      healing_depth = None;
    },
    Cml_wave.Measure.levels wp_fin ~t_from )

(* The buffer chain: both outputs of every stage are probed, so given
   the fault-free output levels the per-stage healing profile
   ({!Cml_wave.Health.profile}) locates where a degradation starts and
   how many stages it needs to recover. *)
let chain_design chain ~freq ~tstop ~dut =
  let stages = Array.length chain.Cml_cells.Chain.stages in
  let name i = Cml_cells.Chain.stage_name i in
  let probes sim =
    supply_probe sim
      (diff_probes "in" chain.Cml_cells.Chain.input
      @ List.concat
          (List.init stages (fun i ->
               diff_probes (name (i + 1)) (Cml_cells.Chain.output chain (i + 1)))))
  in
  let analyze ?nominal obs =
    let m, levels = measure_probes obs ~dut:(name dut) ~final:(name stages) ~freq ~tstop in
    match nominal with
    | None -> (m, levels)
    | Some (nominal_low, nominal_high) ->
        let stage_waves =
          List.init stages (fun i ->
              let times, values = T.probe_samples obs (name (i + 1) ^ ".p") in
              (name (i + 1), Cml_wave.Wave.create times values))
        in
        let p =
          Cml_wave.Health.profile ~nominal_low ~nominal_high ~t_from:(tstop /. 2.0) stage_waves
        in
        ( {
            m with
            degraded_at = p.Cml_wave.Health.first_degraded;
            healing_depth = p.Cml_wave.Health.healing_depth;
          },
          levels )
  in
  { probes; analyze }

(* A compiled design probes the attacked cell's output pair and one
   primary output.  There is no stage chain, so it has no healing
   profile ([degraded_at] and [healing_depth] stay [None]). *)
let compiled_design ~input ~dut ~final ~freq ~tstop =
  let probes sim =
    supply_probe sim (diff_probes "in" input @ diff_probes "dut" dut @ diff_probes "fin" final)
  in
  let analyze ?nominal:_ obs = measure_probes obs ~dut:"dut" ~final:"fin" ~freq ~tstop in
  { probes; analyze }

(* One transient of [net] with the design's probes attached. *)
let simulate ?engine_options ?guide ?breakpoints ?(record_every = 1) ?nominal design net ~tstop =
  let sim = E.compile ?options:engine_options net in
  let cfg = T.config ~tstop ~max_step:10e-12 ~record_every () in
  let obs = T.observers (design.probes sim) in
  let r = T.run ?guide ?breakpoints ~observers:obs sim net cfg in
  let m, levels = design.analyze ?nominal obs in
  (m, r, levels)

let measure_chain ?engine_options ?guide ?breakpoints ?record_every ?nominal chain net ~freq
    ~tstop ~dut =
  let m, _, _ =
    simulate ?engine_options ?guide ?breakpoints ?record_every ?nominal
      (chain_design chain ~freq ~tstop ~dut)
      net ~tstop
  in
  m

let classify ~proc ~reference m =
  let swing = proc.Cml_cells.Process.swing in
  let stuck = m.final_swing < 0.5 *. swing in
  let excessive_excursion = m.dut_vlow < reference.dut_vlow -. 0.1 in
  let reduced_swing = (not stuck) && m.dut_swing < 0.6 *. swing in
  let delay_detectable =
    match (m.final_delay, reference.final_delay) with
    | Some d, Some d0 -> Float.abs (d -. d0) > 0.2 *. d0
    | None, Some _ -> not stuck  (* toggles but missed the window: gross delay shift *)
    | _, None -> false
  in
  let final_nominal =
    (not stuck)
    && Float.abs (m.final_vlow -. reference.final_vlow) < 0.2 *. swing
    && Float.abs (m.final_vhigh -. reference.final_vhigh) < 0.2 *. swing
    && Float.abs (m.final_swing -. reference.final_swing) < 0.2 *. swing
  in
  let iddq_detectable = m.supply_current > 1.15 *. reference.supply_current in
  let degraded_at_dut = excessive_excursion || reduced_swing || m.dut_vhigh > reference.dut_vhigh +. 0.1 in
  {
    stuck;
    excessive_excursion;
    reduced_swing;
    delay_detectable;
    iddq_detectable;
    healed = degraded_at_dut && final_nominal;
  }

(* Classification labels shared by [summary], the run manifest and
   [cmldft report]: a manifest's class histogram must reproduce the
   summary's counts label for label. *)
let flag_labels f =
  List.filter_map
    (fun (label, on) -> if on then Some label else None)
    [
      ("stuck-at", f.stuck);
      ("excessive-excursion", f.excessive_excursion);
      ("reduced-swing", f.reduced_swing);
      ("delay-detectable", f.delay_detectable);
      ("iddq-detectable", f.iddq_detectable);
      ("healed", f.healed);
    ]

let variant_of_entry entry ~seconds ~stats =
  let classes, meas =
    match entry.outcome with
    | Failed _ -> ([ "failed" ], [])
    | Measured (m, fl) ->
        ( flag_labels fl,
          [
            ("dut_vlow", m.dut_vlow);
            ("dut_swing", m.dut_swing);
            ("final_swing", m.final_swing);
            ("supply_current", m.supply_current);
          ] )
  in
  let healing =
    match entry.outcome with
    | Measured ({ healing_depth = Some d; _ }, _) -> [ ("healing_depth", float_of_int d) ]
    | Measured _ | Failed _ -> []
  in
  let solver =
    match stats with
    | None -> []
    | Some s -> E.counter_fields ~groups:[ E.Step; E.Newton; E.Load ] s
  in
  {
    Cml_telemetry.Manifest.v_name = Defect.describe entry.defect;
    v_classes = classes;
    v_seconds = seconds;
    v_metrics = meas @ healing @ solver;
  }

(* Healing label of one measured entry: how many stages a degraded
   variant needed to recover ("depth=N"), "unhealed" for degradations
   that persist to the chain output, "clean" otherwise.  Shared by the
   manifest histogram and the per-variant run events. *)
let healing_label e =
  match e.outcome with
  | Failed _ -> None
  | Measured (m, _) -> (
      match (m.degraded_at, m.healing_depth) with
      | None, _ -> Some "clean"
      | Some _, Some d -> Some (Printf.sprintf "depth=%d" d)
      | Some _, None -> Some "unhealed")

let healing_histogram entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match healing_label e with
      | None -> ()
      | Some l -> Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    entries;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* The run-event view of a finished variant (index-addressed so the
   stream reassembles in run order whatever domain ran it). *)
let event_variant ~idx entry ~seconds ~stats =
  {
    Cml_telemetry.Events.ev_idx = idx;
    ev_name = Defect.describe entry.defect;
    ev_classes =
      (match entry.outcome with Failed _ -> [ "failed" ] | Measured (_, fl) -> flag_labels fl);
    ev_healing = healing_label entry;
    ev_failed = (match entry.outcome with Failed _ -> true | Measured _ -> false);
    ev_steps = (match stats with Some s -> s.E.accepted_steps | None -> 0);
    ev_seconds = seconds;
  }

(* Per-domain utilization rows for this run: pool counters diffed
   against the snapshot taken at run start, busy ratio against the
   run's wall clock (also published as gauges). *)
let utilization_rows ~wall_s before =
  List.map
    (fun (dom, (d : Cml_runtime.Pool.domain_stats)) ->
      Cml_telemetry.Events.util_row ~wall_s ~domain:dom ~busy_ns:d.Cml_runtime.Pool.busy_ns
        ~items:d.Cml_runtime.Pool.items ~longest_stall_ns:d.Cml_runtime.Pool.longest_stall_ns)
    (Cml_runtime.Pool.utilization_since before)

let to_manifest ?seed ?(options = []) t =
  let spans = Cml_telemetry.Trace.aggregate (Cml_telemetry.Trace.peek ()) in
  Cml_telemetry.Manifest.create ?seed ~options ~healing:(healing_histogram t.entries)
    ~variants:t.variants ~metrics:t.metrics ~spans ~kind:"campaign" ()

(* The campaign core, shared by the chain and compiled designs: lint
   the golden netlist, simulate it once as the reference (and the
   warm-start guide), then inject, compile, simulate and classify one
   defect per pool task.  [options] is the caller's context for the
   run options; the core appends its own. *)
let campaign ~design ~proc ~tstop ?jobs ~preflight ~warm_start ?max_iter ?manifest ~options
    ~golden ~defects () =
  let engine_options =
    Option.map (fun n -> { E.default_options with E.max_iter = n }) max_iter
  in
  let snap0 = Cml_telemetry.Metrics.snapshot () in
  let span = Cml_telemetry.Trace.start () in
  if preflight then
    Cml_analysis.Lint.preflight_netlist ~what:"campaign golden netlist" golden;
  (* the stimulus is shared by every variant, and defect injection
     only ever adds resistors and capacitors, so the fault-free
     breakpoint schedule is valid for all of them *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let reference, ref_traj, nominal =
    simulate ?engine_options ~breakpoints design golden ~tstop
  in
  (* the nominal trajectory seeds every variant's Newton solves;
     [T.run] ignores it for variants whose defect changed the unknown
     layout (an open adds a node) and falls back to cold seeding
     whenever the variant diverges from the nominal path *)
  let guide = if warm_start then Some ref_traj else None in
  let run_options =
    options
    @ [
        ("warm_start", string_of_bool warm_start);
        ("defects", string_of_int (List.length defects));
      ]
    @ match max_iter with None -> [] | Some n -> [ ("max_iter", string_of_int n) ]
  in
  let ev_run =
    Cml_telemetry.Events.run_start ~kind:"campaign" ~total:(List.length defects) ?jobs
      ~options:run_options ()
  in
  let util0 = Cml_runtime.Pool.utilization () in
  Cml_runtime.Pool.reset_stall_watermarks ();
  let wall_t0 = Cml_telemetry.Clock.now_ns () in
  (* one compiled sim per defect ([Inject.apply] copies the netlist,
     [simulate] compiles its own engine), so tasks share only
     read-only state and can run on worker domains *)
  let run_one (idx, defect) =
    Cml_telemetry.Progress.variant_start (Defect.describe defect);
    let tok = Cml_telemetry.Trace.start () in
    let t0 = Cml_telemetry.Clock.now_ns () in
    let entry, stats =
      match Inject.apply golden defect with
      | exception (Not_found | Invalid_argument _) ->
          ({ defect; outcome = Failed "injection failed" }, None)
      | faulty -> (
          (* classification reads the streamed probes, so variants
             keep no dense trajectory; the reference keeps all of it
             because the guide seeds from its rows *)
          match
            simulate ?engine_options ?guide ~breakpoints ~record_every:0 ~nominal design faulty
              ~tstop
          with
          | m, r, _ ->
              ({ defect; outcome = Measured (m, classify ~proc ~reference m) }, Some r.T.stats)
          | exception E.No_convergence msg -> ({ defect; outcome = Failed msg }, None))
    in
    let seconds = Cml_telemetry.Clock.ns_to_s (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) in
    Cml_telemetry.Trace.finish ~cat:"campaign"
      ~args:
        (if tok >= 0L then [ ("defect", Cml_telemetry.Trace.S (Defect.describe defect)) ]
         else [])
      "variant" tok;
    Cml_telemetry.Progress.variant_finish
      ~failed:(match entry.outcome with Failed _ -> true | Measured _ -> false);
    Cml_telemetry.Events.variant_done ev_run (event_variant ~idx entry ~seconds ~stats);
    (entry, variant_of_entry entry ~seconds ~stats)
  in
  let results =
    Cml_runtime.Pool.parallel_list_map ?jobs run_one (List.mapi (fun i d -> (i, d)) defects)
  in
  Cml_telemetry.Trace.finish ~cat:"campaign" "campaign" span;
  let wall_s = Cml_telemetry.Clock.ns_to_s (Int64.sub (Cml_telemetry.Clock.now_ns ()) wall_t0) in
  let utilization = utilization_rows ~wall_s util0 in
  let metrics = Cml_telemetry.Metrics.diff snap0 (Cml_telemetry.Metrics.snapshot ()) in
  let t =
    {
      reference;
      entries = List.map fst results;
      variants = List.map snd results;
      metrics;
      utilization;
      wall_s;
    }
  in
  Cml_telemetry.Events.finish ev_run
    ~classes:(Cml_telemetry.Manifest.class_histogram (to_manifest t))
    ~wall_s ~utilization;
  (match manifest with
  | None -> ()
  | Some path -> Cml_telemetry.Manifest.write ~path (to_manifest ~options:run_options t));
  t

let run ?(proc = Cml_cells.Process.default) ?(freq = 100e6) ?(stages = 8) ?dut ?tstop ?jobs
    ?(preflight = true) ?(warm_start = true) ?max_iter ?manifest ~defects () =
  let dut = match dut with Some d -> d | None -> Cml_cells.Chain.dut_stage in
  let tstop = match tstop with Some t -> t | None -> 2.0 /. freq in
  let chain = Cml_cells.Chain.build ~proc ~stages ~freq () in
  campaign
    ~design:(chain_design chain ~freq ~tstop ~dut)
    ~proc ~tstop ?jobs ~preflight ~warm_start ?max_iter ?manifest
    ~options:
      [
        ("freq", Printf.sprintf "%g" freq);
        ("stages", string_of_int stages);
        ("dut", string_of_int dut);
        ("tstop", Printf.sprintf "%g" tstop);
      ]
    ~golden:chain.Cml_cells.Chain.builder.Cml_cells.Builder.net ~defects ()

let run_design ?(proc = Cml_cells.Process.default) ?(freq = 100e6) ?tstop ?jobs
    ?(preflight = true) ?(warm_start = true) ?max_iter ?manifest ?(options = []) ~golden ~input
    ~dut ~final ~defects () =
  let tstop = match tstop with Some t -> t | None -> 2.0 /. freq in
  campaign
    ~design:(compiled_design ~input ~dut ~final ~freq ~tstop)
    ~proc ~tstop ?jobs ~preflight ~warm_start ?max_iter ?manifest
    ~options:
      (options @ [ ("freq", Printf.sprintf "%g" freq); ("tstop", Printf.sprintf "%g" tstop) ])
    ~golden ~defects ()

let summary t =
  let count p = List.length (List.filter p t.entries) in
  let flagged f = count (fun e -> match e.outcome with Measured (_, fl) -> f fl | Failed _ -> false) in
  [
    ("defects", List.length t.entries);
    ("stuck-at", flagged (fun f -> f.stuck));
    ("excessive-excursion", flagged (fun f -> f.excessive_excursion));
    ("excursion-not-stuck", flagged (fun f -> f.excessive_excursion && not f.stuck));
    ("reduced-swing", flagged (fun f -> f.reduced_swing));
    ("delay-detectable", flagged (fun f -> f.delay_detectable));
    ("iddq-detectable", flagged (fun f -> f.iddq_detectable));
    ("healed", flagged (fun f -> f.healed));
    ( "benign",
      flagged (fun f ->
          not (f.stuck || f.excessive_excursion || f.reduced_swing || f.delay_detectable)) );
    ("failed", count (fun e -> match e.outcome with Failed _ -> true | Measured _ -> false));
  ]
