module E = Cml_spice.Engine
module T = Cml_spice.Transient
module B = Cml_cells.Builder
module Cp = Cml_cells.Compile

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

type target = Chain of { stages : int; dut : int } | Bench of { path : string; cell : string option }

exception Bad_target of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_target s)) fmt

type resolved = {
  target : target;
  freq : float;
  builder : B.t;
  design : Cp.t option;
  input : B.diff;
  dut_name : string;
  dut : B.diff;
  monitored : (string * B.diff) list;
  final_name : string;
  final : B.diff;
  digest : string option;
  defects : Defect.t list;
}

let target ?bench dut =
  let stages = 8 in
  match (bench, dut) with
  | Some path, cell -> Bench { path; cell }
  | None, None -> Chain { stages; dut = Cml_cells.Chain.dut_stage }
  | None, Some s -> (
      match Scanf.sscanf s "x%u%!" Fun.id with
      | k when Cml_cells.Chain.stage_name k = s -> Chain { stages; dut = k }
      | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) ->
          bad "%S names no chain stage (x1..x%d)" s stages)

let chain_rows (chain : Cml_cells.Chain.t) =
  List.init (Array.length chain.Cml_cells.Chain.stages) (fun i ->
      (Cml_cells.Chain.stage_name (i + 1), Cml_cells.Chain.output chain (i + 1)))

let resolve ?proc ?(pipe_values = [ 1e3; 4e3 ]) ~freq target =
  let resolved target builder design digest ~input ~dut_name ~monitored ~final_name =
    let row name = List.assoc name monitored in
    {
      target;
      freq;
      builder;
      design;
      input;
      dut_name;
      dut = row dut_name;
      monitored;
      final_name;
      final = row final_name;
      digest;
      defects = Sites.enumerate builder.B.net ~prefix:dut_name ~pipe_values;
    }
  in
  match target with
  | Chain { stages; dut } ->
      if dut < 1 || dut > stages then
        bad "stage x%d is outside the %d-stage chain (x1..x%d)" dut stages stages;
      let chain = Cml_cells.Chain.build ?proc ~stages ~freq () in
      resolved target chain.Cml_cells.Chain.builder None None ~input:chain.Cml_cells.Chain.input
        ~dut_name:(Cml_cells.Chain.stage_name dut) ~monitored:(chain_rows chain)
        ~final_name:(Cml_cells.Chain.stage_name stages)
  | Bench { path; cell } ->
      let text =
        try In_channel.with_open_bin path In_channel.input_all with Sys_error msg -> bad "%s" msg
      in
      let design, cell =
        try
          let design = Cp.compile ?proc ~freq (Cml_logic.Bench_format.of_string text) in
          (design, match cell with Some c -> c | None -> Cp.default_dut design)
        with
        | Cml_logic.Bench_format.Parse_error { line; message } ->
            bad "%s: bench parse error at line %d: %s" path line message
        | Cp.Degenerate reason -> bad "%s: %s" path reason
      in
      let dut =
        match Cp.find_cell design cell with
        | Some d -> d
        | None -> bad "no compiled cell %S in %s" cell path
      in
      if not (Cp.physical design cell) then
        bad "cell %S is a free complement (no devices, no defect sites)" cell;
      let outputs = design.Cp.outputs in
      (* measured at the last declared output, or at the cell itself
         when the design declares none *)
      resolved (Bench { path; cell = Some cell }) design.Cp.builder (Some design)
        (Some (Digest.to_hex (Digest.string text)))
        ~input:design.Cp.input ~dut_name:cell
        ~monitored:((cell, dut) :: List.filter (fun (nm, _) -> nm <> cell) outputs)
        ~final_name:(if outputs = [] then cell else Cp.default_output design)

(* Run options: the one writer and its reader *)

type spec = {
  target : target option;
  freq : float;
  tstop : float;
  warm_start : bool;
  max_iter : int option;
  defects : int;
  pipe_values : float list;
  digest : string option;
}

(* %g when it reads back to the same float, every digit otherwise *)
let exact x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let spec_options s =
  let freq = [ ("freq", exact s.freq) ] in
  (* key order as in earlier manifests: the chain's geometry follows
     the frequency, a bench design's name leads *)
  (match s.target with
  | None -> freq
  | Some (Chain { stages; dut }) ->
      freq @ [ ("stages", string_of_int stages); ("dut", string_of_int dut) ]
  | Some (Bench { path; cell }) ->
      (("bench", path) :: Option.fold ~none:[] ~some:(fun c -> [ ("dut", c) ]) cell) @ freq)
  @ [
      ("tstop", exact s.tstop);
      ("warm_start", string_of_bool s.warm_start);
      ("defects", string_of_int s.defects);
    ]
  @ Option.fold ~none:[] ~some:(fun n -> [ ("max_iter", string_of_int n) ]) s.max_iter
  @ [ ("pipe_values", String.concat "," (List.map exact s.pipe_values)) ]
  @ Option.fold ~none:[] ~some:(fun d -> [ ("bench_digest", d) ]) s.digest

let spec_of_options options =
  let get key =
    match List.assoc_opt key options with
    | Some v -> v
    | None -> bad "the run options carry no %S: the run cannot be rebuilt" key
  in
  let parse what conv key v =
    match conv v with Some x -> x | None -> bad "option %S = %S is not %s" key v what
  in
  let num key = parse "a number" float_of_string_opt key (get key) in
  let int key = parse "an integer" int_of_string_opt key (get key) in
  let target =
    match List.assoc_opt "bench" options with
    | Some path -> Some (Bench { path; cell = List.assoc_opt "dut" options })
    | None when List.mem_assoc "stages" options ->
        Some (Chain { stages = int "stages"; dut = int "dut" })
    | None -> None
  in
  {
    target;
    freq = num "freq";
    tstop = num "tstop";
    warm_start = parse "a boolean" bool_of_string_opt "warm_start" (get "warm_start");
    max_iter = Option.map (fun _ -> int "max_iter") (List.assoc_opt "max_iter" options);
    defects = int "defects";
    pipe_values =
      (match get "pipe_values" with
      | "" -> []
      | v -> List.map (parse "a number" float_of_string_opt "pipe_values") (String.split_on_char ',' v));
    digest =
      (match target with Some (Bench _) -> Some (get "bench_digest") | _ -> None);
  }

let pipe_values_of defects =
  List.sort_uniq compare
    (List.filter_map (function Defect.Pipe { r; _ } -> Some r | _ -> None) defects)

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

let diff_probes name (d : B.diff) =
  [ (name ^ ".p", E.node_unknown d.B.p); (name ^ ".n", E.node_unknown d.B.n) ]

(* The measurement every design shares, from the probe pairs [in],
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

(* Probes [input] and every pair in [rows].  With [healing] the rows
   are the chain's stages, and given the fault-free output levels the
   per-stage healing profile ({!Cml_wave.Health.profile}) locates where
   a degradation starts and how many stages it needs to recover.  A
   compiled design has no stage chain: it probes the attacked cell and
   one primary output, and [degraded_at] and [healing_depth] stay
   [None]. *)
let design ~healing ~input ~rows ~dut ~final ~freq ~tstop =
  let probes sim =
    supply_probe sim (List.concat_map (fun (name, d) -> diff_probes name d) (("in", input) :: rows))
  in
  let analyze ?nominal obs =
    let m, levels = measure_probes obs ~dut ~final ~freq ~tstop in
    match nominal with
    | Some (nominal_low, nominal_high) when healing ->
        let stage_waves =
          List.map
            (fun (name, _) ->
              let times, values = T.probe_samples obs (name ^ ".p") in
              (name, Cml_wave.Wave.create times values))
            rows
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
    | _ -> (m, levels)
  in
  { probes; analyze }

let compiled_design ~input ~dut ~final =
  design ~healing:false ~input ~rows:[ ("dut", dut); ("fin", final) ] ~dut:"dut" ~final:"fin"

let design_of (r : resolved) =
  match r.target with
  | Chain _ ->
      design ~healing:true ~input:r.input ~rows:r.monitored ~dut:r.dut_name ~final:r.final_name
        ~freq:r.freq
  | Bench _ -> compiled_design ~input:r.input ~dut:r.dut ~final:r.final ~freq:r.freq

(* One transient of [net] on its compiled [sim], with the design's
   probes attached. *)
let simulate ?guide ?breakpoints ?(record_every = 1) ?nominal design sim net ~tstop =
  let cfg = T.config ~tstop ~max_step:10e-12 ~record_every () in
  let obs = T.observers (design.probes sim) in
  let r = T.run ?guide ?breakpoints ~observers:obs sim net cfg in
  let m, levels = design.analyze ?nominal obs in
  (m, r, levels)

let measure_chain ?engine_options ?guide ?breakpoints ?record_every ?nominal chain net ~freq
    ~tstop ~dut =
  let rows = chain_rows chain in
  let design =
    design ~healing:true ~input:chain.Cml_cells.Chain.input ~rows
      ~dut:(Cml_cells.Chain.stage_name dut)
      ~final:(Cml_cells.Chain.stage_name (List.length rows))
      ~freq ~tstop
  in
  let m, _, _ =
    simulate ?guide ?breakpoints ?record_every ?nominal design
      (E.compile ?options:engine_options net)
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

let entry_labels e = match e.outcome with Failed _ -> [ "failed" ] | Measured (_, fl) -> flag_labels fl

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

(* The run driver's view of a finished variant: its labels and
   healing, its accepted steps, and the flat numbers of the manifest
   (measurements and solver counters; none for a failed variant). *)
let report entry ~stats =
  let meas =
    match entry.outcome with
    | Failed _ -> []
    | Measured (m, _) ->
        [
          ("dut_vlow", m.dut_vlow);
          ("dut_swing", m.dut_swing);
          ("final_swing", m.final_swing);
          ("supply_current", m.supply_current);
        ]
        @ Option.fold ~none:[]
            ~some:(fun d -> [ ("healing_depth", float_of_int d) ])
            m.healing_depth
  in
  let solver =
    match stats with
    | None -> []
    | Some s -> E.counter_fields ~groups:[ E.Step; E.Newton; E.Load ] s
  in
  {
    Cml_runtime.Run.classes = entry_labels entry;
    healing = healing_label entry;
    failed = (match entry.outcome with Failed _ -> true | Measured _ -> false);
    steps = (match stats with Some s -> s.E.accepted_steps | None -> 0);
    metrics = meas @ solver;
  }

(* Simulate the golden netlist once as the reference, and return its
   measurement with the function that runs one variant against it:
   inject the defect, compile the faulty netlist, run one transient and
   classify its streamed probes.  A variant also returns its counters
   ([None] when it failed) and its compiled sim with the faulty netlist
   ([None] when the defect did not inject). *)
let prepare ~design ~proc ~(spec : spec) golden =
  let options = Option.map (fun n -> { E.default_options with E.max_iter = n }) spec.max_iter in
  let tstop = spec.tstop in
  (* the stimulus is shared by every variant, and defect injection
     only ever adds resistors and capacitors, so the fault-free
     breakpoint schedule is valid for all of them *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let reference, ref_traj, nominal =
    simulate ~breakpoints design (E.compile ?options golden) golden ~tstop
  in
  (* the nominal trajectory seeds every variant's Newton solves;
     [T.run] ignores it for variants whose defect changed the unknown
     layout (an open adds a node) and falls back to cold seeding
     whenever the variant diverges from the nominal path *)
  let guide = if spec.warm_start then Some ref_traj else None in
  (* variants keep no dense trajectory (classification reads the
     probes); the reference keeps all of it because the guide seeds
     from its rows *)
  let run_variant ?introspect defect =
    match Inject.apply golden defect with
    | exception (Not_found | Invalid_argument _) ->
        ({ defect; outcome = Failed "injection failed" }, None, None)
    | faulty ->
        let sim = E.compile ?options faulty in
        E.set_introspect sim introspect;
        let entry, stats =
          match simulate ?guide ~breakpoints ~record_every:0 ~nominal design sim faulty ~tstop with
          | m, r, _ ->
              ({ defect; outcome = Measured (m, classify ~proc ~reference m) }, Some r.T.stats)
          | exception E.No_convergence msg -> ({ defect; outcome = Failed msg }, None)
        in
        (entry, stats, Some (sim, faulty))
  in
  (reference, run_variant)

(* The campaign core, shared by the chain and compiled designs: lint
   the golden netlist, simulate it once as the reference (and the
   warm-start guide), then run one variant per pool task.  The run
   options are [context] followed by the spec of the run. *)
let campaign ~design ~proc ?jobs ~preflight ?manifest ~context ?target ?digest ~freq ~tstop
    ~warm_start ?max_iter ~golden ~defects () =
  let spec =
    {
      target;
      freq;
      tstop;
      warm_start;
      max_iter;
      defects = List.length defects;
      pipe_values = pipe_values_of defects;
      digest;
    }
  in
  let setup () =
    if preflight then
      Cml_analysis.Lint.preflight_netlist ~what:"campaign golden netlist" golden;
    prepare ~design ~proc ~spec golden
  in
  (* one compiled sim per defect ([Inject.apply] copies the netlist,
     [simulate] compiles its own engine), so tasks share only
     read-only state and can run on worker domains *)
  let variant (_, run_variant) defect =
    let entry, stats, _ = run_variant ?introspect:None defect in
    (entry, report entry ~stats)
  in
  let r =
    Cml_runtime.Run.run ~kind:"campaign" ~variant_span:"variant"
      ~span_args:(fun d -> [ ("defect", Cml_telemetry.Trace.S (Defect.describe d)) ])
      ?jobs ~options:(context @ spec_options spec) ?manifest ~name:Defect.describe ~setup
      ~variant defects
  in
  {
    reference = fst r.setup;
    entries = r.results;
    variants = r.variants;
    metrics = r.metrics;
    utilization = r.utilization;
    wall_s = r.wall_s;
  }

let run_resolved ?tstop ?jobs ?(preflight = true) ?(warm_start = true) ?max_iter ?manifest
    ?defects (r : resolved) =
  let tstop = Option.value tstop ~default:(2.0 /. r.freq) in
  campaign ~design:(design_of r ~tstop) ~proc:r.builder.B.proc ?jobs ~preflight ?manifest
    ~context:[] ~target:r.target ?digest:r.digest ~freq:r.freq ~tstop ~warm_start ?max_iter
    ~golden:r.builder.B.net
    ~defects:(Option.value defects ~default:r.defects)
    ()

let run ?proc ?(freq = 100e6) ?(stages = 8) ?(dut = Cml_cells.Chain.dut_stage) ?tstop ?jobs
    ?preflight ?warm_start ?max_iter ?manifest ~defects () =
  run_resolved ?tstop ?jobs ?preflight ?warm_start ?max_iter ?manifest ~defects
    (resolve ?proc ~freq (Chain { stages; dut }))

let run_design ?(proc = Cml_cells.Process.default) ?(freq = 100e6) ?tstop ?jobs
    ?(preflight = true) ?(warm_start = true) ?max_iter ?manifest ?(options = []) ~golden ~input
    ~dut ~final ~defects () =
  let tstop = Option.value tstop ~default:(2.0 /. freq) in
  campaign
    ~design:(compiled_design ~input ~dut ~final ~freq ~tstop)
    ~proc ?jobs ~preflight ?manifest ~context:options ~freq ~tstop ~warm_start ?max_iter ~golden
    ~defects ()

type replay = {
  entry : entry;
  stats : E.counters option;
  sim : E.sim;
  net : Cml_spice.Netlist.t;
}

let replay ?introspect ~options name =
  let spec = spec_of_options options in
  let target =
    match spec.target with
    | Some t -> t
    | None -> bad "the run options name no rebuildable design (no \"stages\" or \"bench\")"
  in
  let r = resolve ~pipe_values:spec.pipe_values ~freq:spec.freq target in
  (match target with
  | Bench { path; _ } when spec.digest <> r.digest ->
      bad "%s has changed since the run: its content digest no longer matches" path
  | _ -> ());
  let defect =
    match List.find_opt (fun d -> Defect.describe d = name) r.defects with
    | Some d -> d
    | None -> bad "variant %S matches no defect site of %s" name r.dut_name
  in
  let design = design_of r ~tstop:spec.tstop in
  match prepare ~design ~proc:r.builder.B.proc ~spec r.builder.B.net with
  | exception E.No_convergence msg -> bad "the fault-free reference no longer converges: %s" msg
  | _, run_variant -> (
      match run_variant ?introspect defect with
      | entry, stats, Some (sim, net) -> { entry; stats; sim; net }
      | _, _, None -> bad "defect %S no longer injects into the rebuilt design" name)

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
