(* Waveform-level diagnosis of a flagged defect: re-simulate the
   monitored chain with streaming probes on every stage output and the
   detector, profile signal health stage by stage (healing depth), and
   package the result as a structured JSON record plus an analog VCD
   dump — the drill-down a test engineer runs after a campaign flags a
   variant. *)

module E = Cml_spice.Engine
module T = Cml_spice.Transient
module W = Cml_wave.Wave
module H = Cml_wave.Health
module Json = Cml_telemetry.Json
module C = Cml_defects.Campaign

let schema = "cml-dft-diagnosis/1"

type t = {
  defect : string;
  classes : string list;
  freq : float;
  stages : int;
  dut : int;
  tstop : float;
  nominal_low : float;
  nominal_high : float;
  nominal : H.profile;
  faulty : H.profile;
  timeline : H.detector_timeline;
  waves : (string * W.t) list;
  detector_wave : W.t;
}

let probed_run ?guide sim net ~tstop ~probes =
  let obs = T.observers probes in
  let r = T.run ?guide ~observers:obs sim net (T.config ~tstop ~max_step:10e-12 ()) in
  let waves =
    List.map
      (fun (name, _) ->
        let times, values = T.probe_samples obs name in
        (name, W.create times values))
      probes
  in
  (r, waves)

(* The health-profile rows are the target's monitored pairs: every
   stage of the chain, or the attacked cell of a compiled design
   followed by every other primary output (no chain there, but the same
   degraded-at-the-DUT / recovered-at-the-outputs reading applies).
   The detector attaches to the attacked instance's output pair. *)
let run ?tstop ~defect (r : C.resolved) =
  let builder = r.C.builder in
  let proc = builder.Cml_cells.Builder.proc in
  let tstop = match tstop with Some t -> t | None -> 2.0 /. r.C.freq in
  let det_vout = Detector.attach_v1 builder ~name:"det" ~outputs:r.C.dut Detector.v1_default in
  let golden = builder.Cml_cells.Builder.net in
  let monitored = r.C.monitored in
  (* probing by unknown index, so the observer streams every accepted
     step; node indices are assigned by the netlist, not the compiled
     engine, and defect injection only ever adds devices across
     existing nodes — so the same probe set serves both passes *)
  let pair (nm, (d : Cml_cells.Builder.diff)) =
    [ (nm ^ ".p", E.node_unknown d.p); (nm ^ ".n", E.node_unknown d.n) ]
  in
  let probes =
    pair ("in", r.C.input) @ (("det.vout", E.node_unknown det_vout) :: List.concat_map pair monitored)
  in
  let t_from = tstop /. 2.0 in
  let monitor_waves ws = List.map (fun (nm, _) -> (nm, List.assoc (nm ^ ".p") ws)) monitored in
  (* fault-free pass: nominal levels from the last monitored row and
     the reference profile, plus a warm-start guide for the faulty
     pass *)
  let ref_r, ref_waves = probed_run (E.compile golden) golden ~tstop ~probes in
  let last_row = fst (List.nth monitored (List.length monitored - 1)) in
  let nominal_low, nominal_high =
    Cml_wave.Measure.levels (List.assoc (last_row ^ ".p") ref_waves) ~t_from
  in
  let nominal = H.profile ~nominal_low ~nominal_high ~t_from (monitor_waves ref_waves) in
  (* faulty pass *)
  let faulty_net = Cml_defects.Inject.apply golden defect in
  let _, waves = probed_run ~guide:ref_r (E.compile faulty_net) faulty_net ~tstop ~probes in
  let faulty = H.profile ~nominal_low ~nominal_high ~t_from (monitor_waves waves) in
  let detector_wave = List.assoc "det.vout" waves in
  let quiescent = proc.Cml_cells.Process.vgnd in
  let timeline =
    H.detector_timeline ~quiescent ~threshold:(quiescent -. 0.15) detector_wave
  in
  {
    defect = Cml_defects.Defect.describe defect;
    classes = [];
    freq = r.C.freq;
    stages = List.length monitored;
    dut = (match r.C.target with C.Chain { dut; _ } -> dut | C.Bench _ -> 1);
    tstop;
    nominal_low;
    nominal_high;
    nominal;
    faulty;
    timeline;
    waves;
    detector_wave;
  }

(* ------------------------------------------------------------------ *)
(* JSON round trip.  Waveforms are deliberately not serialised (a
   diagnosis record is a summary, the full traces go to the VCD); a
   record read back from JSON carries empty waves. *)

let num_opt = function Some x -> Json.Num x | None -> Json.Null

let stage_json (s : H.stage) =
  let num x = if Float.is_nan x then Json.Null else Json.Num x in
  Json.Obj
    [
      ("label", Json.Str s.H.label);
      ("vlow", num s.H.vlow);
      ("vhigh", num s.H.vhigh);
      ("swing", num s.H.swing);
      ("excursion", num s.H.excursion);
      ("overshoot", num s.H.overshoot);
      ("within", Json.Bool s.H.within);
    ]

let profile_json (p : H.profile) =
  Json.Obj
    [
      ("stages", Json.List (List.map stage_json p.H.stages));
      ("tolerance", Json.Num p.H.tolerance);
      ( "first_degraded",
        num_opt (Option.map float_of_int p.H.first_degraded) );
      ("healed_at", num_opt (Option.map float_of_int p.H.healed_at));
      ("healing_depth", num_opt (Option.map float_of_int p.H.healing_depth));
    ]

let timeline_json (t : H.detector_timeline) =
  Json.Obj
    [
      ("flag_time", num_opt t.H.flag_time);
      ("t_stability", num_opt t.H.t_stability);
      ("t_settle", num_opt t.H.t_settle);
      ("vmax", Json.Num t.H.vmax);
      ("v_final", Json.Num t.H.v_final);
      ("drop", Json.Num t.H.drop);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("defect", Json.Str t.defect);
      ("classes", Json.List (List.map (fun c -> Json.Str c) t.classes));
      ( "options",
        Json.Obj
          [
            ("freq", Json.Num t.freq);
            ("stages", Json.Num (float_of_int t.stages));
            ("dut", Json.Num (float_of_int t.dut));
            ("tstop", Json.Num t.tstop);
          ] );
      ("nominal_low", Json.Num t.nominal_low);
      ("nominal_high", Json.Num t.nominal_high);
      ("nominal", profile_json t.nominal);
      ("faulty", profile_json t.faulty);
      ("timeline", timeline_json t.timeline);
    ]

exception Bad_diagnosis of string

let float_member key j ~default =
  match Json.member key j with Some v -> Option.value ~default (Json.to_float v) | None -> default

let opt_member key j =
  match Json.member key j with
  | Some (Json.Num x) -> Some x
  | _ -> None

let stage_of_json j =
  let num key = float_member key j ~default:Float.nan in
  {
    H.label =
      (match Json.member "label" j with
      | Some (Json.Str s) -> s
      | _ -> raise (Bad_diagnosis "stage without label"));
    vlow = num "vlow";
    vhigh = num "vhigh";
    swing = num "swing";
    excursion = num "excursion";
    overshoot = num "overshoot";
    within = (match Json.member "within" j with Some (Json.Bool b) -> b | _ -> false);
  }

let profile_of_json ~nominal_low ~nominal_high j =
  {
    H.stages =
      (match Json.member "stages" j with
      | Some (Json.List ss) -> List.map stage_of_json ss
      | _ -> []);
    nominal_low;
    nominal_high;
    tolerance = float_member "tolerance" j ~default:0.1;
    first_degraded = Option.map int_of_float (opt_member "first_degraded" j);
    healed_at = Option.map int_of_float (opt_member "healed_at" j);
    healing_depth = Option.map int_of_float (opt_member "healing_depth" j);
  }

let timeline_of_json j =
  {
    H.flag_time = opt_member "flag_time" j;
    t_stability = opt_member "t_stability" j;
    t_settle = opt_member "t_settle" j;
    vmax = float_member "vmax" j ~default:Float.nan;
    v_final = float_member "v_final" j ~default:Float.nan;
    drop = float_member "drop" j ~default:Float.nan;
  }

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> raise (Bad_diagnosis (Printf.sprintf "unsupported schema %S" s))
  | _ -> raise (Bad_diagnosis "missing \"schema\" member"));
  let nominal_low = float_member "nominal_low" j ~default:Float.nan in
  let nominal_high = float_member "nominal_high" j ~default:Float.nan in
  let options = match Json.member "options" j with Some o -> o | None -> Json.Obj [] in
  let prof key =
    match Json.member key j with
    | Some p -> profile_of_json ~nominal_low ~nominal_high p
    | None -> raise (Bad_diagnosis (Printf.sprintf "missing %S profile" key))
  in
  {
    defect =
      (match Json.member "defect" j with Some (Json.Str s) -> s | _ -> "?");
    classes =
      (match Json.member "classes" j with
      | Some (Json.List cs) -> List.filter_map Json.to_str cs
      | _ -> []);
    freq = float_member "freq" options ~default:0.0;
    stages = int_of_float (float_member "stages" options ~default:0.0);
    dut = int_of_float (float_member "dut" options ~default:0.0);
    tstop = float_member "tstop" options ~default:0.0;
    nominal_low;
    nominal_high;
    nominal = prof "nominal";
    faulty = prof "faulty";
    timeline =
      (match Json.member "timeline" j with
      | Some tl -> timeline_of_json tl
      | None -> raise (Bad_diagnosis "missing timeline"));
    waves = [];
    detector_wave = W.empty;
  }

let write_json ~path t = Json.write_file path (to_json t)

let read_json ~path = of_json (Json.parse_file path)

let write_vcd ?timescale_fs ~path t =
  if t.waves = [] then invalid_arg "Diagnose.write_vcd: record has no waveforms";
  Cml_wave.Vcd_analog.write ?timescale_fs ~path t.waves

(* ------------------------------------------------------------------ *)

let render_text t =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "diagnosis: %s" t.defect;
  if t.classes <> [] then line "classes  : %s" (String.concat " " t.classes);
  line "chain    : %d stages, defect at stage %d, %.0f MHz, tstop %.1f ns" t.stages t.dut
    (t.freq /. 1e6) (t.tstop *. 1e9);
  line "";
  line "fault-free chain:";
  Buffer.add_string b (H.render_text t.nominal);
  line "";
  line "faulty chain:";
  Buffer.add_string b (H.render_text t.faulty);
  line "";
  line "detector response (variant 1 at stage %d):" t.dut;
  Buffer.add_string b (H.render_timeline t.timeline);
  Buffer.contents b
