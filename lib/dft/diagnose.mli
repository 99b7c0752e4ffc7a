(** Waveform-level diagnosis of a flagged defect — the drill-down a
    test engineer runs after a campaign flags a variant.  The defect
    is re-simulated on the monitored chain or compiled design (a
    variant-1 detector at the DUT) with streaming probes on every
    monitored output ({!Cml_spice.Transient.observers}), the per-stage
    signal health and healing depth are profiled against the
    fault-free circuit ({!Cml_wave.Health}), and the detector-response timeline of
    Figs. 7/8/10 is extracted.  Results serialise to a structured JSON
    record (["cml-dft-diagnosis/1"]) rendered by [cmldft report], and
    the probed waveforms dump to an analog VCD. *)

val schema : string
(** ["cml-dft-diagnosis/1"]. *)

type t = {
  defect : string;  (** {!Cml_defects.Defect.describe} of the diagnosed defect *)
  classes : string list;  (** campaign classification labels; empty from {!run} *)
  freq : float;
  stages : int;
  dut : int;
  tstop : float;
  nominal_low : float;  (** fault-free chain-output plateau levels *)
  nominal_high : float;
  nominal : Cml_wave.Health.profile;  (** fault-free per-stage health *)
  faulty : Cml_wave.Health.profile;  (** faulty per-stage health (healing depth) *)
  timeline : Cml_wave.Health.detector_timeline;
  waves : (string * Cml_wave.Wave.t) list;
      (** every probed waveform of the faulty run, on a shared time
          axis: ["in.p"], ["in.n"], ["det.vout"], ["x<i>.p"/"x<i>.n"]
          per stage.  Empty on a record read back from JSON. *)
  detector_wave : Cml_wave.Wave.t;  (** the ["det.vout"] wave (empty after {!of_json}) *)
}

val run :
  ?tstop:float -> defect:Cml_defects.Defect.t -> Cml_defects.Campaign.resolved -> t
(** Diagnose [defect] on a resolved campaign target
    ({!Cml_defects.Campaign.resolve}): a variant-1 detector attaches to
    the attacked instance's output pair, and the health-profile rows
    are the target's monitored pairs — every stage of the chain, or
    the attacked cell of a compiled design followed by every other
    primary output (there "stage 1" is the attacked cell itself and
    healing is read cell-to-outputs).  Two probed transients run:
    fault-free (nominal levels from the last row, reference profile,
    warm-start guide) and faulty.  [tstop] defaults to two stimulus
    periods.  The detector devices are added to the target's netlist
    in place, so resolve a fresh target per diagnosis.
    @raise Cml_spice.Engine.No_convergence on solver failure. *)

exception Bad_diagnosis of string

val to_json : t -> Cml_telemetry.Json.t
(** Waveforms are deliberately not serialised (the full traces go to
    the VCD); the record is the measured summary. *)

val of_json : Cml_telemetry.Json.t -> t
(** @raise Bad_diagnosis on a missing or unsupported schema.  The
    returned record has empty [waves] / [detector_wave]. *)

val write_json : path:string -> t -> unit

val read_json : path:string -> t
(** @raise Bad_diagnosis / [Json.Parse_error] / [Sys_error]. *)

val write_vcd : ?timescale_fs:int -> path:string -> t -> unit
(** Dump every probed waveform to an analog VCD.
    @raise Invalid_argument on a record without waveforms (one read
    back from JSON). *)

val render_text : t -> string
(** The [cmldft report] body: fault-free and faulty per-stage health
    tables, healing-depth verdict, detector timeline. *)
