(** Defect-injection campaigns on the paper's buffer-chain test
    circuit (Figure 3): simulate every candidate defect, measure the
    device-under-test and chain outputs, and classify the fault
    behaviour.  This reproduces the section-5 observations — many
    defects map into abnormal output excursions rather than stuck-at
    faults, and excursions heal after a few stages. *)

type measurement = {
  dut_vlow : float;  (** lowest voltage at either DUT output *)
  dut_vhigh : float;  (** highest voltage at either DUT output *)
  dut_swing : float;  (** single-ended swing at the DUT true output *)
  final_vlow : float;
  final_vhigh : float;
  final_swing : float;
  final_delay : float option;  (** input-to-final-output delay at actual crossings *)
  supply_current : float;  (** mean magnitude of the rail supply current (A) *)
  degraded_at : int option;
      (** 1-based stage of the first out-of-tolerance waveform
          ({!Cml_wave.Health.profile}); [None] when every stage is
          within tolerance of the nominal levels, or when no nominal
          levels were supplied (the reference run itself) *)
  healing_depth : int option;
      (** stages the abnormal excursion needs to recover — the paper's
          section-5 healing observation, quantified; [None] when
          nothing is degraded or the degradation persists to the chain
          output *)
}

type flags = {
  stuck : bool;  (** chain output no longer toggles: classic stuck-at testable *)
  excessive_excursion : bool;
      (** DUT output goes well below the nominal low level — the fault
          class the paper's detectors target *)
  reduced_swing : bool;  (** DUT swing collapsed but the chain still toggles *)
  delay_detectable : bool;  (** chain delay shifted by more than 20% *)
  iddq_detectable : bool;
      (** supply current elevated by more than 15% over the fault-free
          chain — the Iddq fault class of the paper's section 1 *)
  healed : bool;  (** degraded at the DUT yet nominal at the chain output *)
}

type outcome = Measured of measurement * flags | Failed of string

type entry = { defect : Defect.t; outcome : outcome }

type t = {
  reference : measurement;  (** fault-free chain measurement *)
  entries : entry list;
  variants : Cml_telemetry.Manifest.variant list;
      (** per-variant telemetry (wall time, transient stats), aligned
          with [entries]; kept outside [entry] so parallel and
          sequential runs produce structurally equal entries *)
  metrics : Cml_telemetry.Metrics.snapshot;
      (** metrics-registry movement over this campaign *)
  utilization : Cml_telemetry.Events.domain_util list;
      (** per-domain busy/idle attribution (busy seconds, items,
          longest stall, busy ratio against [wall_s]) over the variant
          phase — the end-of-run utilization table *)
  wall_s : float;  (** wall clock of the variant phase *)
}

(** {1 Targets}

    What a campaign attacks, resolved in one place for campaigns,
    {!replay} and [Cml_dft.Diagnose.run]. *)

type target =
  | Chain of { stages : int; dut : int }
      (** the built-in buffer chain of [stages] stages, defect in the
          1-based stage [dut] *)
  | Bench of { path : string; cell : string option }
      (** a compiled [.bench] circuit; [cell] names the attacked cell
          ([None]: {!Cml_cells.Compile.default_dut}) *)

exception Bad_target of string
(** A target that cannot be resolved or replayed; the payload is the
    message. *)

val target : ?bench:string -> string option -> target
(** The target a [--dut] value names: with [bench] a compiled cell,
    otherwise a stage ["xK"] of the 8-stage chain.
    [None] is the default instance.
    @raise Bad_target when a chain instance is not of the form ["xK"]. *)

type resolved = {
  target : target;  (** as requested, with a [.bench] cell filled in *)
  freq : float;  (** stimulus frequency *)
  builder : Cml_cells.Builder.t;  (** its [net] is the golden netlist *)
  design : Cml_cells.Compile.t option;  (** the compiled [.bench] design *)
  input : Cml_cells.Builder.diff;  (** the toggling stimulus pair *)
  dut_name : string;  (** attacked instance: ["x3"] or a compiled cell name *)
  dut : Cml_cells.Builder.diff;  (** its output pair *)
  monitored : (string * Cml_cells.Builder.diff) list;
      (** every chain stage, or the attacked cell and the other outputs *)
  final_name : string;  (** the last chain stage or declared output *)
  final : Cml_cells.Builder.diff;
  digest : string option;  (** hex MD5 of the [.bench] file's content *)
  defects : Defect.t list;  (** {!Sites.enumerate} of the attacked instance *)
}

val resolve : ?proc:Cml_cells.Process.t -> ?pipe_values:float list -> freq:float -> target -> resolved
(** Build the golden design at [freq] and enumerate the attacked
    instance's sites with pipe resistances [pipe_values] (default 1 and
    4 kohm).  Each call builds a fresh design that callers may extend.
    @raise Bad_target on a stage outside the chain, an unknown or
    device-less cell, or an unreadable, unparsable or degenerate
    [.bench] file. *)

(** {1 Run options}

    The [options] map of a campaign's manifest and run events holds:
    - ["freq"], ["tstop"]: stimulus frequency and transient end (s);
    - the target: ["stages"] and ["dut"] (stage number) for the chain,
      ["bench"] (the path as given) and ["dut"] (cell name) for a
      [.bench] design, with ["bench_digest"], the hex MD5 of the
      file's content;
    - ["warm_start"]: ["true"] or ["false"];
    - ["defects"]: number of variants;
    - ["max_iter"]: the Newton iteration cap, when set.  It is the only
      engine option a campaign entry point can set, so the engine
      options are recorded completely;
    - ["pipe_values"]: the defect list's distinct pipe resistances
      (ohm), ascending and comma-separated.

    Floats print with [%g] when that reads back exactly, else with 17
    digits.  Replays use {!Cml_cells.Process.default}, the only process
    the command line runs. *)

type spec = {
  target : target option;  (** [None] for a {!run_design} campaign *)
  freq : float;
  tstop : float;
  warm_start : bool;
  max_iter : int option;
  defects : int;
  pipe_values : float list;
  digest : string option;
}

val spec_options : spec -> (string * string) list
(** The run options a campaign records for [spec]. *)

val spec_of_options : (string * string) list -> spec
(** [spec_of_options (spec_options s) = s]; unknown keys are ignored.
    @raise Bad_target on a missing key or a malformed value. *)

(** {1 Campaigns} *)

val measure_chain :
  ?engine_options:Cml_spice.Engine.options ->
  ?guide:Cml_spice.Transient.result ->
  ?breakpoints:float array ->
  ?record_every:int ->
  ?nominal:float * float ->
  Cml_cells.Chain.t -> Cml_spice.Netlist.t -> freq:float -> tstop:float -> dut:int ->
  measurement
(** Simulate the given (possibly faulty) netlist of a chain and
    extract the measurement.  [engine_options] compiles the sim with
    non-default solver options ({!run}'s [max_iter] stress knob);
    [guide] and [breakpoints] are passed to
    {!Cml_spice.Transient.run}: a campaign measures the fault-free
    chain once and warm-starts every variant from its trajectory.

    All measurements are taken from streaming observers
    ({!Cml_spice.Transient.observers}), which see every accepted step
    — so [record_every > 1] (default 1) merely thins the retained
    dense trajectory without aliasing the excursion extremes the
    classifier keys on.  [nominal] supplies the fault-free chain
    output's plateau levels; when present, the per-stage healing
    profile ({!Cml_wave.Health.profile}) fills [degraded_at] /
    [healing_depth], otherwise both are [None].
    @raise Engine.No_convergence on solver failure (callers of {!run}
    get it folded into [Failed]). *)

val run :
  ?proc:Cml_cells.Process.t ->
  ?freq:float ->
  ?stages:int ->
  ?dut:int ->
  ?tstop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  ?warm_start:bool ->
  ?max_iter:int ->
  ?manifest:string ->
  defects:Defect.t list ->
  unit ->
  t
(** Full campaign at [freq] (default 100 MHz) on a chain of [stages]
    (default 8) with the defect in stage [dut] (default 3).  The
    defect list normally comes from {!Sites.enumerate} on the DUT
    instance.  Defects are simulated in parallel over [jobs] domains
    (default: [CML_DFT_JOBS] or cores - 1; see
    {!Cml_runtime.Pool.default_jobs}); results are deterministic and
    identical to a [jobs = 1] run.

    Unless [preflight] is [false] (or [CML_DFT_NO_PREFLIGHT] is set),
    the fault-free netlist is linted first and
    [Cml_analysis.Lint.Preflight_failed] is raised — with the rule
    citations — instead of starting a doomed simulation batch.

    Unless [warm_start] is [false], the fault-free chain is simulated
    once and its trajectory warm-starts every defect variant (DC from
    the nominal operating point, each step's Newton from the nearest
    nominal snapshot); classification results are unaffected — a
    variant that rejects the nominal seed falls back to cold
    seeding.

    Each variant is one pool task: inject the defect, compile the
    faulty netlist, run one transient and classify its streamed
    probes.  Per-variant [v_seconds] telemetry is that task's own wall
    time.

    [max_iter] caps Newton iterations per solve (default: the engine's
    100) for every compiled sim of the run, reference included — a
    stress knob that makes marginal defects fail solves visibly for
    the introspection pipeline.

    The run options record the target and run settings
    ({!spec_options}), so {!replay} re-simulates any variant exactly.

    [manifest] writes a {!Cml_telemetry.Manifest} JSON document to the
    given path after the run (options, per-variant classification and
    solver metrics, registry delta, span summary).
    @raise Bad_target when [dut] is outside [1..stages]. *)

val run_design :
  ?proc:Cml_cells.Process.t ->
  ?freq:float ->
  ?tstop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  ?warm_start:bool ->
  ?max_iter:int ->
  ?manifest:string ->
  ?options:(string * string) list ->
  golden:Cml_spice.Netlist.t ->
  input:Cml_cells.Builder.diff ->
  dut:Cml_cells.Builder.diff ->
  final:Cml_cells.Builder.diff ->
  defects:Defect.t list ->
  unit ->
  t
(** Campaign on an arbitrary compiled CML design — typically a
    [.bench] circuit compiled by {!Cml_cells.Compile} — instead of
    the built-in buffer chain.  [input] is the toggling stimulus
    pair (delay reference), [dut] the attacked cell's output pair
    and [final] the primary output whose swing decides the stuck-at
    class.  Semantics of [warm_start], [jobs], [preflight], [max_iter]
    and [manifest] match {!run}, and both share one campaign core;
    [options] prepends caller context to the run options.  The run
    options name no target, so {!replay} cannot rebuild its variants:
    campaigns that should replay go through {!run_resolved}.  There
    is no stage chain, so measurements carry
    no healing profile ([degraded_at] and [healing_depth] are [None])
    and the manifest's healing histogram reads "clean". *)

val run_resolved :
  ?tstop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  ?warm_start:bool ->
  ?max_iter:int ->
  ?manifest:string ->
  ?defects:Defect.t list ->
  resolved ->
  t
(** {!run} on a resolved target, [defects] defaulting to its sites. *)

type replay = {
  entry : entry;  (** the re-simulated, re-classified variant *)
  stats : Cml_spice.Engine.counters option;
      (** its transient's counters; [None] when it failed *)
  sim : Cml_spice.Engine.sim;  (** its compiled sim, for attribution *)
  net : Cml_spice.Netlist.t;  (** its faulty netlist *)
}

val replay :
  ?introspect:Cml_spice.Introspect.t -> options:(string * string) list -> string -> replay
(** [replay ~options name] re-runs variant [name] ({!Defect.describe})
    of a finished campaign from its run options: resolve the target,
    simulate the reference, then run the variant with the function the
    campaign ran it with, [introspect] attached to its sim.
    @raise Bad_target when the options cannot be read or name no target
    (a {!run_design} run), {!resolve} fails, the [.bench] content no
    longer matches ["bench_digest"], or [name] matches no site that
    injects. *)

val entry_labels : entry -> string list
(** {!flag_labels} of a measured entry, [["failed"]] otherwise. *)

val classify :
  proc:Cml_cells.Process.t -> reference:measurement -> measurement -> flags

val flag_labels : flags -> string list
(** The classification labels that are set, using the same vocabulary
    as {!summary} and the run manifest ("stuck-at",
    "excessive-excursion", ...); the diagnosis pipeline re-uses these
    to describe a flagged entry. *)

val summary : t -> (string * int) list
(** Histogram of the observed fault classes, for reporting: counts of
    stuck / excessive-excursion / healed / delay-detectable /
    benign / failed. *)
