(** Transient analysis: trapezoidal integration with a backward-Euler
    start-up step after DC and after every source breakpoint,
    Newton-failure step halving, and an optional predictor-based
    local-truncation-error control. *)

type config = {
  tstop : float;  (** end time (s) *)
  max_step : float;  (** largest accepted step *)
  min_step : float;  (** below this a Newton failure is fatal *)
  lte_control : bool;  (** enable predictor-corrector step control *)
  record_every : int;
      (** keep one sample out of this many (1 = all; 0 = record
          nothing: [times]/[data] stay empty and measurements come
          from the streaming observers alone) *)
}

val config : ?max_step:float -> ?min_step:float -> ?lte_control:bool -> ?record_every:int ->
  tstop:float -> unit -> config
(** Defaults: [max_step = tstop /. 200.], [min_step = max_step /. 1e6],
    [lte_control = true], [record_every = 1].  The tolerances of the
    LTE acceptance test come from {!Engine.options}
    ([lte_reltol_factor], [lte_abstol]). *)

type result = {
  times : float array;
  data : float array array;  (** [data.(k)] is the solution vector at [times.(k)] *)
  sim : Engine.sim;
  stats : Engine.counters;
      (** this run's movement of the sim's counter block — the
          step-controller counters plus the Newton, device-load and
          factorization work, the DC start included *)
}

type observers
(** A streaming probe set: selected unknowns are sampled on every
    {e accepted} step into bounded per-probe buffers, without
    materialising the dense [times]/[data] matrix.  Because observers
    see every accepted step, measurements taken from probes are immune
    to [record_every] downsampling: with [record_every > 1] the dense
    matrix can alias narrow extrema (e.g. the excursion minimum a
    defect campaign classifies on), while the streamed samples cannot.
    Campaigns therefore measure from probes and keep only a thinned
    dense trajectory. *)

val observers : (string * int) list -> observers
(** [observers probes] builds a probe set from [(name, unknown index)]
    pairs — node indices from {!Engine.node_unknown} (ground, [-1],
    streams zeros) or branch indices from {!Engine.branch_unknown}.
    @raise Invalid_argument on an index below [-1]. *)

val observe : observers option -> float -> float array -> unit
(** The step-loop dispatch: sample every probe at an accepted step,
    or return immediately when [None].  Exposed so
    the overhead benchmark can measure the observers-disabled cost of
    the hook — callers of {!run} never need it. *)

val probe_names : observers -> string list

val probe_length : observers -> int
(** Samples recorded so far (accepted steps observed, including the
    initial point). *)

val probe_samples : observers -> string -> float array * float array
(** [(times, values)] streamed by the named probe; both arrays have
    {!probe_length} elements.
    @raise Not_found when no probe has that name. *)

val probe_list : observers -> (string * float array * float array) list
(** All probes as [(name, times, values)], in declaration order. *)

val collect_breakpoints : Netlist.t -> tstop:float -> float array
(** Sorted source-waveform breakpoints up to and including [tstop].
    Precompute once and pass as [?breakpoints] when running many
    variants of the same stimulus (defect injection adds only
    resistors and capacitors, so the golden schedule stays valid). *)

val run :
  ?x0:float array ->
  ?guide:result ->
  ?breakpoints:float array ->
  ?observers:observers ->
  Engine.sim ->
  Netlist.t ->
  config ->
  result
(** Run a transient from the DC operating point at [t = 0] (or from
    [x0] when given).  The netlist is only used to collect source
    breakpoints; it must be the one the [sim] was compiled from.

    [guide] warm-starts the run from a previously computed trajectory
    of a layout-compatible sim (same unknown count — checked, silently
    ignored otherwise): the DC solve is seeded from the guide's first
    point, and a step whose own-point Newton seed diverges is retried
    from the guide sample nearest in time before the usual step
    halving.  The previous accepted point stays the primary per-step
    seed — it keeps the junction voltages inside the device-bypass
    window, which a foreign (nominal) seed would evict every step.
    Results are bit-identical in structure to an unguided run; only
    Newton iteration counts change.

    [breakpoints] overrides breakpoint collection with a precomputed
    schedule from {!collect_breakpoints}.

    [observers] streams selected unknowns at every accepted step —
    including the initial point and the steps a [record_every > 1]
    configuration drops from the dense matrix.  On a run with
    [record_every = 1] the streamed samples are bit-identical to the
    corresponding rows of [data]; with [record_every = k] the dense
    matrix holds every k-th streamed sample.  Without observers the
    per-step cost is a single branch (gated alongside the telemetry
    hooks in [make telemetry-overhead]).

    When the sim carries an {!Introspect} recorder
    ({!Engine.set_introspect}), the step loop additionally records the
    dt timeline with cause tags (accept / breakpoint restart /
    guide rescue / LTE reject / Newton reject) and, per LTE
    rejection, which node forced the step down and the rejection
    cascade depth.  Recording never changes results: the accept
    decision stays with the plain LTE band test, and the blame scan
    only reads.  Without a recorder each hook is one load and one
    branch (gated in [make telemetry-overhead]).

    @raise Engine.No_convergence when a step fails at [min_step]. *)

val node_trace : result -> Netlist.node -> float array
(** Voltage samples of a node, aligned with [times]. *)

val diff_trace : result -> Netlist.node -> Netlist.node -> float array
(** Differential voltage [v a - v b] over time. *)
