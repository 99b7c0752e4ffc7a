(** The run driver: one run over many variants, recorded once.

    Campaigns and Monte-Carlo checks set up once, run one {!Pool} task
    per variant and classify each.  {!run} owns their bookkeeping: the
    metrics-registry delta over the whole call, the outer span and one
    span per variant, the {!Cml_telemetry.Events} stream, the
    {!Cml_telemetry.Progress} lanes, each variant's wall seconds, pool
    utilization over the variant phase (its [busy_ratio] gauges
    published before the metrics delta), the phase wall clock and the
    manifest.  The manifest's variant record and the stream's variant
    event both derive from the caller's one {!report} per variant.

    A variant that raises still finishes the tracker (ticker stopped,
    progress disabled, [run_end] emitted) before the exception
    propagates; no manifest is written then. *)

type report = {
  classes : string list;  (** classification labels; [[]] reads as benign *)
  healing : string option;  (** "clean" / "depth=N" / "unhealed", when the design has stages *)
  failed : bool;
  steps : int;  (** accepted solver steps (deterministic) *)
  metrics : (string * float) list;  (** flat per-variant numbers for the manifest *)
}

type ('c, 'b) t = {
  setup : 'c;  (** what [setup] returned *)
  results : 'b list;  (** per-variant results, in variant order *)
  variants : Cml_telemetry.Manifest.variant list;  (** the manifest's variant records *)
  metrics : Cml_telemetry.Metrics.snapshot;  (** registry delta over the whole call *)
  utilization : Cml_telemetry.Events.domain_util list;
      (** per-domain busy/idle attribution over the variant phase *)
  wall_s : float;  (** wall clock of the variant phase *)
}

val run :
  kind:string ->
  variant_span:string ->
  ?span_args:('a -> (string * Cml_telemetry.Trace.arg) list) ->
  ?jobs:int ->
  ?seed:int ->
  ?options:(string * string) list ->
  ?manifest:string ->
  ?seconds:Cml_telemetry.Metrics.histogram ->
  name:('a -> string) ->
  setup:(unit -> 'c) ->
  variant:('c -> 'a -> 'b * report) ->
  'a list ->
  ('c, 'b) t
(** [run ~kind ~variant_span ~name ~setup ~variant items] runs
    [setup ()] once, then [variant ctx item] as one pool task per
    item.  [kind] names the run in the stream and the manifest and is
    the outer span's name and category; each variant is a
    [variant_span] span with [span_args item], labelled [name item].
    [seconds] observes every variant's wall seconds.  [manifest]
    writes the run manifest (with [seed] and [options]) after the
    run. *)

val frame : kind:string -> (unit -> 'a) -> 'a
(** Zero-variant framing for commands without a variant loop: with a
    sink installed, [f] is bracketed by [run_start]/[run_end] so the
    stream is a complete document — on the exception path too. *)
