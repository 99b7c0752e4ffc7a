(** The post-mortem pipeline behind [cmldft explain].

    Given a finished campaign — a {!Cml_telemetry.Manifest} or a
    [cml-dft-events/1] JSONL stream — pick one variant, replay it from
    the recorded run options ({!Cml_defects.Campaign.replay}: the
    buffer chain or a [.bench] design, the same variant run the
    campaign made) with a solver-introspection recorder attached
    ({!Cml_spice.Introspect}) and distil the recording into a
    {!Cml_telemetry.Postmortem}
    document: convergence narrative, worst-nets / worst-devices
    hotspot tables, per-rejection LTE blame, Newton retry blame, the
    dt timeline and the sparse-LU health summary.

    The re-simulation is scalar and single-threaded, so the document
    is a pure function of the source — byte-identical JSON at any
    [--jobs]. *)

type selection =
  | Auto
      (** the first variant classified ["failed"], else the one with
          the most accepted transient steps (ties: lowest index) — a
          pick that does not depend on host timing *)
  | Nth of int  (** variant by 0-based run index ([--variant]) *)
  | Named of string
      (** first variant whose name contains the (case-insensitive)
          substring ([--defect]) *)

exception Unexplainable of string
(** The source cannot be explained: wrong run kind, selection out of
    range, or a variant the recorded options cannot replay (a missing
    or malformed key, an unreadable or degenerate [.bench] file, a
    [.bench] file edited since the run, no defect site matching the
    variant name; see {!Cml_defects.Campaign.replay}). *)

val explain :
  ?top:int ->
  ?selection:selection ->
  source:string ->
  Cml_telemetry.Manifest.t ->
  Cml_telemetry.Postmortem.t
(** Re-simulate the selected variant with introspection and build its
    post-mortem.  Its [pm_classes] are the replay's classification
    labels, which match the ones the campaign recorded.  [top]
    (default 8) bounds every blame/hotspot table; [source] is recorded
    verbatim in the document.
    @raise Unexplainable as above. *)

val explain_path :
  ?top:int -> ?selection:selection -> string -> Cml_telemetry.Postmortem.t
(** {!explain} on a run manifest, or on an events JSONL stream
    condensed into a pseudo-manifest (kind and options from
    [run_start], variants from the [variant_done] events).
    @raise Unexplainable also when the file is neither. *)
