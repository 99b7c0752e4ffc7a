(* The run driver: the lifecycle every campaign-like run shares —
   registry delta, spans, run events, progress lanes, pool
   utilization, phase wall clock and manifest — written once. *)

module Tel = Cml_telemetry

type report = {
  classes : string list;
  healing : string option;
  failed : bool;
  steps : int;
  metrics : (string * float) list;
}

type ('c, 'b) t = {
  setup : 'c;
  results : 'b list;
  variants : Tel.Manifest.variant list;
  metrics : Tel.Metrics.snapshot;
  utilization : Tel.Events.domain_util list;
  wall_s : float;
}

let seconds_since t0 = Tel.Clock.ns_to_s (Int64.sub (Tel.Clock.now_ns ()) t0)

(* The exception path: finish the tracker — stop its ticker, disable
   Progress, end the stream with run_end — then re-raise. *)
let abandon ev ~t0 e =
  let bt = Printexc.get_raw_backtrace () in
  Tel.Events.finish ev ~classes:[] ~wall_s:(seconds_since t0) ~utilization:[];
  Printexc.raise_with_backtrace e bt

(* Per-domain rows for the variant phase: pool counters diffed against
   the snapshot taken at its start, busy ratio against its wall clock
   (also published as gauges). *)
let utilization_rows ~wall_s before =
  List.map
    (fun (domain, (d : Pool.domain_stats)) ->
      Tel.Events.util_row ~wall_s ~domain ~busy_ns:d.Pool.busy_ns ~items:d.Pool.items
        ~longest_stall_ns:d.Pool.longest_stall_ns)
    (Pool.utilization_since before)

(* Label counts over the reports' healing labels, sorted by label. *)
let healing_histogram reports =
  List.fold_right
    (fun l acc ->
      match acc with (l', n) :: rest when l' = l -> (l, n + 1) :: rest | _ -> (l, 1) :: acc)
    (List.sort compare (List.filter_map (fun r -> r.healing) reports))
    []

let run ~kind ~variant_span ?span_args ?jobs ?seed ?(options = []) ?manifest ?seconds ~name
    ~setup ~variant items =
  let snap0 = Tel.Metrics.snapshot () in
  let span = Tel.Trace.start () in
  let ctx = setup () in
  let ev = Tel.Events.run_start ~kind ~total:(List.length items) ?jobs ~options () in
  let util0 = Pool.utilization () in
  Pool.reset_stall_watermarks ();
  let t0 = Tel.Clock.now_ns () in
  (* index-addressed so the stream reassembles in run order whatever
     domain ran the variant *)
  let one (idx, item) =
    let label = name item in
    Tel.Progress.variant_start label;
    let tok = Tel.Trace.start () in
    let v0 = Tel.Clock.now_ns () in
    let result, r = variant ctx item in
    let secs = seconds_since v0 in
    Option.iter (fun h -> Tel.Metrics.observe h secs) seconds;
    Tel.Trace.finish ~cat:kind
      ~args:(match span_args with Some f when tok >= 0L -> f item | _ -> [])
      variant_span tok;
    Tel.Progress.variant_finish ~failed:r.failed;
    Tel.Events.variant_done ev
      {
        Tel.Events.ev_idx = idx;
        ev_name = label;
        ev_classes = r.classes;
        ev_healing = r.healing;
        ev_failed = r.failed;
        ev_steps = r.steps;
        ev_seconds = secs;
      };
    ( result,
      r,
      { Tel.Manifest.v_name = label; v_classes = r.classes; v_seconds = secs; v_metrics = r.metrics }
    )
  in
  let out =
    match Pool.parallel_list_map ?jobs one (List.mapi (fun i x -> (i, x)) items) with
    | out -> out
    | exception e -> abandon ev ~t0 e
  in
  Tel.Trace.finish ~cat:kind kind span;
  let wall_s = seconds_since t0 in
  let utilization = utilization_rows ~wall_s util0 in
  let metrics = Tel.Metrics.diff snap0 (Tel.Metrics.snapshot ()) in
  let variants = List.map (fun (_, _, v) -> v) out in
  Tel.Events.finish ev ~classes:(Tel.Manifest.histogram variants) ~wall_s ~utilization;
  Option.iter
    (fun path ->
      Tel.Manifest.write ~path
        (Tel.Manifest.create ?seed ~options
           ~healing:(healing_histogram (List.map (fun (_, r, _) -> r) out))
           ~variants ~metrics
           ~spans:(Tel.Trace.aggregate (Tel.Trace.peek ()))
           ~kind ()))
    manifest;
  {
    setup = ctx;
    results = List.map (fun (x, _, _) -> x) out;
    variants;
    metrics;
    utilization;
    wall_s;
  }

let frame ~kind f =
  let t0 = Tel.Clock.now_ns () in
  let ev = Tel.Events.run_start ~kind ~total:0 () in
  match f () with
  | v ->
      Tel.Events.finish ev ~classes:[] ~wall_s:(seconds_since t0) ~utilization:[];
      v
  | exception e -> abandon ev ~t0 e
