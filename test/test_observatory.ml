(* Live run observatory: the streaming event pipeline end to end.

   - Json non-finite floats serialize as null and finite floats
     round-trip (qcheck property);
   - the ETA estimator never raises its estimate when more lanes
     retire at a fixed clock reading;
   - a real campaign's and a Monte-Carlo run's event streams
     normalize identically at jobs = 1 and jobs = 4, and replaying
     them agrees with the run manifest (variant count, class
     histogram, campaign step totals);
   - a variant that raises still ends the stream with run_end and
     leaves progress recording off;
   - the watch state fold and renderer are pure functions of the
     stream;
   - trend analysis units (sparkline scaling, regression flags,
     history parsing);
   - pool busy/idle accounting attributes every item exactly once. *)

module Json = Cml_telemetry.Json
module Ev = Cml_telemetry.Events
module Trend = Cml_telemetry.Trend
module Manifest = Cml_telemetry.Manifest
module Pool = Cml_runtime.Pool
module D = Cml_defects.Defect

(* ------------------------------------------------------------------ *)
(* Json: numbers always produce a parseable document *)

let float_gen =
  QCheck2.Gen.(
    oneof
      [
        float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e300; -1e-300 ];
      ])

let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"Json floats round-trip; non-finite serialize as null" ~count:500
    float_gen (fun f ->
      let s = Json.to_compact_string (Json.Obj [ ("v", Json.Num f) ]) in
      match Json.member "v" (Json.parse s) with
      | Some Json.Null -> not (Float.is_finite f)
      | Some (Json.Num g) ->
          (* the writer keeps 6 significant digits: worst case is half
             an ulp at the 6th digit, 5e-6 relative *)
          Float.is_finite f
          && (f = g || Float.abs (f -. g) <= 5e-6 *. Float.max (Float.abs f) (Float.abs g))
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Estimator: retirement never pushes the ETA up *)

let prop_eta_monotone =
  QCheck2.Test.make ~name:"ETA non-increasing as lanes retire at a fixed clock" ~count:200
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 0 1000) (int_range 0 1000))
    (fun (total, a, b) ->
      let a = min a total and b = min b total in
      let lo = min a b and hi = max a b in
      let now_s = 10.0 in
      let eta completed =
        let e = Ev.Estimator.create ~total ~now_s:0.0 in
        Ev.Estimator.note e ~completed;
        Ev.Estimator.eta_s e ~now_s
      in
      match (eta lo, eta hi) with
      | None, _ -> lo = 0 (* no estimate until the first retirement *)
      | Some _, None -> false
      | Some e_lo, Some e_hi -> e_hi <= e_lo +. 1e-9)

let test_eta_failed_counts_as_retired () =
  (* note takes retired lanes whatever their fate; a second note with
     a smaller count must not move the estimate backwards *)
  let e = Ev.Estimator.create ~total:10 ~now_s:0.0 in
  Ev.Estimator.note e ~completed:4;
  let eta4 = Ev.Estimator.eta_s e ~now_s:2.0 in
  Ev.Estimator.note e ~completed:2;
  Alcotest.(check bool) "note is monotonic" true (Ev.Estimator.eta_s e ~now_s:2.0 = eta4);
  match eta4 with
  | Some v -> Alcotest.(check (float 1e-9)) "eta = remaining / rate" 3.0 v
  | None -> Alcotest.fail "no estimate after retirement"

(* ------------------------------------------------------------------ *)
(* Determinism + manifest parity on a real campaign *)

let campaign_defects =
  [
    D.Pipe { device = "x2.q3"; r = 4e3 };
    D.Terminal_short { device = "x2.q2"; t1 = "c"; t2 = "e" };
    D.Open_terminal { device = "x2.q1"; terminal = "b" };
  ]

(* Run [f] with the event stream installed on [events]. *)
let with_events events f =
  Ev.install (Ev.open_sink events);
  Fun.protect ~finally:Ev.close f

let run_campaign_with_events ~jobs ~events ~manifest =
  with_events events @@ fun () ->
  Cml_defects.Campaign.run ~stages:4 ~dut:2 ~freq:1e9 ~tstop:4e-9 ~jobs ~manifest
    ~defects:campaign_defects ()

let run_mc_with_events ~jobs ~events ~manifest =
  with_events events @@ fun () ->
  Cml_dft.Montecarlo.run ~n:6 ~samples:12 ~seed:2 ~jobs ~manifest ()

let with_tmp names f =
  let paths = List.map (fun n -> Filename.temp_file "cml_obs" n) names in
  Fun.protect ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
  @@ fun () -> f paths

let count_ev name docs =
  List.length
    (List.filter (fun j -> Json.member "ev" j = Some (Json.Str name)) docs)

(* The stream of a run at jobs=1 ([d1]) against the same run at
   jobs=4 ([d4]) and the jobs=1 manifest [m]. *)
let check_stream_parity ~what d1 d4 (m : Manifest.t) =
  let check_int name = Alcotest.(check int) (what ^ ": " ^ name) in
  (* determinism: the normalized streams are structurally equal *)
  Alcotest.(check bool) (what ^ ": normalized streams identical at jobs=1 and jobs=4") true
    (Ev.normalize d1 = Ev.normalize d4);
  (* framing: one run_start, one utilization, one run_end, one
     variant_start/variant_done pair per variant *)
  check_int "one run_start" 1 (count_ev "run_start" d1);
  check_int "one utilization" 1 (count_ev "utilization" d1);
  check_int "one run_end" 1 (count_ev "run_end" d1);
  check_int "variant_done count = manifest variants" (List.length m.Manifest.variants)
    (count_ev "variant_done" d1);
  check_int "variant_start count = manifest variants" (List.length m.Manifest.variants)
    (count_ev "variant_start" d1);
  (* parity: the run_end class histogram is the manifest's *)
  let run_end = List.find (fun j -> Json.member "ev" j = Some (Json.Str "run_end")) d1 in
  let classes =
    match Json.member "classes" run_end with
    | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, int_of_float (Option.get (Json.to_float v)))) kvs
    | _ -> []
  in
  Alcotest.(check (list (pair string int)))
    (what ^ ": run_end classes = manifest class histogram")
    (Manifest.class_histogram m) classes

let test_events_replay_parity () =
  with_tmp [ "_ev1.jsonl"; "_man1.json"; "_ev4.jsonl"; "_man4.json" ]
  @@ function
  | [ ev1; man1; ev4; man4 ] ->
      let mc1 = run_mc_with_events ~jobs:1 ~events:ev1 ~manifest:man1 in
      let _mc4 = run_mc_with_events ~jobs:4 ~events:ev4 ~manifest:man4 in
      check_stream_parity ~what:"montecarlo" (Ev.read_file ev1) (Ev.read_file ev4)
        (Manifest.of_json (Json.parse_file man1));
      Alcotest.(check int) "montecarlo: one variant per sample" 12
        (List.length mc1.Cml_dft.Montecarlo.sample_reports);
      let c1 = run_campaign_with_events ~jobs:1 ~events:ev1 ~manifest:man1 in
      let _c4 = run_campaign_with_events ~jobs:4 ~events:ev4 ~manifest:man4 in
      let d1 = Ev.read_file ev1 and d4 = Ev.read_file ev4 in
      check_stream_parity ~what:"campaign" d1 d4 (Manifest.of_json (Json.parse_file man1));
      (* step totals: summed variant_done accepted_steps match the
         campaign's own variant telemetry *)
      let streamed_steps =
        List.fold_left
          (fun acc j ->
            if Json.member "ev" j = Some (Json.Str "variant_done") then
              match Json.member "accepted_steps" j with
              | Some (Json.Num n) -> acc + int_of_float n
              | _ -> acc
            else acc)
          0 d1
      in
      let campaign_steps =
        List.fold_left
          (fun acc (v : Manifest.variant) ->
            acc
            + int_of_float
                (Option.value ~default:0.0
                   (List.assoc_opt "accepted_steps" v.Manifest.v_metrics)))
          0 c1.Cml_defects.Campaign.variants
      in
      Alcotest.(check int) "streamed steps = campaign steps" campaign_steps streamed_steps;
      (* the utilization table accounts at least one item per variant
         and never more busy time than a domain could have *)
      List.iter
        (fun (u : Ev.domain_util) ->
          Alcotest.(check bool) "busy_s non-negative" true (u.Ev.du_busy_s >= 0.0);
          Alcotest.(check bool) "busy <= wall (single domain cannot exceed the run)" true
            (u.Ev.du_busy_s <= c1.Cml_defects.Campaign.wall_s *. 1.5))
        c1.Cml_defects.Campaign.utilization;
      let items =
        List.fold_left (fun a (u : Ev.domain_util) -> a + u.Ev.du_items) 0
          c1.Cml_defects.Campaign.utilization
      in
      Alcotest.(check bool) "utilization items cover the variants" true
        (items >= List.length campaign_defects)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Run driver: a raising variant still finishes the run *)

exception Boom

let test_driver_exception_path () =
  with_tmp [ "_evx.jsonl" ]
  @@ function
  | [ events ] ->
      let manifest = events ^ ".manifest.json" in
      let ok =
        { Cml_runtime.Run.classes = []; healing = None; failed = false; steps = 0; metrics = [] }
      in
      let raised =
        with_events events @@ fun () ->
        match
          Cml_runtime.Run.run ~kind:"test" ~variant_span:"item" ~jobs:2 ~manifest
            ~name:string_of_int ~setup:ignore
            ~variant:(fun () i -> if i = 2 then raise Boom else (i, ok))
            [ 0; 1; 2; 3; 4 ]
        with
        | _ -> false
        | exception Boom -> true
      in
      Alcotest.(check bool) "the variant's exception propagates" true raised;
      Alcotest.(check bool) "progress disabled afterwards" false
        (Cml_telemetry.Progress.enabled ());
      Alcotest.(check bool) "no manifest written" false (Sys.file_exists manifest);
      let last = List.nth_opt (List.rev (Ev.read_file events)) 0 in
      Alcotest.(check (option string)) "the stream ends with run_end" (Some "run_end")
        (match Option.bind last (Json.member "ev") with Some (Json.Str ev) -> Some ev | _ -> None)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Watch state fold: a pure function of the stream *)

let synthetic_stream =
  String.concat "\n"
    [
      {|{"ev":"run_start","schema":"cml-dft-events/1","kind":"campaign","total":2,"options":{"freq":"1e9"},"timing":{"t_s":0.0,"jobs":2,"cores":4}}|};
      {|{"ev":"variant_start","idx":0,"name":"pipe","timing":{"t_s":0.1}}|};
      {|{"ev":"variant_done","idx":0,"name":"pipe","classes":["excessive-excursion"],"healing":"depth=2","accepted_steps":100,"timing":{"t_s":0.5,"seconds":0.4}}|};
      {|{"ev":"heartbeat","done":1,"failed":0,"total":2,"accepted_steps":100,"timing":{"t_s":0.5,"eta_s":0.5,"rate_per_s":2.0,"domains":[{"id":0,"started":1,"done":1,"failed":0,"steps":100,"label":"pipe"}]}}|};
      {|{"ev":"warning","key":"pool.oversubscribed","message":"8 jobs on 4 cores","timing":{"t_s":0.6}}|};
      {|{"ev":"variant_start","idx":1,"name":"short","timing":{"t_s":0.6}}|};
      {|{"ev":"variant_done","idx":1,"name":"short","classes":["failed"],"accepted_steps":0,"timing":{"t_s":0.9,"seconds":0.3}}|};
      {|{"ev":"utilization","timing":{"t_s":1.0,"wall_s":1.0,"domains":[{"id":0,"busy_s":0.7,"busy_ratio":0.7,"items":2,"longest_stall_s":0.1}]}}|};
      {|{"ev":"run_end","kind":"campaign","done":1,"failed":1,"total":2,"classes":{"excessive-excursion":1,"failed":1},"timing":{"t_s":1.0}}|};
    ]

let test_watch_state_fold () =
  let st = Ev.state_of_events (Ev.read_string synthetic_stream) in
  Alcotest.(check string) "kind" "campaign" st.Ev.w_kind;
  Alcotest.(check int) "total" 2 st.Ev.w_total;
  Alcotest.(check int) "done" 1 st.Ev.w_done;
  Alcotest.(check int) "failed" 1 st.Ev.w_failed;
  Alcotest.(check int) "steps" 100 st.Ev.w_steps;
  Alcotest.(check bool) "finished" true st.Ev.w_finished;
  Alcotest.(check (list (pair string int))) "healing histogram" [ ("depth=2", 1) ]
    st.Ev.w_healing;
  Alcotest.(check int) "one warning retained" 1 (List.length st.Ev.w_warnings);
  Alcotest.(check (option (float 1e-9))) "wall from utilization" (Some 1.0) st.Ev.w_wall_s;
  (match st.Ev.w_util with
  | [ u ] ->
      Alcotest.(check int) "util domain" 0 u.Ev.du_domain;
      Alcotest.(check (float 1e-9)) "util busy ratio" 0.7 u.Ev.du_busy_ratio
  | _ -> Alcotest.fail "expected one utilization row");
  let text = Ev.render_state st in
  let has sub =
    Alcotest.(check bool) (Printf.sprintf "render mentions %S" sub) true
      (let n = String.length text and m = String.length sub in
       let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
       go 0)
  in
  has "campaign";
  has "2/2";
  has "excessive-excursion";
  has "run complete";
  (* partial stream: not finished, mid-run counters *)
  let mid =
    Ev.state_of_events
      (Ev.read_string (String.concat "\n" (List.filteri (fun i _ -> i < 4)
         (String.split_on_char '\n' synthetic_stream))))
  in
  Alcotest.(check bool) "mid-stream not finished" false mid.Ev.w_finished;
  Alcotest.(check int) "mid-stream done" 1 mid.Ev.w_done;
  Alcotest.(check (option (float 1e-9))) "mid-stream eta" (Some 0.5) mid.Ev.w_eta_s

(* ------------------------------------------------------------------ *)
(* Trend units *)

let test_trend_sparkline () =
  Alcotest.(check string) "empty series" "" (Trend.sparkline []);
  let s = Trend.sparkline [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "one glyph (3 utf-8 bytes) per point" 9 (String.length s);
  Alcotest.(check string) "rising series spans the levels" "\xe2\x96\x81\xe2\x96\x84\xe2\x96\x88" s;
  Alcotest.(check string) "flat series sits mid-scale" "\xe2\x96\x84\xe2\x96\x84"
    (Trend.sparkline [ 5.0; 5.0 ])

let perf_entry ~jobs ~cores kernels campaign =
  Json.Obj
    ([
       ("jobs", Json.Num (float_of_int jobs));
       ("cores", Json.Num (float_of_int cores));
       ( "kernels",
         Json.List
           (List.map
              (fun (name, ns) ->
                Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Num ns) ])
              kernels) );
     ]
    @
    match campaign with
    | Some (t1, tn) ->
        [ ("campaign", Json.Obj [ ("jobs1_s", Json.Num t1); ("jobsN_s", Json.Num tn) ]) ]
    | None -> [])

let test_trend_regression_flags () =
  let history =
    [
      perf_entry ~jobs:4 ~cores:4 [ ("solve", 100.0) ] (Some (10.0, 4.0));
      perf_entry ~jobs:4 ~cores:4 [ ("solve", 130.0) ] (Some (10.5, 4.1));
    ]
  in
  (match Trend.kernel_trends history with
  | [ solve ] ->
      (* 1.3x > the 1.25x kernel limit *)
      Alcotest.(check bool) "solve regressed at 1.25x" true solve.Trend.k_regressed;
      Alcotest.(check int) "series length" 2 (List.length solve.Trend.k_series)
  | _ -> Alcotest.fail "expected one kernel row");
  match Trend.campaign_trend history with
  | Some c ->
      Alcotest.(check int) "probe matches both entries" 2 (List.length c.Trend.c_series);
      Alcotest.(check bool) "probe within limits" false c.Trend.c_regressed
  | None -> Alcotest.fail "expected a campaign trend"

let test_trend_baseline_matching () =
  (* the probe only compares entries recorded at the latest (jobs,
     cores) setting: a slow 2-core entry must not flag a 4-core run *)
  let history =
    [
      perf_entry ~jobs:2 ~cores:2 [] (Some (10.0, 9.0));
      perf_entry ~jobs:4 ~cores:4 [] (Some (10.0, 4.0));
    ]
  in
  match Trend.campaign_trend history with
  | Some c ->
      Alcotest.(check int) "only the matching entry" 1 (List.length c.Trend.c_series);
      Alcotest.(check bool) "no cross-setting regression" false c.Trend.c_regressed
  | None -> Alcotest.fail "expected a campaign trend"

let test_trend_history_parsing () =
  let doc_v2 =
    Json.Obj
      [
        ("schema", Json.Str "cml-dft-perf/2");
        ("history", Json.List [ perf_entry ~jobs:1 ~cores:1 [] None ]);
      ]
  in
  Alcotest.(check int) "v2 history entries" 1 (List.length (Trend.history_of_json doc_v2));
  Alcotest.(check int) "manifest is not a history" 0
    (List.length (Trend.history_of_json (Json.Obj [ ("schema", Json.Str "cml-dft-manifest/1") ])))

(* ------------------------------------------------------------------ *)
(* Pool accounting: every item attributed exactly once *)

let test_pool_utilization_accounting () =
  let before = Pool.utilization () in
  Pool.reset_stall_watermarks ();
  let n = 64 in
  let out =
    Pool.parallel_map ~jobs:4
      (fun i ->
        (* enough work per item that busy time is measurable *)
        let acc = ref 0.0 in
        for k = 1 to 2000 do
          acc := !acc +. sin (float_of_int (i * k))
        done;
        !acc)
      (Array.init n Fun.id)
  in
  Alcotest.(check int) "map computed" n (Array.length out);
  let rows = Pool.utilization_since before in
  let items = List.fold_left (fun a (_, (d : Pool.domain_stats)) -> a + d.Pool.items) 0 rows in
  Alcotest.(check int) "items attributed exactly once" n items;
  List.iter
    (fun (_, (d : Pool.domain_stats)) ->
      Alcotest.(check bool) "busy time non-negative" true (d.Pool.busy_ns >= 0L);
      Alcotest.(check bool) "stall watermark non-negative" true (d.Pool.longest_stall_ns >= 0L))
    rows;
  (* sequential fallback accounts too, against the calling domain *)
  let before = Pool.utilization () in
  ignore (Pool.parallel_map ~jobs:1 (fun i -> i + 1) (Array.init 16 Fun.id));
  let rows = Pool.utilization_since before in
  let items = List.fold_left (fun a (_, (d : Pool.domain_stats)) -> a + d.Pool.items) 0 rows in
  Alcotest.(check int) "sequential path attributed" 16 items

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "observatory"
    [
      ( "json",
        [ QCheck_alcotest.to_alcotest prop_json_float_roundtrip ] );
      ( "estimator",
        [
          QCheck_alcotest.to_alcotest prop_eta_monotone;
          Alcotest.test_case "failed lanes retire the estimate" `Quick
            test_eta_failed_counts_as_retired;
        ] );
      ( "events",
        [
          Alcotest.test_case "jobs=1/4 determinism and manifest parity" `Slow
            test_events_replay_parity;
          Alcotest.test_case "a raising variant finishes the run" `Quick
            test_driver_exception_path;
        ] );
      ( "watch", [ Alcotest.test_case "state fold and render" `Quick test_watch_state_fold ] );
      ( "trend",
        [
          Alcotest.test_case "sparkline scaling" `Quick test_trend_sparkline;
          Alcotest.test_case "regression flags per limit" `Quick test_trend_regression_flags;
          Alcotest.test_case "best-matching baseline rule" `Quick test_trend_baseline_matching;
          Alcotest.test_case "history schema parsing" `Quick test_trend_history_parsing;
        ] );
      ( "pool",
        [
          Alcotest.test_case "utilization accounting" `Quick test_pool_utilization_accounting;
        ] );
    ]
