(* End-to-end tests of the diagnosis pipeline: the paper's 3 kohm
   pipe defect on the DUT stage must read as degraded at the DUT,
   healed within a few stages, and nominal again at the chain output;
   the record must round-trip through JSON and dump a valid VCD. *)

module D = Cml_dft.Diagnose
module H = Cml_wave.Health

let pipe3k = Cml_defects.Defect.Pipe { device = "x3.q3"; r = 3000.0 }

(* one simulation shared by every test *)
let record =
  lazy
    (D.run ~defect:pipe3k
       Cml_defects.Campaign.(resolve ~freq:100e6 (Chain { stages = 8; dut = 3 })))

let test_healing_depth () =
  let d = Lazy.force record in
  Alcotest.(check (option int))
    "fault-free chain is clean" None d.D.nominal.H.first_degraded;
  Alcotest.(check (option int)) "degraded at the DUT stage" (Some d.D.dut)
    d.D.faulty.H.first_degraded;
  (match d.D.faulty.H.healing_depth with
  | Some depth ->
      Alcotest.(check bool)
        (Printf.sprintf "heals within a few stages (got %d)" depth)
        true
        (depth >= 1 && depth <= 4)
  | None -> Alcotest.fail "expected a finite healing depth");
  (* nominal again at the chain output *)
  let last = List.nth d.D.faulty.H.stages (d.D.stages - 1) in
  Alcotest.(check bool) "chain output back within tolerance" true last.H.within

let test_detector_sees_defect () =
  let d = Lazy.force record in
  (* variant-1 detector at the DUT: the static pipe is folded into the
     DC operating point, so the flag is asserted from t = 0 and the
     output sits well below the quiescent rail *)
  Alcotest.(check bool) "vout drop past the 0.15 V detect threshold" true
    (d.D.timeline.H.drop > 0.15);
  (match d.D.timeline.H.flag_time with
  | Some t -> Alcotest.(check (float 1e-12)) "flagged from the start" 0.0 t
  | None -> Alcotest.fail "expected a flag time")

let test_probed_waves () =
  let d = Lazy.force record in
  (* 2 per stage + in.p/in.n + det.vout *)
  Alcotest.(check int) "probe count" ((2 * d.D.stages) + 3) (List.length d.D.waves);
  Alcotest.(check bool) "detector wave present" true
    (not (Cml_wave.Wave.is_empty d.D.detector_wave));
  (* all waves share the faulty run's accepted-step time axis *)
  let n = Cml_wave.Wave.length d.D.detector_wave in
  List.iter
    (fun (name, w) ->
      if Cml_wave.Wave.length w <> n then Alcotest.failf "probe %s on a different axis" name)
    d.D.waves

let test_json_roundtrip () =
  let d = Lazy.force record in
  let d' = D.of_json (D.to_json d) in
  Alcotest.(check string) "defect" d.D.defect d'.D.defect;
  Alcotest.(check (list string)) "classes" d.D.classes d'.D.classes;
  Alcotest.(check int) "stages" d.D.stages d'.D.stages;
  Alcotest.(check int) "dut" d.D.dut d'.D.dut;
  Alcotest.(check (float 1e-9)) "nominal_low" d.D.nominal_low d'.D.nominal_low;
  Alcotest.(check (option int)) "first_degraded" d.D.faulty.H.first_degraded
    d'.D.faulty.H.first_degraded;
  Alcotest.(check (option int)) "healing_depth" d.D.faulty.H.healing_depth
    d'.D.faulty.H.healing_depth;
  Alcotest.(check (float 1e-9)) "drop" d.D.timeline.H.drop d'.D.timeline.H.drop;
  Alcotest.(check int) "stage tables survive"
    (List.length d.D.faulty.H.stages)
    (List.length d'.D.faulty.H.stages);
  (* waves are deliberately not serialised *)
  Alcotest.(check int) "no waves after round trip" 0 (List.length d'.D.waves);
  Alcotest.(check bool) "render still works" true
    (String.length (D.render_text d') > 0)

let test_bad_schema_rejected () =
  match D.of_json (Cml_telemetry.Json.Obj [ ("schema", Cml_telemetry.Json.Str "nope/9") ]) with
  | _ -> Alcotest.fail "expected Bad_diagnosis"
  | exception D.Bad_diagnosis _ -> ()

let test_vcd_emission () =
  let d = Lazy.force record in
  let path = Filename.temp_file "cmldiag" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      D.write_vcd ~timescale_fs:1000 ~path d;
      let ic = open_in path in
      let header = input_line ic in
      let n = in_channel_length ic in
      close_in ic;
      Alcotest.(check string) "vcd header" "$version cml-dft analog dump $end" header;
      Alcotest.(check bool) "non-trivial dump" true (n > 10_000));
  (* a deserialised record has no waves to dump *)
  let d' = D.of_json (D.to_json d) in
  match D.write_vcd ~path:"/dev/null" d' with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_write_read_json_file () =
  let d = Lazy.force record in
  let path = Filename.temp_file "cmldiag" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      D.write_json ~path d;
      let d' = D.read_json ~path in
      Alcotest.(check string) "defect survives the file" d.D.defect d'.D.defect;
      Alcotest.(check (option int)) "healing depth survives the file"
        d.D.faulty.H.healing_depth d'.D.faulty.H.healing_depth)

let () =
  Alcotest.run "diagnose"
    [
      ( "pipe-3k",
        [
          Alcotest.test_case "healing depth" `Slow test_healing_depth;
          Alcotest.test_case "detector sees defect" `Slow test_detector_sees_defect;
          Alcotest.test_case "probed waves" `Slow test_probed_waves;
          Alcotest.test_case "json roundtrip" `Slow test_json_roundtrip;
          Alcotest.test_case "bad schema rejected" `Quick test_bad_schema_rejected;
          Alcotest.test_case "vcd emission" `Slow test_vcd_emission;
          Alcotest.test_case "json file io" `Slow test_write_read_json_file;
        ] );
    ]
