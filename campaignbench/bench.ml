(* The campaign benchmark.  One closed-loop client drives the library
   in-process: one campaign or Monte-Carlo call in flight at a time.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --make-reference

   [--trace 0] repeats the product call for about S seconds and
   prints the end-to-end metrics; [--trace 1] records spans around the
   calls into each layer, reads the counters the library publishes and
   prints the per-layer metrics with a ledger that adds up to the
   traced wall.  Either way every variant is checked against the
   stored reference table, and the last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

module Tel = Cml_telemetry
module W = Workloads

let median l = Cml_numerics.Stats.percentile (Array.of_list l) 50.0
let now = Tel.Clock.now_ns
let secs t0 t1 = Tel.Clock.ns_to_s (Int64.sub t1 t0)

(* A variant whose level is further than this from the reference
   fails the output check. *)
let level_tolerance_mv = 10.0

(* Set-ups are timed in a batch before every call: at least
   [setup_min], then more while the batch took under [setup_budget_s],
   up to [setup_max]. *)
let setup_min = 5
let setup_max = 1000
let setup_budget_s = 0.05

(* ---- host record ---- *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        0.0 (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.0

(* The git revision when run from a clone, else a digest of the
   library sources, so every result names the code it measured. *)
let revision () =
  let git =
    if Sys.file_exists ".git" then begin
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      line
    end
    else None
  in
  match git with
  | Some rev -> rev
  | None ->
      let rec files dir =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
               else [])
      in
      "src-" ^ String.sub (Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))) 0 12

(* ---- output ---- *)

let metric_json (name, value, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_metrics title ms =
  Printf.printf "%s:\n" title;
  List.iter (fun (name, value, unit) -> Printf.printf "  %-34s %14.6g %s\n" name value unit) ms

let result_line ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map metric_json ms))

(* ---- shared run state ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable level_dev_mv : float;
  mutable digests : string list;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; level_dev_mv = 0.0; digests = []; problems = [] }

let problem t fmt = Printf.ksprintf (fun s -> t.problems <- s :: t.problems) fmt

(* Check one call's outputs and its statistics digest. *)
let record t table (call : W.call) =
  let c = W.check table call in
  t.attempted <- t.attempted + c.attempted;
  t.failed <- t.failed + c.failed;
  t.level_dev_mv <- Float.max t.level_dev_mv c.level_dev_mv;
  let d, text = W.digest call in
  if not (List.mem d t.digests) then begin
    if t.digests <> [] then problem t "statistics digest changed between identical calls: %s" text;
    t.digests <- d :: t.digests;
    Printf.printf "digest %s  %s\n%!" d text
  end

let failed_ratio t = float_of_int t.failed /. float_of_int (max 1 t.attempted)

let finish t ms =
  if t.failed > 0 then problem t "%d of %d variants differ from the reference" t.failed t.attempted;
  if t.level_dev_mv > level_tolerance_mv then
    problem t "level deviation %.3f mV exceeds %.1f mV" t.level_dev_mv level_tolerance_mv;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev t.problems);
  let correct = t.problems = [] in
  result_line ~correct ~attempted:t.attempted ~failed:t.failed ms;
  if not correct then exit 1

(* Repeat [f] for about [seconds]: a new call starts only while the
   median call so far still fits in the time left; at least one. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    let v, s = f () in
    let acc = (v, s) :: acc in
    let elapsed = secs t0 (now ()) in
    if elapsed +. median (List.map snd acc) <= seconds then go acc else List.rev acc
  in
  go []

(* ---- untraced run: end-to-end metrics ---- *)

let end_to_end (w : W.t) ~seed ~seconds ~jobs reference =
  let table = w.table reference in
  (* only the first set-up is kept; the batches are timed and dropped *)
  let p = w.prepare ~seed reference in
  Printf.printf "inputs: %s\n%!" p.describe;
  let rec batch times total =
    let n = List.length times in
    if n >= setup_max || (n >= setup_min && total >= setup_budget_s) then median times
    else
      let s = (w.prepare ~seed reference).setup_s in
      batch (s :: times) (total +. s)
  in
  let t = tally () in
  let calls =
    repeat ~seconds (fun () ->
        let setup = batch [] 0.0 in
        let c = p.call ~jobs ~preflight:true in
        record t table c;
        ((c, setup), c.call_s))
  in
  let walls = List.map snd calls in
  let variants = float_of_int (List.length (fst (fst (List.hd calls))).results) in
  (* the slowest call (and set-up batch): on a shared host, calls run in
     bursts up to 40% faster while the neighbours idle, so the median of
     a run follows the neighbours, while the slowest reads the base speed *)
  let slowest = List.fold_left Float.max 0.0 in
  let wall = slowest walls in
  Printf.printf "calls: %d, median %.3f s, wall_s %s\n" (List.length walls) (median walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  let ms =
    [
      ("setup_s", slowest (List.map (fun ((_, setup), _) -> setup) calls), "s");
      ("wall_s", wall, "s");
      ("variants_per_s", variants /. wall, "1/s");
    ]
  in
  print_metrics "end-to-end" ms;
  print_metrics "unbounded"
    [
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("failed_ratio", failed_ratio t, "ratio");
      ("level_dev_mv", t.level_dev_mv, "mV");
    ];
  finish t ms

(* ---- traced run: per-layer metrics and the ledger ---- *)

type pass = {
  wall : float;  (** traced wall: the whole recorded pass *)
  call_part : float;  (** the traced product call: preflight plus call *)
  call : W.call;
  layers : (string * float) list;  (** ledger rows, seconds *)
  idle : float;
  gc_minor_words : float;
  gc_major : int;
  spans : Spans.span list;
}

let traced_pass (w : W.t) ~seed ~jobs ~pass_id reference =
  Spans.start_pass pass_id;
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let t_root0 = now () in
  let call, call_part =
    Spans.with_ "run" (fun () ->
        let p = Spans.with_ "setup" (fun () -> w.prepare ~seed reference) in
        let c0 = now () in
        if p.preflights then
          Spans.with_ "analysis.preflight" (fun () ->
              Cml_analysis.Lint.preflight_netlist ~what:"campaign golden netlist" p.golden);
        let call =
          Spans.within "campaign.call" (fun id ->
              gc0 := Gc.quick_stat ();
              let t0 = now () in
              let c = p.call ~jobs ~preflight:false in
              let t1 = now () in
              gc1 := Gc.quick_stat ();
              let split = Int64.sub t1 (Int64.of_float (c.phase_s *. 1e9)) in
              Spans.add ~name:"campaign.reference" ~parent:id ~t0 ~t1:split;
              Spans.add ~name:"campaign.variant_phase" ~parent:id ~t0:split ~t1;
              c)
        in
        (call, secs c0 (now ())))
  in
  let wall = secs t_root0 (now ()) in
  let self = Spans.self_times () in
  let self_of n = Option.value ~default:0.0 (List.assoc_opt n self) in
  let phase = self_of "campaign.variant_phase" in
  let util = call.utilization in
  let mean_busy =
    match util with
    | [] -> 1.0
    | us ->
        List.fold_left (fun a (u : Tel.Events.domain_util) -> a +. Float.min 1.0 u.du_busy_ratio) 0.0 us
        /. float_of_int (List.length us)
  in
  let idle = phase *. (1.0 -. mean_busy) in
  let layers =
    [
      ("logic.parse_s", self_of "logic.parse");
      ("cells.build_s", self_of "cells.build");
      ("defects.enumerate_s", self_of "defects.enumerate");
      ("analysis.preflight_s", self_of "analysis.preflight");
      ("campaign.reference_s", self_of "campaign.reference");
      ("campaign.variant_busy_s", phase -. idle);
    ]
  in
  {
    wall;
    call_part;
    call;
    layers;
    idle;
    gc_minor_words = !gc1.minor_words -. !gc0.minor_words;
    gc_major = !gc1.major_collections - !gc0.major_collections;
    spans = Spans.spans ();
  }

let per_layer (w : W.t) ~seed ~seconds ~jobs reference =
  let table = w.table reference in
  let t = tally () in
  let plain = w.prepare ~seed reference in
  Printf.printf "inputs: %s\n%!" plain.describe;
  (* untraced and traced calls alternate, so the overhead ratio
     compares like with like *)
  let k = ref 0 in
  let rounds =
    repeat ~seconds (fun () ->
        Spans.enabled := false;
        let c = plain.call ~jobs ~preflight:true in
        record t table c;
        Spans.enabled := true;
        incr k;
        let pass = traced_pass w ~seed ~jobs ~pass_id:(Printf.sprintf "%s-%d-%d" w.name seed !k) reference in
        record t table pass.call;
        ((c.call_s, pass), c.call_s +. pass.wall))
  in
  Spans.enabled := false;
  let passes = List.map (fun ((_, p), _) -> p) rounds in
  let by_wall = List.sort (fun a b -> compare a.wall b.wall) passes in
  let pass = List.nth by_wall ((List.length by_wall - 1) / 2) in
  let overhead =
    median (List.map (fun p -> p.call_part) passes) /. median (List.map (fun ((u, _), _) -> u) rounds)
  in
  (* the extra call of the determinism check: jobs=1 and jobs=2 must
     simulate exactly the same work *)
  if w.name = W.chain.name && W.cores >= 2 then begin
    let c2 = plain.call ~jobs:2 ~preflight:true in
    let c1 = pass.call in
    record t table c2;
    if fst (W.digest c1) <> fst (W.digest c2) then
      problem t "statistics digest differs between jobs=1 and jobs=2: %s / %s" (snd (W.digest c1))
        (snd (W.digest c2))
    else Printf.printf "digest identical at jobs=1 and jobs=2\n"
  end;
  let pr = Probes.run plain.golden in
  let m = pass.call.metrics in
  let cnt n = float_of_int (W.counter m n) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let steps = cnt "transient.accepted_steps" +. cnt "transient.rejected_steps" in
  let newton = cnt "solver.newton_iters" in
  let symbolic = cnt "solver.symbolic_factorizations" in
  (* the dense backend factors on every Newton iteration that neither
     reuses the previous factor nor skips the solve *)
  let numeric =
    if pr.dense then newton -. cnt "solver.reused_factorizations" -. cnt "solver.skipped_solves"
    else cnt "solver.numeric_refactorizations"
  in
  let unattributed =
    pass.wall -. List.fold_left (fun a (_, v) -> a +. v) 0.0 pass.layers -. pass.idle
  in
  let is_mc = w.name = W.mc.name in
  let sample_ms q =
    if is_mc then Cml_numerics.Stats.percentile (Array.of_list (List.map (fun s -> s *. 1e3) pass.call.variant_s)) q
    else 0.0
  in
  let util = pass.call.utilization in
  let umin f = List.fold_left (fun a (u : Tel.Events.domain_util) -> Float.min a (f u)) infinity util in
  let umax f = List.fold_left (fun a (u : Tel.Events.domain_util) -> Float.max a (f u)) 0.0 util in
  let ledger = List.map (fun (n, v) -> (n, v, "s")) pass.layers in
  let ms =
    ledger
    @ [
        ("campaign.variant_phase_s", pass.idle +. List.assoc "campaign.variant_busy_s" pass.layers, "s");
        ("pool.idle_s", pass.idle, "s");
        ("ledger.unattributed_s", unattributed, "s");
        ("trace.overhead_ratio", overhead, "ratio");
        ("engine.newton_iters", newton, "count");
        ("engine.newton_per_step", ratio newton steps, "ratio");
        ("engine.device_loads", cnt "engine.device_loads", "count");
        ("engine.bypass_ratio", ratio (cnt "engine.bypassed_loads") (cnt "engine.device_loads"), "ratio");
        ("engine.reused_factorizations", cnt "solver.reused_factorizations", "count");
        ("engine.skipped_solves", cnt "solver.skipped_solves", "count");
        ("engine.compile_ms", pr.compile_ms, "ms");
        ("engine.dc_ms", pr.dc_ms, "ms");
        ("transient.accepted_steps", cnt "transient.accepted_steps", "count");
        ("transient.rejected_steps", cnt "transient.rejected_steps", "count");
        ("transient.lte_rejection_ratio", ratio (cnt "transient.lte_rejections") steps, "ratio");
        ("transient.guided_seeds", cnt "transient.guided_seeds", "count");
        ("transient.cold_fallbacks", cnt "transient.cold_fallbacks", "count");
        ("lu.symbolic_factorizations", symbolic, "count");
        ("lu.numeric_refactorizations", cnt "solver.numeric_refactorizations", "count");
        ("lu.fill_nnz", float_of_int pr.fill_nnz, "count");
        ("lu.factorize_ms", pr.factorize_ms, "ms");
        ("lu.refactorize_ms", pr.refactorize_ms, "ms");
        ("lu.solve_ms", pr.solve_ms, "ms");
        ("lu.symbolic_s_est", symbolic *. pr.factorize_ms /. 1e3, "s");
        ("lu.numeric_s_est", numeric *. pr.refactorize_ms /. 1e3, "s");
        ("pool.busy_ratio_min", (if util = [] then 1.0 else umin (fun u -> u.du_busy_ratio)), "ratio");
        ("pool.longest_stall_s", umax (fun u -> u.du_longest_stall_s), "s");
        ("gc.minor_mwords", pass.gc_minor_words /. 1e6, "Mwords");
        ("gc.major_collections", float_of_int pass.gc_major, "count");
        ("montecarlo.sample_ms_p50", sample_ms 50.0, "ms");
        ("montecarlo.sample_ms_p90", sample_ms 90.0, "ms");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("failed_ratio", failed_ratio t, "ratio");
        ("level_dev_mv", t.level_dev_mv, "mV");
      ]
  in
  (* the ledger: self times of the layers, pool idle and the rest *)
  Printf.printf "ledger (traced wall %.4f s, %d passes, %d %s unknowns):\n" pass.wall
    (List.length passes) pr.unknowns (if pr.dense then "dense" else "sparse");
  let rows = pass.layers @ [ ("pool.idle_s", pass.idle); ("ledger.unattributed_s", unattributed) ] in
  List.iter
    (fun (n, v) ->
      let share = v /. pass.wall in
      Printf.printf "  %-26s %10.4f s %6.1f%%\n" n v (100.0 *. share);
      if share < -1e-9 || share > 1.0 then problem t "ledger row %s has share %.3f" n share)
    rows;
  Printf.printf "  %-26s %10.4f s\n" "sum" (List.fold_left (fun a (_, v) -> a +. v) 0.0 rows);
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  let trace_file = Printf.sprintf ".bench_out/spans-%s-%d.jsonl" w.name seed in
  Spans.write trace_file (List.concat_map (fun p -> p.spans) passes);
  Printf.printf "spans: %s\n" trace_file;
  print_metrics "per-layer" ms;
  finish t ms

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let make_reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME chain_campaign | c432_campaign | mc_sharing45");
      ("--seed", Arg.Set_int seed, "N workload seed (default 0: the CLI headline inputs)");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--make-reference", Arg.Set make_reference, " regenerate campaignbench/reference.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !make_reference then Reference.make ~jobs:(min 2 W.cores) ~revision:(revision ())
  else
    match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
    | Some w ->
        let jobs = w.jobs in
        Printf.printf
          "host: {\"nproc\": %d, \"jobs\": %d, \"ocaml\": %S, \"revision\": %S, \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d}\n%!"
          W.cores jobs Sys.ocaml_version (revision ()) w.name !seed !seconds !trace;
        let reference = Reference.load () in
        let seconds = float_of_int !seconds in
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds ~jobs reference
        else per_layer w ~seed:!seed ~seconds ~jobs reference
