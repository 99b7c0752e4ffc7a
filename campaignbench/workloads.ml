(* The three workloads: set-up (timed as [setup_s]), the product call
   (timed as [wall_s]) and the output check against the reference
   table. *)

module Tel = Cml_telemetry

type call = {
  call_s : float;  (** host seconds of the whole product call *)
  phase_s : float;  (** the variant / sampling phase, as the call reports it *)
  results : (string * Reference.entry) list;  (** per variant: reference key and outcome *)
  metrics : Tel.Metrics.snapshot;
  utilization : Tel.Events.domain_util list;
  variant_s : float list;  (** per-variant seconds, as the call reports them *)
}

type prepared = {
  setup_s : float;
      (** host seconds of the library set-up calls (parse, compile,
          enumerate); the benchmark's own input draw is excluded *)
  golden : Cml_spice.Netlist.t;  (** the netlist the layer probes time *)
  describe : string;
  preflights : bool;  (** whether the product call lints [golden] first *)
  call : jobs:int -> preflight:bool -> call;
}

type t = {
  name : string;
  jobs : int;  (** at most the host's cores *)
  prepare : seed:int -> Reference.t -> prepared;
  table : Reference.t -> (string, Reference.entry) Hashtbl.t;
}

let timed f =
  let t0 = Tel.Clock.now_ns () in
  let v = f () in
  (v, Tel.Clock.ns_to_s (Int64.sub (Tel.Clock.now_ns ()) t0))

let of_campaign (c : Cml_defects.Campaign.t) call_s =
  {
    call_s;
    phase_s = c.wall_s;
    results =
      List.map
        (fun (e : Cml_defects.Campaign.entry) ->
          (Cml_defects.Defect.describe e.defect, Reference.campaign_entry e))
        c.entries;
    metrics = c.metrics;
    utilization = c.utilization;
    variant_s = List.map (fun (v : Tel.Manifest.variant) -> v.v_seconds) c.variants;
  }

let cores = Domain.recommended_domain_count ()

let chain =
  let prepare ~seed _ =
    let stage, p1, p2 = Inputs.chain_choice seed in
    let (chain, defects), setup_s =
      timed (fun () ->
          let chain = Inputs.chain_golden () in
          (chain, Inputs.chain_defects chain ~stage ~pipes:[ p1; p2 ]))
    in
    {
      setup_s;
      golden = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net;
      describe =
        Printf.sprintf "stage x%d, pipes %.0f and %.0f ohm, %d defects" stage p1 p2
          (List.length defects);
      preflights = true;
      call =
        (fun ~jobs ~preflight ->
          let c, s =
            timed (fun () ->
                Cml_defects.Campaign.run ~freq:Inputs.freq ~stages:Inputs.chain_stages ~dut:stage
                  ~jobs ~preflight ~defects ())
          in
          of_campaign c s);
    }
  in
  { name = "chain_campaign"; jobs = 1; prepare; table = (fun r -> r.Reference.chain) }

let c432 =
  let prepare ~seed (reference : Reference.t) =
    let c, setup_s = timed Inputs.c432 in
    let cost d =
      match Hashtbl.find_opt reference.c432 (Cml_defects.Defect.describe d) with
      | Some e -> e.work
      | None -> failwith ("no reference entry for " ^ Cml_defects.Defect.describe d)
    in
    let defects = Inputs.c432_subset ~seed ~cost c.all_defects in
    {
      setup_s;
      golden = c.golden;
      describe =
        Printf.sprintf "%s cell %s, %d of %d defects" Inputs.c432_path Inputs.c432_dut
          (List.length defects) (List.length c.all_defects);
      preflights = true;
      call =
        (fun ~jobs ~preflight ->
          let r, s =
            timed (fun () ->
                Cml_defects.Campaign.run_design ~freq:Inputs.freq ~jobs ~preflight
                  ~golden:c.golden ~input:c.design.Cml_cells.Compile.input ~dut:c.dut
                  ~final:c.final ~defects ())
          in
          of_campaign r s);
    }
  in
  { name = "c432_campaign"; jobs = min 2 cores; prepare; table = (fun r -> r.Reference.c432) }

let mc =
  let prepare ~seed _ =
    let golden, setup_s = timed Inputs.mc_golden in
    let first = Inputs.mc_seed seed in
    {
      setup_s;
      golden;
      describe =
        Printf.sprintf "%d gates, samples %d..%d" Inputs.mc_gates first
          (first + Inputs.mc_samples - 1);
      preflights = false;
      call =
        (fun ~jobs ~preflight:_ ->
          let r, s =
            timed (fun () ->
                Cml_dft.Montecarlo.run ~n:Inputs.mc_gates ~jobs ~samples:Inputs.mc_samples
                  ~seed:first ())
          in
          {
            call_s = s;
            phase_s = r.wall_s;
            results =
              List.mapi
                (fun k v -> (string_of_int (first + k), Reference.sample_entry v))
                r.sample_reports;
            metrics = r.metrics;
            utilization = r.utilization;
            variant_s =
              List.map (fun (v : Tel.Manifest.variant) -> v.v_seconds) r.sample_reports;
          });
    }
  in
  { name = "mc_sharing45"; jobs = min 2 cores; prepare; table = (fun r -> r.Reference.mc) }

let all = [ chain; c432; mc ]

(* ---- output check ---- *)

type check = { attempted : int; failed : int; level_dev_mv : float }

(* A variant fails when its outcome failed or its labels differ from
   the reference; [level_dev_mv] is the largest level difference. *)
let check tbl call =
  List.fold_left
    (fun acc (key, (e : Reference.entry)) ->
      let bad, dev =
        match Hashtbl.find_opt tbl key with
        | None -> (true, 0.0)
        | Some (r : Reference.entry) ->
            let dev =
              List.fold_left
                (fun m (k, v) ->
                  match List.assoc_opt k r.levels with
                  | Some rv -> Float.max m (1e3 *. Float.abs (v -. rv))
                  | None -> m)
                0.0 e.levels
            in
            (e.labels = [ "failed" ] || e.labels <> r.labels, dev)
      in
      {
        attempted = acc.attempted + 1;
        failed = (acc.failed + if bad then 1 else 0);
        level_dev_mv = Float.max acc.level_dev_mv dev;
      })
    { attempted = 0; failed = 0; level_dev_mv = 0.0 }
    call.results

(* ---- simulated-statistics digest ---- *)

let digest_keys =
  [
    "transient.accepted_steps";
    "transient.rejected_steps";
    "solver.newton_iters";
    "engine.device_loads";
    "engine.bypassed_loads";
    "solver.symbolic_factorizations";
    "solver.numeric_refactorizations";
  ]

let counter snap name =
  match List.assoc_opt name snap with Some (Tel.Metrics.Counter n) -> n | _ -> 0

(* The counts the simulation did, independent of timing: a change
   that only makes the program faster leaves them identical. *)
let digest call =
  let fields = List.map (fun k -> (k, counter call.metrics k)) digest_keys in
  let text = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields) in
  (Digest.to_hex (Digest.string text), text)
