(* The stored reference table: expected labels and levels for every
   input any workload seed can draw.  [make] regenerates it; the
   benchmark compares each run against it. *)

module J = Cml_telemetry.Json

let path = "campaignbench/reference.json"

type entry = {
  labels : string list;  (** classification, sorted; ["failed"] for a failed outcome *)
  levels : (string * float) list;  (** measured levels, V *)
  work : float;
      (** the variant's simulation work in Newton-iteration equivalents
          ({!make_c432}), where the call reports its counts (the c432
          entries); 0 elsewhere *)
}

type t = {
  chain : (string, entry) Hashtbl.t;  (** by defect description *)
  c432 : (string, entry) Hashtbl.t;  (** by defect description *)
  mc : (string, entry) Hashtbl.t;  (** by absolute sample seed *)
}

(* Tightened solver settings: the chain reference is a tight-tolerance
   oracle, not a snapshot of the default solver, so [level_dev_mv]
   measures accuracy there. *)
let tight_options =
  {
    Cml_spice.Engine.default_options with
    reltol = 1e-6;
    lte_reltol_factor = 1.0;
    lte_abstol = 1e-6;
    bypass = false;
  }

let campaign_entry ?(work = 0.0) (e : Cml_defects.Campaign.entry) =
  match e.outcome with
  | Failed _ -> { labels = [ "failed" ]; levels = []; work }
  | Measured (m, f) ->
      {
        labels = List.sort compare (Cml_defects.Campaign.flag_labels f);
        levels =
          [ ("dut_vlow", m.dut_vlow); ("dut_swing", m.dut_swing); ("final_swing", m.final_swing) ];
        work;
      }

let sample_entry (v : Cml_telemetry.Manifest.variant) =
  { labels = List.sort compare v.v_classes; levels = v.v_metrics; work = 0.0 }

(* ---- serialization ---- *)

let num f = Printf.sprintf "%.17g" f

let rec emit buf = function
  | J.Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (num f)
  | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          emit buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kv ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:" k);
          emit buf v)
        kv;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  emit buf v;
  Buffer.contents buf

let entry_json key e =
  J.Obj
    [
      ("key", J.Str key);
      ("labels", J.List (List.map (fun l -> J.Str l) e.labels));
      ("levels", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) e.levels));
      ("work", J.Num e.work);
    ]

let entry_of_json j =
  let get k = Option.get (J.member k j) in
  let str v = Option.get (J.to_str v) and flt v = Option.get (J.to_float v) in
  ( str (get "key"),
    {
      labels = List.map str (Option.get (J.to_list (get "labels")));
      levels = (match get "levels" with J.Obj kv -> List.map (fun (k, v) -> (k, flt v)) kv | _ -> []);
      work = flt (get "work");
    } )

let table j name =
  let tbl = Hashtbl.create 128 in
  (match Option.bind (J.member name j) (J.member "entries") with
  | Some (J.List l) ->
      List.iter
        (fun e ->
          let k, v = entry_of_json e in
          Hashtbl.replace tbl k v)
        l
  | _ -> failwith (Printf.sprintf "%s: no %s table" path name));
  tbl

let load () =
  let j = J.parse_file path in
  { chain = table j "chain"; c432 = table j "c432"; mc = table j "mc" }

(* ---- generation ---- *)

let labels_of (e : Cml_defects.Campaign.entry) =
  match e.outcome with
  | Failed _ -> [ "failed" ]
  | Measured (_, f) -> List.sort compare (Cml_defects.Campaign.flag_labels f)

(* Chain: every defect of every inner stage at every pipe value,
   measured under the tight options, plus the labels the default
   options give (a default-options campaign per stage). *)
let make_chain ~jobs =
  let proc = Cml_cells.Process.default in
  let tstop = 2.0 /. Inputs.freq in
  let chain = Cml_cells.Chain.build ~stages:Inputs.chain_stages ~freq:Inputs.freq () in
  let golden = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let measure net dut =
    Cml_defects.Campaign.measure_chain ~engine_options:tight_options chain net ~freq:Inputs.freq
      ~tstop ~dut
  in
  let per_stage =
    List.map
      (fun stage ->
        let defects = Inputs.chain_defects chain ~stage ~pipes:Inputs.pipe_range in
        let reference = measure golden stage in
        let t0 = Unix.gettimeofday () in
        let tight =
          Cml_runtime.Pool.parallel_list_map ~jobs
            (fun d ->
              let outcome =
                match measure (Cml_defects.Inject.apply golden d) stage with
                | m -> Cml_defects.Campaign.Measured (m, Cml_defects.Campaign.classify ~proc ~reference m)
                | exception Cml_spice.Engine.No_convergence msg -> Failed msg
              in
              campaign_entry { defect = d; outcome })
            defects
        in
        let default = Cml_defects.Campaign.run ~freq:Inputs.freq ~dut:stage ~jobs ~defects () in
        Printf.eprintf "chain x%d: %d defects, tight oracle %.1f s\n%!" stage (List.length defects)
          (Unix.gettimeofday () -. t0);
        List.map2
          (fun (d, e) de ->
            let default_labels = labels_of de in
            (Cml_defects.Defect.describe d, e, default_labels))
          (List.combine defects tight) default.entries)
      Inputs.chain_inner
    |> List.concat
  in
  let mismatched = List.filter (fun (_, e, dl) -> e.labels <> dl) per_stage in
  List.iter
    (fun (k, e, dl) ->
      Printf.eprintf "chain %s: tight %s, default %s\n%!" k (String.concat "+" e.labels)
        (String.concat "+" dl))
    mismatched;
  J.Obj
    [
      ( "oracle",
        J.Obj
          [
            ("reltol", J.Num tight_options.reltol);
            ("lte_reltol_factor", J.Num tight_options.lte_reltol_factor);
            ("lte_abstol", J.Num tight_options.lte_abstol);
            ("bypass", J.Bool tight_options.bypass);
          ] );
      ("default_label_mismatches", J.Num (float_of_int (List.length mismatched)));
      ("entries", J.List (List.map (fun (k, e, _) -> entry_json k e) per_stage));
    ]

(* A junction-device evaluation costs about 1/150 of the fixed work of
   a c432 Newton iteration (sparse refactorization and solve of 949
   unknowns): a least-squares fit to two timed unbatched runs of all 77
   variants on a 2-core host gave 0.74 ms per iteration and 4.9 us per
   evaluation, within 13% (sd) of each variant's time. *)
let eval_weight = 0.0066

(* c432: all defects of the attacked cell with the default options,
   batched as users run it.  Each variant's work comes from its own
   counts, so the subset draw does not depend on how busy the host was
   when the table was made. *)
let make_c432 ~jobs =
  let c = Inputs.c432 () in
  let r =
    Cml_defects.Campaign.run_design ~freq:Inputs.freq ~jobs ~golden:c.golden
      ~input:c.design.Cml_cells.Compile.input ~dut:c.dut ~final:c.final ~defects:c.all_defects ()
  in
  Printf.eprintf "c432: %d defects, %.1f s\n%!" (List.length r.entries) r.wall_s;
  let entries =
    List.map2
      (fun (e : Cml_defects.Campaign.entry) (v : Cml_telemetry.Manifest.variant) ->
        let count k = Option.value ~default:0.0 (List.assoc_opt k v.v_metrics) in
        let work =
          count "newton_iters" +. (eval_weight *. (count "device_loads" -. count "bypassed_loads"))
        in
        entry_json (Cml_defects.Defect.describe e.defect) (campaign_entry ~work e))
      r.entries r.variants
  in
  J.Obj
    [
      ("bench", J.Str Inputs.c432_path);
      ("dut", J.Str Inputs.c432_dut);
      ("entries", J.List entries);
    ]

(* Monte-Carlo: every sample seed a workload window can reach. *)
let make_mc ~jobs =
  let r =
    Cml_dft.Montecarlo.run ~n:Inputs.mc_gates ~jobs ~samples:Inputs.mc_population
      ~seed:Inputs.mc_first ()
  in
  Printf.eprintf "mc: %d samples, %.1f s\n%!" r.samples r.wall_s;
  J.Obj
    [
      ("gates", J.Num (float_of_int Inputs.mc_gates));
      ( "entries",
        J.List
          (List.mapi
             (fun k v -> entry_json (string_of_int (Inputs.mc_first + k)) (sample_entry v))
             r.sample_reports) );
    ]

let make ~jobs ~revision =
  let chain = make_chain ~jobs in
  let mc = make_mc ~jobs in
  let c432 = make_c432 ~jobs in
  let doc =
    J.Obj
      [
        ("schema", J.Str "campaignbench-reference/1");
        ("revision", J.Str revision);
        ("ocaml", J.Str Sys.ocaml_version);
        ("chain", chain);
        ("c432", c432);
        ("mc", mc);
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc
