(* Workload inputs and their derivation from the workload seed.  The
   library only ever receives what is built here: a defect list, a
   sample seed and a netlist. *)

let freq = 100e6
let chain_stages = 8

(* Inner stages of the 8-stage chain a seed may attack, and the pipe
   resistances of the paper's 1-8 kohm range. *)
let chain_inner = [ 2; 3; 4; 5; 6; 7 ]
let pipe_range = List.init 8 (fun i -> float_of_int (i + 1) *. 1e3)
let c432_path = "examples/netlists/c432_surrogate.bench"
let c432_dut = "n36"
let c432_pipes = [ 1e3; 4e3 ]

(* Variants of one c432 call, drawn per defect family. *)
let c432_draw = [ ("pipe", 2); ("short", 2); ("open", 2) ]
let mc_gates = 45

(* Monte-Carlo sample seeds [mc_first, mc_first + mc_population) are
   in the reference table; a workload seed picks a window of
   [mc_samples] consecutive ones. *)
let mc_first = 2024
let mc_population = 1000
let mc_samples = 100
let rng seed salt = Random.State.make [| seed; salt |]

(* Seed 0 is the CLI headline campaign: stage x3, pipes of 1 and 4 kohm. *)
let chain_choice seed =
  if seed = 0 then (3, 1e3, 4e3)
  else
    let st = rng seed 0xc4a1 in
    let stage = List.nth chain_inner (Random.State.int st (List.length chain_inner)) in
    let a = Random.State.int st 8 in
    let b = (a + 1 + Random.State.int st 7) mod 8 in
    let r i = List.nth pipe_range i in
    (stage, r (min a b), r (max a b))

let mc_seed seed =
  let st = rng seed 0x3c45 in
  mc_first + Random.State.int st (mc_population - mc_samples + 1)

(* Defect family used for the stratified c432 draw. *)
let family = function
  | Cml_defects.Defect.Pipe _ -> "pipe"
  | Terminal_short _ | Resistor_short _ | Bridge _ -> "short"
  | Open_terminal _ | Resistor_open _ -> "open"

(* Makespan of [costs] scheduled longest-first onto two domains. *)
let makespan costs =
  List.fold_left
    (fun (a, b) c -> if a <= b then (a +. c, b) else (a, b +. c))
    (0.0, 0.0)
    (List.sort (fun x y -> compare y x) costs)
  |> fun (a, b) -> Float.max a b

(* A seeded subset of [defects]: per family, the members sorted by
   [cost] (the work the reference table recorded) are cut
   into as many equal bins as the family draws, and one member is
   taken from each bin.  Draws repeat until the subset's two-domain
   makespan by cost is within 2% of the family means', so every seed
   gets a different set of variants but the same amount of work.  The subset is ordered
   longest-first, so the pool's balance does not depend on the draw
   order. *)
let c432_subset ~seed ~cost defects =
  let st = rng seed 0x432 in
  let families =
    List.map
      (fun (fam, k) ->
        let members =
          List.filter (fun d -> family d = fam) defects
          |> List.map (fun d -> (cost d, d))
          |> List.sort compare |> Array.of_list
        in
        (members, k))
      c432_draw
  in
  let target =
    List.fold_left
      (fun acc (members, k) ->
        let mean =
          Array.fold_left (fun a (c, _) -> a +. c) 0.0 members /. float_of_int (Array.length members)
        in
        acc +. (float_of_int k *. mean))
      0.0 families
    /. 2.0
  in
  let draw () =
    List.concat_map
      (fun (members, k) ->
        let n = Array.length members in
        List.init k (fun i ->
            let lo = i * n / k and hi = (i + 1) * n / k in
            members.(lo + Random.State.int st (max 1 (hi - lo)))))
      families
  in
  let miss picked = Float.abs (makespan (List.map fst picked) -. target) /. target in
  let rec search best tries =
    let picked = draw () in
    let best = if miss picked < miss best then picked else best in
    if miss best <= 0.02 || tries = 0 then best else search best (tries - 1)
  in
  let first = draw () in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare b a) (search first 10_000))

type c432 = {
  design : Cml_cells.Compile.t;
  golden : Cml_spice.Netlist.t;
  dut : Cml_cells.Builder.diff;
  final : Cml_cells.Builder.diff;
  all_defects : Cml_defects.Defect.t list;
}

(* Parse, compile and enumerate: the set-up of every c432 call. *)
let c432 () =
  let circuit = Spans.with_ "logic.parse" (fun () -> Cml_logic.Bench_format.read_file ~path:c432_path) in
  let design = Spans.with_ "cells.build" (fun () -> Cml_cells.Compile.compile ~freq circuit) in
  let golden = Cml_cells.Compile.netlist design in
  let dut = Option.get (Cml_cells.Compile.find_cell design c432_dut) in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let all_defects =
    Spans.with_ "defects.enumerate" (fun () ->
        Cml_defects.Sites.enumerate golden ~prefix:c432_dut ~pipe_values:c432_pipes)
  in
  { design; golden; dut; final; all_defects }

let chain_golden () =
  Spans.with_ "cells.build" (fun () -> Cml_cells.Chain.build ~stages:chain_stages ~freq ())

let chain_defects chain ~stage ~pipes =
  Spans.with_ "defects.enumerate" (fun () ->
      Cml_defects.Sites.enumerate chain.Cml_cells.Chain.builder.Cml_cells.Builder.net
        ~prefix:(Cml_cells.Chain.stage_name stage) ~pipe_values:pipes)

(* The Monte-Carlo block: [mc_gates] monitored buffers on one shared
   read-out, as [Montecarlo.run] builds it. *)
let mc_golden () =
  Spans.with_ "cells.build" (fun () ->
      (Cml_dft.Sharing.build ~n:mc_gates ()).Cml_dft.Sharing.builder.Cml_cells.Builder.net)
