module C = Cml_logic.Circuit
module D = Diagnostic

type metrics = {
  from_inputs : int array;
  to_outputs : int array;
  seq_depth : int array;
  comb_depth : int;
  ff_to_ff : int;
  output_depths : (string * int) list;
}

let unreachable = max_int / 4

(* one logic level per real gate; buffers and flip-flop transfers are
   free, matching {!Cml_logic.Timing} *)
let cost = function
  | C.Input _ | C.Dff _ | C.Buf _ -> 0
  | C.And _ | C.Or _ | C.Xor _ | C.Not _ | C.Mux _ -> 1

let comb_fanins = function
  | C.Input _ | C.Dff _ -> []
  | C.And (a, b) | C.Or (a, b) | C.Xor (a, b) -> [ a; b ]
  | C.Not a | C.Buf a -> [ a ]
  | C.Mux { sel; a; b } -> [ sel; a; b ]

let seq_fanins = function
  | C.Input _ -> []
  | C.And (a, b) | C.Or (a, b) | C.Xor (a, b) -> [ a; b ]
  | C.Not a | C.Buf a -> [ a ]
  | C.Mux { sel; a; b } -> [ sel; a; b ]
  | C.Dff { d } -> [ d ]

let compute (c : C.t) =
  let n = Array.length c.C.gates in
  (* longest combinational path from any segment source (primary input
     or flip-flop output); flip-flops cut segments, so a plain forward
     pass over the topological order suffices *)
  let from_inputs = Array.make n 0 in
  Array.iter
    (fun i ->
      let g = c.C.gates.(i) in
      let best = List.fold_left (fun acc f -> max acc from_inputs.(f)) 0 (comb_fanins g) in
      from_inputs.(i) <- best + cost g)
    c.C.order;
  (* longest combinational path starting specifically at a flip-flop
     output; nets with no flip-flop in their combinational cone stay
     at [-1] *)
  let from_ffs = Array.make n (-1) in
  Array.iter (fun ff -> from_ffs.(ff) <- 0) c.C.dffs;
  Array.iter
    (fun i ->
      let g = c.C.gates.(i) in
      match c.C.gates.(i) with
      | C.Dff _ -> ()
      | _ ->
          let best = List.fold_left (fun acc f -> max acc from_ffs.(f)) (-1) (comb_fanins g) in
          if best >= 0 then from_ffs.(i) <- best + cost g)
    c.C.order;
  (* longest combinational path to any segment sink (primary output or
     flip-flop data input), walked backward; dead nets stay at [-1] *)
  let to_outputs = Array.make n (-1) in
  List.iter (fun (_, id) -> to_outputs.(id) <- 0) c.C.outputs;
  Array.iter
    (fun ff ->
      match c.C.gates.(ff) with
      | C.Dff { d } -> to_outputs.(d) <- max to_outputs.(d) 0
      | _ -> ())
    c.C.dffs;
  for k = Array.length c.C.order - 1 downto 0 do
    let i = c.C.order.(k) in
    let g = c.C.gates.(i) in
    if to_outputs.(i) >= 0 then
      List.iter
        (fun f -> to_outputs.(f) <- max to_outputs.(f) (to_outputs.(i) + cost g))
        (comb_fanins g)
  done;
  (* minimum flip-flop crossings from a primary input, through
     sequential loops: a monotone-decreasing fixpoint from the
     unreachable sentinel *)
  let seq_depth = Array.make n unreachable in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes <= n + 1 do
    changed := false;
    let relax i =
      let v =
        match c.C.gates.(i) with
        | C.Input _ -> 0
        | g ->
            let best =
              List.fold_left (fun acc f -> min acc seq_depth.(f)) unreachable (seq_fanins g)
            in
            if best >= unreachable then unreachable
            else best + match g with C.Dff _ -> 1 | _ -> 0
      in
      if v < seq_depth.(i) then begin
        seq_depth.(i) <- v;
        changed := true
      end
    in
    Array.iter relax c.C.order;
    Array.iter relax c.C.dffs;
    incr passes
  done;
  let output_depths = List.map (fun (name, id) -> (name, from_inputs.(id))) c.C.outputs in
  let comb_depth =
    let at_sinks =
      List.fold_left (fun acc (_, d) -> max acc d) 0 output_depths
    in
    Array.fold_left
      (fun acc ff ->
        match c.C.gates.(ff) with C.Dff { d } -> max acc from_inputs.(d) | _ -> acc)
      at_sinks c.C.dffs
  in
  let ff_to_ff =
    Array.fold_left
      (fun acc ff ->
        match c.C.gates.(ff) with C.Dff { d } -> max acc from_ffs.(d) | _ -> acc)
      (-1) c.C.dffs
  in
  { from_inputs; to_outputs; seq_depth; comb_depth; ff_to_ff; output_depths }

(* ------------------------------------------------------------------ *)

type config = { depth_warn : int }

let default_config = { depth_warn = 48 }

let check ?(config = default_config) (c : C.t) =
  let m = compute c in
  let out = ref [] in
  List.iter
    (fun (name, depth) ->
      if depth > config.depth_warn then
        out :=
          D.make ~rule:Rules.dist_deep_path D.Warning (D.Output name)
            "combinational depth %d from the primary inputs exceeds %d levels" depth
            config.depth_warn
          :: !out)
    (List.rev m.output_depths);
  if m.ff_to_ff > config.depth_warn then
    out :=
      D.make ~rule:Rules.dist_deep_path D.Warning D.Toplevel
        "deepest flip-flop-to-flip-flop segment is %d levels, above %d" m.ff_to_ff
        config.depth_warn
      :: !out;
  let deepest_output =
    List.fold_left
      (fun acc (name, d) ->
        match acc with Some (_, best) when best >= d -> acc | _ -> Some (name, d))
      None m.output_depths
  in
  (match deepest_output with
  | Some (name, d) ->
      out :=
        D.make ~rule:Rules.dist_summary D.Info D.Toplevel
          "deepest input-to-output path is %d levels (output %s); deepest \
           flip-flop-to-flip-flop segment is %s"
          d name
          (if m.ff_to_ff >= 0 then string_of_int m.ff_to_ff
           else if Array.length c.C.dffs = 0 then "absent (no flip-flops)"
           else "absent (no flip-flop feeds another)")
        :: !out
  | None -> ());
  List.rev !out
