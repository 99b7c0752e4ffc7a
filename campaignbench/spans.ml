(* In-memory span recorder for the traced run.  Each span carries a
   name, start, end, its parent span and the run id shared by every
   span of one pass.  Spans are recorded only around calls the
   benchmark itself makes into the library; nothing inside the
   library is instrumented.  A layer's self time is its span's
   duration minus the part of that interval its children cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  run_id : string;
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let run_id = ref ""
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let now = Cml_telemetry.Clock.now_ns

let start_pass id =
  run_id := id;
  recorded := [];
  stack := [];
  next_id := 0

let parent () = match !stack with p :: _ -> p | [] -> -1

(* Record a span whose interval the caller measured itself. *)
let add ~name ~parent ~t0 ~t1 =
  let id = !next_id in
  incr next_id;
  recorded := { id; name; parent; run_id = !run_id; t0; t1 } :: !recorded

(* Record [f] as a span named [name] under the innermost open span;
   [f] receives the span's id so it can attach derived children. *)
let within name f =
  if not !enabled then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      recorded := { id; name; parent; run_id = !run_id; t0; t1 } :: !recorded
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let with_ name f = within name (fun _ -> f ())
let spans () = List.rev !recorded

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, Int64.min_int) sorted
  in
  total

(* Self seconds of every recorded span, summed by name, in first-seen
   order. *)
let self_times () =
  let all = spans () in
  let self s =
    let kids = List.filter_map (fun c -> if c.parent = s.id then Some (c.t0, c.t1) else None) all in
    Cml_telemetry.Clock.ns_to_s
      (Int64.sub (Int64.sub s.t1 s.t0) (covered ~lo:s.t0 ~hi:s.t1 kids))
  in
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let v = self s in
      match Hashtbl.find_opt tbl s.name with
      | Some prev -> Hashtbl.replace tbl s.name (prev +. v)
      | None ->
          Hashtbl.add tbl s.name v;
          order := s.name :: !order)
    all;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let to_json_line s =
  Printf.sprintf
    "{\"run_id\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}" s.run_id
    s.id s.parent s.name s.t0 s.t1

(* Write spans as one JSON object per line. *)
let write path spans =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json_line s ^ "\n")) spans;
  close_out oc
