(* Streaming run events: an append-only JSONL stream describing one
   run's lifecycle (cml-dft-events/1), written while the run is in
   flight so a `cmldft watch` (or a server-mode client) can follow
   along.

   Determinism contract: workers finish variants in whatever order
   the pool schedules, but the stream must not depend on that — the
   acceptance bar is byte-identical streams modulo timestamps at any
   [--jobs].  So workers never write the stream; they deposit each
   finished variant into an indexed slot (a plain write made visible
   by an atomic ready flag), and a single pump reassembles the
   contiguous prefix in variant-index order, exactly like
   {!Cml_runtime.Pool.parallel_map} reassembles results.  Heartbeats
   fire at work milestones (every [total/8] emitted variants), not on
   the wall clock, so their count and position are deterministic too.
   Every wall-clock-derived or host-dependent field (elapsed, ETA,
   rate, jobs, per-domain lanes) lives in a "timing" member that
   {!normalize} strips; "warning" events are host-dependent by nature
   (oversubscription depends on the core count) and are dropped
   entirely by {!normalize}.

   The pump runs from a {!Progress.ticker} thread while the run is in
   flight (liveness) and once more at {!finish} (completeness); since
   emission order is a pure function of the slot prefix, pump timing
   cannot change the stream. *)

let schema = "cml-dft-events/1"

(* ------------------------------------------------------------------ *)
(* Sink: one run-event stream, JSONL, line-buffered under a mutex so
   worker-side warnings and the pump thread interleave at line
   granularity only. *)

type sink = {
  sk_oc : out_channel;
  sk_close : bool;  (* false for stderr *)
  sk_mutex : Mutex.t;
  sk_t0 : int64;
}

let open_sink path =
  let oc, close = if path = "-" then (stderr, false) else (open_out path, true) in
  { sk_oc = oc; sk_close = close; sk_mutex = Mutex.create (); sk_t0 = Clock.now_ns () }

let current : sink option Atomic.t = Atomic.make None

let install s = Atomic.set current (Some s)

let installed () = Atomic.get current <> None

let close () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      Atomic.set current None;
      flush s.sk_oc;
      if s.sk_close then close_out s.sk_oc

let emit s j =
  Mutex.lock s.sk_mutex;
  output_string s.sk_oc (Json.to_compact_string j);
  output_char s.sk_oc '\n';
  flush s.sk_oc;
  Mutex.unlock s.sk_mutex

let t_s s = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) s.sk_t0)

(* ------------------------------------------------------------------ *)
(* Completed-work-rate ETA estimator.  Pure arithmetic over explicit
   clock readings, so tests drive it with synthetic times. *)

module Estimator = struct
  type t = { e_total : int; e_start_s : float; mutable e_completed : int }

  let create ~total ~now_s = { e_total = total; e_start_s = now_s; e_completed = 0 }

  (* [completed] counts finished variants whatever their fate: a failed
     variant consumed its share of the run just like a clean one, so
     retirement must pull the ETA down, never push it up. *)
  let note t ~completed = if completed > t.e_completed then t.e_completed <- completed

  let rate_per_s t ~now_s =
    if t.e_completed <= 0 then None
    else
      let elapsed = Float.max 1e-9 (now_s -. t.e_start_s) in
      Some (float_of_int t.e_completed /. elapsed)

  let eta_s t ~now_s =
    match rate_per_s t ~now_s with
    | None -> None
    | Some rate -> Some (float_of_int (t.e_total - t.e_completed) /. rate)
end

(* ------------------------------------------------------------------ *)
(* Event payloads *)

type variant = {
  ev_idx : int;
  ev_name : string;
  ev_classes : string list;
  ev_healing : string option;  (* "clean" / "depth=N" / "unhealed" *)
  ev_failed : bool;
  ev_steps : int;  (* accepted solver steps, deterministic *)
  ev_seconds : float;  (* wall time: timing-only *)
}

type domain_util = {
  du_domain : int;
  du_busy_s : float;
  du_items : int;
  du_longest_stall_s : float;
  du_busy_ratio : float;
}

(* Build one utilization row from raw pool counters and publish the
   busy ratio as a gauge, so manifests carry
   [pool.domain.<i>.busy_ratio] alongside the event stream. *)
let util_row ~wall_s ~domain ~busy_ns ~items ~longest_stall_ns =
  let busy_s = Clock.ns_to_s busy_ns in
  let ratio = if wall_s > 0.0 then busy_s /. wall_s else 0.0 in
  Metrics.set (Metrics.gauge (Printf.sprintf "pool.domain.%d.busy_ratio" domain)) ratio;
  {
    du_domain = domain;
    du_busy_s = busy_s;
    du_items = items;
    du_longest_stall_s = Clock.ns_to_s longest_stall_ns;
    du_busy_ratio = ratio;
  }

let timing members = ("timing", Json.Obj members)

let lane_json (s : Progress.sample) =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.Progress.s_domain));
      ("started", Json.Num (float_of_int s.Progress.s_started));
      ("done", Json.Num (float_of_int s.Progress.s_done));
      ("failed", Json.Num (float_of_int s.Progress.s_failed));
      ("steps", Json.Num (float_of_int s.Progress.s_steps));
      ("label", Json.Str s.Progress.s_label);
    ]

let util_json u =
  Json.Obj
    [
      ("id", Json.Num (float_of_int u.du_domain));
      ("busy_s", Json.Num u.du_busy_s);
      ("busy_ratio", Json.Num u.du_busy_ratio);
      ("items", Json.Num (float_of_int u.du_items));
      ("longest_stall_s", Json.Num u.du_longest_stall_s);
    ]

(* ------------------------------------------------------------------ *)
(* Run tracker *)

type run = {
  r_sink : sink option;  (* None: the whole tracker is inert *)
  r_kind : string;
  r_total : int;
  r_slots : variant option array;
  r_ready : int Atomic.t array;
  r_mutex : Mutex.t;  (* pump state below *)
  mutable r_emitted : int;
  mutable r_failed : int;
  mutable r_steps : int;
  r_hb_every : int;
  r_est : Estimator.t;
  mutable r_ticker : Progress.ticker option;
}

let inert kind =
  {
    r_sink = None;
    r_kind = kind;
    r_total = 0;
    r_slots = [||];
    r_ready = [||];
    r_mutex = Mutex.create ();
    r_emitted = 0;
    r_failed = 0;
    r_steps = 0;
    r_hb_every = 1;
    r_est = Estimator.create ~total:0 ~now_s:0.0;
    r_ticker = None;
  }

let heartbeat_json r s =
  let now_s = t_s s in
  Estimator.note r.r_est ~completed:r.r_emitted;
  let lanes = if Progress.enabled () then Progress.sample () else [] in
  Json.Obj
    [
      ("ev", Json.Str "heartbeat");
      ("done", Json.Num (float_of_int (r.r_emitted - r.r_failed)));
      ("failed", Json.Num (float_of_int r.r_failed));
      ("total", Json.Num (float_of_int r.r_total));
      ("accepted_steps", Json.Num (float_of_int r.r_steps));
      timing
        ([ ("t_s", Json.Num now_s) ]
        @ (match Estimator.eta_s r.r_est ~now_s with
          | Some eta -> [ ("eta_s", Json.Num eta) ]
          | None -> [])
        @ (match Estimator.rate_per_s r.r_est ~now_s with
          | Some rate -> [ ("rate_per_s", Json.Num rate) ]
          | None -> [])
        @ [ ("domains", Json.List (List.map lane_json lanes)) ]);
    ]

(* Emit the contiguous ready prefix, interleaving milestone
   heartbeats.  Holding [r_mutex] across emission keeps the stream's
   variant order identical to index order whichever thread pumps. *)
let pump r =
  match r.r_sink with
  | None -> ()
  | Some s ->
      Mutex.lock r.r_mutex;
      (try
         while r.r_emitted < r.r_total && Atomic.get r.r_ready.(r.r_emitted) = 1 do
           let v =
             match r.r_slots.(r.r_emitted) with Some v -> v | None -> assert false
           in
           emit s
             (Json.Obj
                [
                  ("ev", Json.Str "variant_start");
                  ("idx", Json.Num (float_of_int v.ev_idx));
                  ("name", Json.Str v.ev_name);
                  timing [ ("t_s", Json.Num (t_s s)) ];
                ]);
           emit s
             (Json.Obj
                ([
                   ("ev", Json.Str "variant_done");
                   ("idx", Json.Num (float_of_int v.ev_idx));
                   ("name", Json.Str v.ev_name);
                   ("classes", Json.List (List.map (fun c -> Json.Str c) v.ev_classes));
                 ]
                @ (match v.ev_healing with
                  | Some h -> [ ("healing", Json.Str h) ]
                  | None -> [])
                @ [
                    ("accepted_steps", Json.Num (float_of_int v.ev_steps));
                    timing
                      [ ("t_s", Json.Num (t_s s)); ("seconds", Json.Num v.ev_seconds) ];
                  ]));
           r.r_emitted <- r.r_emitted + 1;
           if v.ev_failed then r.r_failed <- r.r_failed + 1;
           r.r_steps <- r.r_steps + v.ev_steps;
           if r.r_emitted mod r.r_hb_every = 0 && r.r_emitted < r.r_total then
             emit s (heartbeat_json r s)
         done
       with e ->
         Mutex.unlock r.r_mutex;
         raise e);
      Mutex.unlock r.r_mutex

let run_start ~kind ~total ?jobs ?(options = []) () =
  match Atomic.get current with
  | None -> inert kind
  | Some s ->
      Progress.reset ();
      Progress.set_enabled true;
      emit s
        (Json.Obj
           [
             ("ev", Json.Str "run_start");
             ("schema", Json.Str schema);
             ("kind", Json.Str kind);
             ("total", Json.Num (float_of_int total));
             ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) options));
             timing
               ([ ("t_s", Json.Num (t_s s)) ]
               @ (match jobs with
                 | Some j -> [ ("jobs", Json.Num (float_of_int j)) ]
                 | None -> [])
               @ [
                   ( "cores",
                     Json.Num (float_of_int (Domain.recommended_domain_count ())) );
                 ]);
           ]);
      let r =
        {
          r_sink = Some s;
          r_kind = kind;
          r_total = total;
          r_slots = Array.make (max 1 total) None;
          r_ready = Array.init (max 1 total) (fun _ -> Atomic.make 0);
          r_mutex = Mutex.create ();
          r_emitted = 0;
          r_failed = 0;
          r_steps = 0;
          r_hb_every = max 1 (total / 8);
          r_est = Estimator.create ~total ~now_s:(t_s s);
          r_ticker = None;
        }
      in
      r.r_ticker <- Some (Progress.ticker ~period_s:0.25 (fun () -> pump r));
      r

(* Worker-side deposit: plain slot write, then the atomic ready flag
   publishes it to the pump (release/acquire pairing). *)
let variant_done r v =
  match r.r_sink with
  | None -> ()
  | Some _ ->
      if v.ev_idx < 0 || v.ev_idx >= r.r_total then
        invalid_arg "Events.variant_done: index out of range";
      r.r_slots.(v.ev_idx) <- Some v;
      Atomic.set r.r_ready.(v.ev_idx) 1

let warning ~key message =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      emit s
        (Json.Obj
           [
             ("ev", Json.Str "warning");
             ("key", Json.Str key);
             ("message", Json.Str message);
             timing [ ("t_s", Json.Num (t_s s)) ];
           ])

let finish r ~classes ~wall_s ~utilization =
  (match r.r_ticker with
  | Some t ->
      r.r_ticker <- None;
      Progress.stop_ticker t
  | None -> ());
  match r.r_sink with
  | None -> ()
  | Some s ->
      pump r;
      Progress.set_enabled false;
      emit s
        (Json.Obj
           [
             ("ev", Json.Str "utilization");
             timing
               [
                 ("t_s", Json.Num (t_s s));
                 ("wall_s", Json.Num wall_s);
                 ("domains", Json.List (List.map util_json utilization));
               ];
           ]);
      emit s
        (Json.Obj
           [
             ("ev", Json.Str "run_end");
             ("kind", Json.Str r.r_kind);
             ("done", Json.Num (float_of_int (r.r_emitted - r.r_failed)));
             ("failed", Json.Num (float_of_int r.r_failed));
             ("total", Json.Num (float_of_int r.r_total));
             ( "classes",
               Json.Obj (List.map (fun (c, n) -> (c, Json.Num (float_of_int n))) classes) );
             timing [ ("t_s", Json.Num (t_s s)) ];
           ])

(* ------------------------------------------------------------------ *)
(* Reading a stream back (watch, report -, parity tests) *)

let read_string text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None else Some (Json.parse line))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  read_string text

(* The determinism view of a stream: timestamp members stripped,
   host-dependent warning events dropped.  Two runs of the same code
   and options normalize identically at any [--jobs]. *)
let normalize docs =
  List.filter_map
    (fun j ->
      match Json.member "ev" j with
      | Some (Json.Str "warning") -> None
      | _ -> (
          match j with
          | Json.Obj members -> Some (Json.Obj (List.filter (fun (k, _) -> k <> "timing") members))
          | other -> Some other))
    docs

(* ------------------------------------------------------------------ *)
(* Watch state: a pure fold over the event stream, rendered by
   [cmldft watch] (live and --once) and unit-testable without a tty. *)

type lane = {
  l_domain : int;
  l_started : int;
  l_done : int;
  l_failed : int;
  l_steps : int;
  l_label : string;
}

type state = {
  w_kind : string;
  w_total : int;
  w_done : int;
  w_failed : int;
  w_steps : int;
  w_t_s : float;
  w_eta_s : float option;
  w_rate : float option;
  w_classes : (string * int) list;  (* insertion order; render sorts *)
  w_healing : (string * int) list;
  w_lanes : lane list;
  w_last : string;
  w_warnings : string list;  (* oldest first *)
  w_util : domain_util list;
  w_wall_s : float option;
  w_finished : bool;
}

let state_empty =
  {
    w_kind = "?";
    w_total = 0;
    w_done = 0;
    w_failed = 0;
    w_steps = 0;
    w_t_s = 0.0;
    w_eta_s = None;
    w_rate = None;
    w_classes = [];
    w_healing = [];
    w_lanes = [];
    w_last = "";
    w_warnings = [];
    w_util = [];
    w_wall_s = None;
    w_finished = false;
  }

let num_or d j key = match Json.member key j with Some (Json.Num f) -> f | _ -> d

let int_or d j key = int_of_float (num_or (float_of_int d) j key)

let str_or d j key = match Json.member key j with Some (Json.Str s) -> s | _ -> d

let bump assoc key =
  let rec go = function
    | [] -> [ (key, 1) ]
    | (k, n) :: rest when k = key -> (k, n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let timing_of j = match Json.member "timing" j with Some t -> t | None -> Json.Obj []

let lane_of_json j =
  {
    l_domain = int_or 0 j "id";
    l_started = int_or 0 j "started";
    l_done = int_or 0 j "done";
    l_failed = int_or 0 j "failed";
    l_steps = int_or 0 j "steps";
    l_label = str_or "" j "label";
  }

let util_of_json j =
  {
    du_domain = int_or 0 j "id";
    du_busy_s = num_or 0.0 j "busy_s";
    du_busy_ratio = num_or 0.0 j "busy_ratio";
    du_items = int_or 0 j "items";
    du_longest_stall_s = num_or 0.0 j "longest_stall_s";
  }

let state_update st j =
  let tm = timing_of j in
  let st = { st with w_t_s = Float.max st.w_t_s (num_or st.w_t_s tm "t_s") } in
  match str_or "" j "ev" with
  | "run_start" -> { st with w_kind = str_or st.w_kind j "kind"; w_total = int_or 0 j "total" }
  | "variant_start" -> { st with w_last = str_or st.w_last j "name" }
  | "variant_done" ->
      let classes =
        match Json.member "classes" j with
        | Some (Json.List cs) -> List.filter_map Json.to_str cs
        | _ -> []
      in
      let failed = List.mem "failed" classes in
      let w_classes =
        match classes with
        | [] -> bump st.w_classes "benign"
        | cs -> List.fold_left bump st.w_classes cs
      in
      {
        st with
        w_done = (st.w_done + if failed then 0 else 1);
        w_failed = (st.w_failed + if failed then 1 else 0);
        w_steps = st.w_steps + int_or 0 j "accepted_steps";
        w_classes;
        w_healing =
          (match Json.member "healing" j with
          | Some (Json.Str h) -> bump st.w_healing h
          | _ -> st.w_healing);
        w_last = str_or st.w_last j "name";
      }
  | "heartbeat" ->
      {
        st with
        w_eta_s = (match Json.member "eta_s" tm with Some (Json.Num e) -> Some e | _ -> st.w_eta_s);
        w_rate =
          (match Json.member "rate_per_s" tm with Some (Json.Num r) -> Some r | _ -> st.w_rate);
        w_lanes =
          (match Json.member "domains" tm with
          | Some (Json.List ds) -> List.map lane_of_json ds
          | _ -> st.w_lanes);
      }
  | "warning" -> { st with w_warnings = st.w_warnings @ [ str_or "?" j "message" ] }
  | "utilization" ->
      {
        st with
        w_util =
          (match Json.member "domains" tm with
          | Some (Json.List ds) -> List.map util_of_json ds
          | _ -> st.w_util);
        w_wall_s = (match Json.member "wall_s" tm with Some (Json.Num w) -> Some w | _ -> st.w_wall_s);
      }
  | "run_end" ->
      {
        st with
        w_done = int_or st.w_done j "done";
        w_failed = int_or st.w_failed j "failed";
        w_total = int_or st.w_total j "total";
        w_finished = true;
      }
  | _ -> st

let state_of_events docs = List.fold_left state_update state_empty docs

let fmt_dur s =
  if not (Float.is_finite s) || s < 0.0 then "?"
  else if s < 60.0 then Printf.sprintf "%.1fs" s
  else Printf.sprintf "%d:%02d" (int_of_float s / 60) (int_of_float s mod 60)

let render_state st =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let completed = st.w_done + st.w_failed in
  let width = 24 in
  let filled = if st.w_total = 0 then 0 else completed * width / st.w_total in
  let bar = String.make (min width filled) '#' ^ String.make (max 0 (width - filled)) '.' in
  let pct = if st.w_total = 0 then 0 else completed * 100 / st.w_total in
  line "%s  %d/%d variants  [%s] %3d%%  %s%selapsed %s" st.w_kind completed st.w_total bar pct
    (match st.w_eta_s with
    | Some e when not st.w_finished -> Printf.sprintf "ETA %s  " (fmt_dur e)
    | _ -> "")
    (if st.w_failed > 0 then Printf.sprintf "%d failed  " st.w_failed else "")
    (fmt_dur st.w_t_s);
  if st.w_steps > 0 then line "steps   : %d accepted" st.w_steps;
  if st.w_last <> "" && not st.w_finished then line "current : %s" st.w_last;
  let histo label rows =
    if rows <> [] then
      line "%-8s: %s" label
        (String.concat "  "
           (List.map
              (fun (c, n) -> Printf.sprintf "%s %d" c n)
              (List.sort (fun (ca, a) (cb, b) -> if a <> b then compare b a else compare ca cb) rows)))
  in
  histo "classes" st.w_classes;
  histo "healing" st.w_healing;
  if st.w_lanes <> [] && not st.w_finished then begin
    line "domains :";
    List.iter
      (fun l ->
        line "  %3d  %4d done%s  %8d steps  %s" l.l_domain (l.l_done + l.l_failed)
          (if l.l_failed > 0 then Printf.sprintf " (%d failed)" l.l_failed else "")
          l.l_steps l.l_label)
      st.w_lanes
  end;
  if st.w_util <> [] then begin
    line "utilization%s:"
      (match st.w_wall_s with Some w -> Printf.sprintf " (wall %s)" (fmt_dur w) | None -> "");
    line "  %6s %10s %6s %6s %14s" "domain" "busy" "ratio" "items" "longest stall";
    List.iter
      (fun u ->
        line "  %6d %9.3fs %6.2f %6d %13.3fs" u.du_domain u.du_busy_s u.du_busy_ratio u.du_items
          u.du_longest_stall_s)
      st.w_util
  end;
  List.iter (fun w -> line "warning : %s" w) st.w_warnings;
  if st.w_finished then
    line "run complete: %d/%d ok%s in %s" st.w_done st.w_total
      (if st.w_failed > 0 then Printf.sprintf ", %d failed" st.w_failed else "")
      (fmt_dur st.w_t_s);
  Buffer.contents b
