(* Per-call costs of the engine and LU layers, timed through their
   public entry points on the workload's own golden netlist and its
   Jacobian at the nominal operating point.  Multiplied by the counts
   a campaign reports, they estimate each layer's share (labelled as
   computed, not measured). *)

module E = Cml_spice.Engine
module Lu = Cml_numerics.Sparse_lu

type t = {
  unknowns : int;
  dense : bool;  (** the engine's automatic choice for this size *)
  compile_ms : float;
  dc_ms : float;
  factorize_ms : float;  (** sparse: symbolic + numeric; dense: one factorization *)
  refactorize_ms : float;  (** sparse: numeric only; dense: one factorization *)
  solve_ms : float;
  fill_nnz : int;  (** nnz(L) + nnz(U); n^2 for the dense backend *)
}

let now = Cml_telemetry.Clock.now_ns
let median l = Cml_numerics.Stats.percentile (Array.of_list l) 50.0

let ms f =
  let t0 = now () in
  f ();
  Cml_telemetry.Clock.ns_to_s (Int64.sub (now ()) t0) *. 1e3

(* Median milliseconds per call of [f], over at least [min_reps]
   calls and about [budget_s] seconds. *)
let per_call_ms ?(min_reps = 3) ?(budget_s = 0.2) f =
  let t_end = Int64.add (now ()) (Int64.of_float (budget_s *. 1e9)) in
  let rec go acc n = if n >= min_reps && now () > t_end then acc else go (ms f :: acc) (n + 1) in
  median (go [] 0)

(* The engine picks dense below this many unknowns ([Engine.Auto]). *)
let dense_limit = 60

let run golden =
  let compile_ms = per_call_ms (fun () -> ignore (E.compile golden)) in
  (* every solve starts from a freshly compiled sim: empty caches *)
  let dc_ms =
    median
      (List.map
         (fun sim -> ms (fun () -> ignore (E.dc_operating_point sim)))
         (List.init 3 (fun _ -> E.compile golden)))
  in
  let sim = E.compile golden in
  let x = E.dc_operating_point sim in
  let g, _ = E.ac_system sim x in
  let n = E.unknown_count sim in
  let b = Array.init n (fun i -> 1.0 +. float_of_int (i mod 7)) in
  let out = Array.make n 0.0 in
  if n <= dense_limit then begin
    let m = Cml_numerics.Dense.create n in
    List.iter (fun (i, j, v) -> Cml_numerics.Dense.add_entry m i j v) g;
    let ws = Cml_numerics.Dense.ws n in
    let factor_ms = per_call_ms (fun () -> Cml_numerics.Dense.factor_ws m ws) in
    let solve_ms = per_call_ms (fun () -> Cml_numerics.Dense.resolve_ws ws b out) in
    {
      unknowns = n;
      dense = true;
      compile_ms;
      dc_ms;
      factorize_ms = factor_ms;
      refactorize_ms = factor_ms;
      solve_ms;
      fill_nnz = n * n;
    }
  end
  else begin
    let tr = Cml_numerics.Sparse.triplet_create n in
    List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add tr i j v) g;
    let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress tr) in
    let f = ref (Lu.factorize a) in
    let factorize_ms = per_call_ms (fun () -> f := Lu.factorize a) in
    let refactorize_ms = per_call_ms (fun () -> ignore (Lu.refactorize !f a)) in
    let solve_ms = per_call_ms (fun () -> Lu.solve_into !f b out) in
    let l, u = Lu.lu_nnz !f in
    {
      unknowns = n;
      dense = false;
      compile_ms;
      dc_ms;
      factorize_ms;
      refactorize_ms;
      solve_ms;
      fill_nnz = l + u;
    }
  end
