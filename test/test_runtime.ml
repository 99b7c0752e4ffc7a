(* Tests for the multicore execution runtime (Cml_runtime.Pool) and
   the incremental sparse-LU path it feeds: parallel maps must be
   deterministic and order-preserving, exceptions must propagate, a
   parallel defect campaign must match the sequential one bit for bit,
   and numeric refactorization must agree with a fresh factorization
   on refreshed MNA values. *)

module Pool = Cml_runtime.Pool
module E = Cml_spice.Engine
module T = Cml_spice.Transient

(* ------------------------------------------------------------------ *)
(* Worker pool semantics *)

let test_parallel_map_matches_sequential () =
  let arr = Array.init 257 (fun i -> i - 40) in
  let f x = (x * x) - (3 * x) in
  Alcotest.(check (array int))
    "jobs=4 equals Array.map" (Array.map f arr)
    (Pool.parallel_map ~jobs:4 f arr);
  Alcotest.(check (array int))
    "jobs=1 equals Array.map" (Array.map f arr)
    (Pool.parallel_map ~jobs:1 f arr)

let test_parallel_list_map_order () =
  let xs = List.init 83 (fun i -> 83 - i) in
  Alcotest.(check (list int))
    "list map preserves order" (List.map succ xs)
    (Pool.parallel_list_map ~jobs:4 succ xs)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 8 |] (Pool.parallel_map ~jobs:4 succ [| 7 |])

let test_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom 17") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 17 then failwith "boom 17" else i)
           (Array.init 64 Fun.id)))

let test_lowest_index_exception_wins () =
  (* several tasks fail; the re-raised exception must deterministically
     be the lowest-index one regardless of completion order *)
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest failing index" (Failure "fail 5") (fun () ->
        ignore
          (Pool.parallel_map ~jobs:4
             (fun i -> if i >= 5 && i mod 7 = 5 then failwith (Printf.sprintf "fail %d" i) else i)
             (Array.init 120 Fun.id)))
  done

let test_pool_reusable_after_exception () =
  (try
     ignore (Pool.parallel_map ~jobs:4 (fun _ -> failwith "once") (Array.init 32 Fun.id))
   with Failure _ -> ());
  Alcotest.(check (array int))
    "pool still works" (Array.init 32 succ)
    (Pool.parallel_map ~jobs:4 succ (Array.init 32 Fun.id))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  Alcotest.check_raises "set_default_jobs rejects negatives"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1, or 0 for auto (one per core)")
    (fun () -> Pool.set_default_jobs (-1));
  (* 0 means auto: one job per core *)
  Pool.set_default_jobs 0;
  Alcotest.(check int) "0 resolves to core count" (Domain.recommended_domain_count ())
    (Pool.default_jobs ());
  Pool.set_default_jobs 1

(* ------------------------------------------------------------------ *)
(* Parallel campaign determinism *)

let test_campaign_parallel_matches_sequential () =
  let golden = Cml_cells.Chain.build ~stages:4 ~freq:1e9 () in
  let defects =
    let all =
      Cml_defects.Sites.enumerate golden.Cml_cells.Chain.builder.Cml_cells.Builder.net
        ~prefix:"x2" ~pipe_values:[ 4e3 ]
    in
    List.filteri (fun i _ -> i < 3) all
  in
  let seq = Cml_defects.Campaign.run ~stages:4 ~freq:1e9 ~dut:2 ~tstop:4e-9 ~jobs:1 ~defects () in
  let par = Cml_defects.Campaign.run ~stages:4 ~freq:1e9 ~dut:2 ~tstop:4e-9 ~jobs:4 ~defects () in
  Alcotest.(check bool)
    "reference identical" true
    (seq.Cml_defects.Campaign.reference = par.Cml_defects.Campaign.reference);
  Alcotest.(check bool)
    "entries identical" true
    (seq.Cml_defects.Campaign.entries = par.Cml_defects.Campaign.entries);
  Alcotest.(check (list (pair string int)))
    "summary identical"
    (Cml_defects.Campaign.summary seq)
    (Cml_defects.Campaign.summary par)

(* ------------------------------------------------------------------ *)
(* Incremental sparse LU *)

let build_system n entries diag =
  let t = Cml_numerics.Sparse.triplet_create n in
  List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i diag
  done;
  let pat = Cml_numerics.Sparse.compress t in
  (pat, Cml_numerics.Sparse.csc_of_pattern pat)

(* Re-stamp the compressed entry sequence with new per-entry values,
   the way the engine refreshes a fixed pattern between Newton
   iterations: zero the CSC values, add entry k into its slot. *)
let restamp pat values =
  let a = Cml_numerics.Sparse.csc_of_pattern pat in
  let v = a.Cml_numerics.Sparse.values in
  Array.fill v 0 (Array.length v) 0.0;
  Array.iteri (fun k s -> v.(s) <- v.(s) +. values.(k)) (Cml_numerics.Sparse.slots pat)

(* the per-entry values of [build_system]'s sequence: the off-diagonal
   [entries], then one [diag] per row *)
let entry_values n values diag = Array.append (Array.of_list values) (Array.make n diag)

let refactor_gen =
  (* an MNA-like sequence: one pattern, two sets of values (as between
     Newton iterations), both kept diagonally dominant *)
  QCheck2.Gen.(
    int_range 1 30 >>= fun n ->
    list_size (int_range 0 (4 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range (-1.0) 1.0))
    >>= fun entries ->
    list_size (return (List.length entries)) (float_range (-1.0) 1.0) >>= fun values' ->
    array_size (return n) (float_range (-10.0) 10.0) >>= fun rhs ->
    return (n, entries, values', rhs))

let prop_refactorize_matches_factorize =
  QCheck2.Test.make ~name:"refactorize agrees with fresh factorize" ~count:300 refactor_gen
    (fun (n, entries, values', rhs) ->
      let diag = float_of_int (4 * n) in
      let pat, a = build_system n entries diag in
      let f = Cml_numerics.Sparse_lu.factorize a in
      (* second Newton iteration: same pattern, new values *)
      restamp pat (entry_values n values' diag);
      if not (Cml_numerics.Sparse_lu.refactorize f a) then
        QCheck2.Test.fail_report "refactorize refused a well-conditioned system"
      else
        let x = Cml_numerics.Sparse_lu.solve f rhs in
        let x' = Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize a) rhs in
        Cml_numerics.Vec.max_abs_diff x x' < 1e-8)

let prop_refactorize_residual =
  QCheck2.Test.make ~name:"refactorize solve has small residual" ~count:300 refactor_gen
    (fun (n, entries, values', rhs) ->
      let diag = float_of_int (4 * n) in
      let pat, a = build_system n entries diag in
      let f = Cml_numerics.Sparse_lu.factorize a in
      restamp pat (entry_values n values' diag);
      if not (Cml_numerics.Sparse_lu.refactorize f a) then true
      else
        let x = Cml_numerics.Sparse_lu.solve f rhs in
        let r = Cml_numerics.Vec.sub (Cml_numerics.Sparse.mul_vec a x) rhs in
        Cml_numerics.Vec.norm_inf r < 1e-7 *. (1.0 +. Cml_numerics.Vec.norm_inf rhs))

let test_refactorize_rejects_foreign_matrix () =
  let _, a = build_system 5 [ (0, 1, -1.0); (3, 2, 0.5) ] 10.0 in
  let _, b = build_system 5 [ (0, 1, -1.0); (3, 2, 0.5) ] 10.0 in
  let f = Cml_numerics.Sparse_lu.factorize a in
  Alcotest.(check bool) "same storage reusable" true (Cml_numerics.Sparse_lu.reusable f a);
  Alcotest.(check bool)
    "structurally equal but distinct storage is rejected" false
    (Cml_numerics.Sparse_lu.reusable f b);
  Alcotest.(check bool) "refactorize refuses it" false (Cml_numerics.Sparse_lu.refactorize f b)

let test_refactorize_rejects_degenerate_pivot () =
  let pat, a = build_system 4 [ (0, 1, -1.0); (1, 0, -1.0) ] 8.0 in
  let f = Cml_numerics.Sparse_lu.factorize a in
  (* zero out everything: every pivot collapses, refactorize must
     report failure instead of dividing by ~0 *)
  restamp pat (Array.make 6 0.0);
  Alcotest.(check bool) "degenerate system refused" false (Cml_numerics.Sparse_lu.refactorize f a)

(* ------------------------------------------------------------------ *)
(* Engine integration: symbolic analysis is paid once per pattern *)

let test_transient_amortises_symbolic () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let options = { E.default_options with E.solver = E.Sparse_solver } in
  let sim = E.compile ~options net in
  ignore (T.run sim net (T.config ~tstop:1e-9 ~max_step:20e-12 ()));
  let stats = E.counters sim in
  Alcotest.(check bool)
    "at least one full factorization" true
    (stats.E.symbolic_factorizations >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "refactorizations dominate (%d symbolic, %d numeric)"
       stats.E.symbolic_factorizations stats.E.numeric_refactorizations)
    true
    (stats.E.numeric_refactorizations > 10 * stats.E.symbolic_factorizations)

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map matches sequential" `Quick
            test_parallel_map_matches_sequential;
          Alcotest.test_case "parallel_list_map preserves order" `Quick
            test_parallel_list_map_order;
          Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "pool reusable after exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "default_jobs sanity" `Quick test_default_jobs_positive;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "parallel campaign matches sequential" `Slow
            test_campaign_parallel_matches_sequential;
        ] );
      ( "incremental-lu",
        [
          QCheck_alcotest.to_alcotest prop_refactorize_matches_factorize;
          QCheck_alcotest.to_alcotest prop_refactorize_residual;
          Alcotest.test_case "rejects foreign matrix" `Quick
            test_refactorize_rejects_foreign_matrix;
          Alcotest.test_case "rejects degenerate pivot" `Quick
            test_refactorize_rejects_degenerate_pivot;
          Alcotest.test_case "transient amortises symbolic analysis" `Slow
            test_transient_amortises_symbolic;
        ] );
    ]
