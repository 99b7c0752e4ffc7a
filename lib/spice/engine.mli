(** The nonlinear MNA engine: compiles a {!Netlist.t} into a
    simulation structure, assembles the Newton companion system and
    solves DC operating points with gmin/source-stepping homotopies.
    Transient analysis lives in {!Transient}, sweeps in {!Sweep}. *)

type solver_kind =
  | Dense_solver
  | Sparse_solver
  | Auto  (** sparse above 60 unknowns, dense below *)

type options = {
  reltol : float;  (** relative convergence tolerance (default 1e-4) *)
  vntol : float;  (** absolute node-voltage tolerance, V (default 1e-6) *)
  abstol : float;  (** absolute branch-current tolerance, A (default 1e-12) *)
  gmin : float;  (** conductance added across every pn junction (default 1e-12) *)
  max_iter : int;  (** Newton iteration limit per solve (default 100) *)
  solver : solver_kind;
  bypass : bool;
      (** SPICE3-style device bypass (default [true]): skip the model
          evaluation of a junction device whose terminal voltages are
          within a tenth of the reltol/vntol convergence tolerance of
          its last full evaluation, replaying the cached stamps
          instead.  Node voltages stay within 10 x [vntol] of the
          bypass-off solution. *)
  lte_reltol_factor : float;
      (** multiplier on [reltol] for the transient local-truncation
          error acceptance test (default 30.0) *)
  lte_abstol : float;
      (** absolute floor of the transient local-truncation error
          acceptance test, V (default 1e-4) *)
}

val default_options : options

(** {2 pn-junction maths}

    The one copy of the junction kernels, shared by the diode and BJT
    evaluators of the assembler and by static checks.  They are
    defined in this module so the assembler inlines them: the build
    compiles modules with [-opaque], so a cross-module call would box
    every float argument and result of every device evaluation. *)

val limexp : float -> float
(** [limexp x] is [exp x] for [x <= 80] and a linear continuation
    above, so device evaluation never overflows. *)

val junction_current : is:float -> nvt:float -> float -> float * float
(** [junction_current ~is ~nvt v] is the pn-junction current and its
    conductance [(i, g)] at bias [v] (no gmin included). *)

val pnjlim : vnew:float -> vold:float -> nvt:float -> vcrit:float -> float
(** SPICE junction-voltage limiting: clamp the Newton update of a
    junction voltage to avoid overflow-driven divergence.  [vcrit] is
    the critical voltage [nvt * ln (nvt / (sqrt 2 * is))]. *)

exception No_convergence of string
(** Raised when every homotopy fails to converge. *)

type sim
(** A compiled simulation.  Compilation snapshots the netlist: later
    netlist mutations are not seen. *)

type integ =
  | Dcop  (** capacitors open *)
  | Tran of { geq : float; trap : bool }
      (** companion-model mode: [geq] is the multiplier [1/h]
          (backward Euler, [trap = false]) or [2/h] (trapezoidal,
          [trap = true]) applied to each capacitance *)

val compile : ?options:options -> Netlist.t -> sim

val options : sim -> options
val unknown_count : sim -> int

val node_unknowns : sim -> int
(** Number of node-voltage unknowns (unknowns beyond this index are
    branch currents).  Together with {!unknown_count} this identifies
    layout-compatible sims: a warm start may only be seeded from a
    solution of a sim with the same counts. *)

val node_unknown : Netlist.node -> int
(** Index of a node voltage in a solution vector, or [-1] for
    ground. *)

val voltage : float array -> Netlist.node -> float
(** Voltage of a node in a solution vector (0 for ground). *)

val branch_unknown : sim -> string -> int
(** Index of the branch current of the named voltage source or VCVS.
    @raise Not_found if there is no such branch. *)

val newton :
  sim ->
  time:float ->
  integ:integ ->
  ?srcscale:float ->
  ?gshunt:float ->
  float array ->
  (float array * int) option
(** One Newton solve from the given initial vector; [Some (x, iters)]
    on convergence.  [gshunt] adds a conductance from every node to
    ground (gmin stepping); [srcscale] scales all independent
    sources (source stepping). *)

val dc_operating_point : ?time:float -> sim -> float array
(** DC solution with sources evaluated at [time] (default 0); tries
    plain Newton, then gmin stepping, then source stepping.
    @raise No_convergence if all strategies fail. *)

val dc_from : ?time:float -> sim -> float array -> float array
(** Like {!dc_operating_point} but starting from a previous solution
    (used by sweeps for continuation; falls back to the homotopies
    when the warm start fails). *)

val set_junction_states : sim -> float array -> unit
(** Reset every device's junction-limiting memory to the voltages
    implied by the given solution; called by the transient loop when
    restarting from a known state. *)

val update_capacitor_states : sim -> float array -> h:float -> trap:bool -> unit
(** Commit an accepted time step: recompute and store each
    capacitor's voltage and current. *)

val init_capacitor_states : sim -> float array -> unit
(** Initialise capacitor memory from a DC solution (zero current). *)

(** {2 Counters}

    Every sim owns one plain mutable counter block.  The assembler,
    the Newton loop and the sparse backend of this module, and the
    {!Transient} step controller running on the sim, increment the
    block of the sim they work on — no atomics, no allocation.  A
    run's numbers are the {!diff} of two {!snapshot}s, and every
    reader (the metrics registry, campaign manifests, post-mortems,
    the perf history) walks {!counter_table} instead of naming
    fields. *)

type counters = {
  mutable newton_iters : int;  (** Newton iterations (assemble + linear solve) *)
  mutable diode_loads : int;  (** diode load opportunities across all iterations *)
  mutable diode_bypassed : int;
      (** of [diode_loads], how many replayed cached stamps instead of
          re-evaluating the model ({!options.bypass}) *)
  mutable bjt_loads : int;  (** ditto for BJTs (one per emitter) *)
  mutable bjt_bypassed : int;
  mutable reused_factorizations : int;
      (** linear solves that reused the previous factorization
          outright because the assembled matrix was bit-identical to
          the previous load's (every junction bypassed, same
          integration coefficient and gshunt) — dense: triangular
          substitution only; sparse: no numeric refactorization *)
  mutable skipped_solves : int;
      (** Newton iterations accepted without a linear solve because
          the whole system (matrix {e and} RHS) was bit-identical to
          the one the previous iteration just solved — the solution is
          the current iterate, exactly *)
  mutable symbolic_factorizations : int;
      (** full sparse LU factorizations (symbolic analysis + numeric),
          performed once per Jacobian pattern or after a pivot
          degraded; 0 on the dense backend *)
  mutable numeric_refactorizations : int;
      (** numeric-only refactorizations reusing the cached symbolic
          analysis — the cheap per-Newton-iteration path *)
  mutable fallback_small_pivot : int;
      (** stability fallbacks to a full factorization because a
          recycled pivot fell below the absolute threshold *)
  mutable fallback_unstable_pivot : int;
      (** ditto, pivot below the stability fraction of its column *)
  mutable fallback_pattern : int;
      (** ditto, the cached factor's pattern no longer matched *)
  mutable accepted_steps : int;  (** committed transient time steps *)
  mutable rejected_steps : int;
      (** transient steps retried after a Newton failure or an LTE
          rejection *)
  mutable lte_rejections : int;
      (** of [rejected_steps], how many were LTE rejections (the
          Newton solve converged but the predictor band failed) *)
  mutable guided_seeds : int;
      (** Newton solves rescued by a transient's [?guide] trajectory:
          the warm DC start, plus accepted steps whose own-point seed
          diverged and whose guide-seeded retry converged (0 when no
          guide was given).  Retries of a rejected instant do not
          inflate this count. *)
  mutable cold_fallbacks : int;
      (** seeds that diverged and triggered the next fallback: steps
          whose own-point seed failed (a guide-seeded retry follows
          when a guide is present), plus a guided DC start that fell
          back to the homotopy ladder *)
}

val counters : sim -> counters
(** The sim's live block, cumulative since {!compile}. *)

val snapshot : sim -> counters
(** A copy of the live block, for a later {!diff}. *)

val diff : since:counters -> counters -> counters
(** Field-wise [now - since]. *)

val device_loads : counters -> int
(** Junction-device (diode + BJT) load opportunities. *)

val bypassed_loads : counters -> int
(** Of {!device_loads}, how many replayed cached stamps. *)

type counter_group =
  | Step  (** the transient step controller's counters *)
  | Newton  (** Newton iterations *)
  | Load  (** the derived all-class {!device_loads} / {!bypassed_loads} *)
  | Per_class  (** loads and bypasses per device class *)
  | Reuse  (** reused factorizations and skipped solves *)
  | Factor  (** symbolic and numeric factorizations *)
  | Fallback  (** LU stability fallbacks, by reason *)

type counter_entry = {
  key : string;  (** per-variant key in manifests and post-mortems *)
  metric : string;  (** metrics-registry counter name *)
  group : counter_group;
  get : counters -> int;
}

val counter_table : counter_entry list
(** The one name table: every counter, plus the derived all-class
    loads, in the order readers emit them. *)

val counter_fields : groups:counter_group list -> counters -> (string * float) list
(** [(key, value)] of the table entries in [groups], in table order. *)

type lu_report = {
  lu_nnz_factors : int;  (** nnz(L) + nnz(U) of the cached sparse factor *)
  lu_fill_ratio : float;
      (** [lu_nnz_factors] over nnz(A) — 1.0 means the factors stored
          no entries beyond the matrix's own *)
  lu_ordering : string;  (** column ordering, ["natural"] or ["amd"] *)
  lu_pivot_growth : float;
      (** element-growth estimate max|U|/max|A| against the current
          matrix values ({!Cml_numerics.Sparse_lu.health}) *)
  lu_condition : float;  (** cheap condition estimate from the U-diagonal extremes *)
}

val lu_report : sim -> lu_report option
(** Health of the cached sparse factor; [None] for the dense backend
    or before the first factorization.  An O(nnz) scan: call it at run
    boundaries. *)

val set_introspect : sim -> Introspect.t option -> unit
(** Attach (or detach) a solver-introspection recorder.  With [None]
    — the default — every introspection hook on the Newton/transient
    hot path costs one load and one branch; with [Some r] the
    recorder captures per-iteration delta norms with worst-unknown
    and worst-device attribution and (via {!Transient}) LTE blame
    and the dt timeline.  Attaching a
    recorder never changes simulation results — bit-identical
    waveforms, qcheck-enforced. *)

val introspect : sim -> Introspect.t option

val device_label : sim -> int -> string
(** Human-readable label for a device index reported by
    {!Introspect} worst-device attribution: the BJT's netlist name,
    or [diode[a-k]] terminals; out-of-range indices render as
    [device[i]]. *)

val publish_metrics : ?since:counters -> sim -> unit
(** Fold this sim's counter movement since [since] (default: a fresh
    sim) into the global {!Cml_telemetry.Metrics} registry — one
    counter per {!counter_table} entry — and, with a sparse factor,
    its {!lu_report} into the [solver.lu_*] gauges and the
    [solver.ordering.*] counters.  Called at run boundaries, never
    inside the Newton loop. *)

val ac_system :
  sim -> float array -> (int * int * float) list * (int * int * float) list
(** Small-signal system at the given (converged) operating point:
    [(g_entries, c_entries)] such that the AC response solves
    [(G + j*omega*C) x = b].  [G] is the Newton Jacobian at the
    operating point (junctions linearised, independent sources
    zeroed structurally — their rows stay, their excitation comes
    from the caller's [b]); [C] collects every capacitor stamp.
    Ground rows/columns are already dropped; entries may repeat and
    must be accumulated. *)

type bjt_op = {
  q_name : string;  (** device name; dual-emitter devices report one
                        entry per emitter, suffixed [#e<k>] *)
  vbe : float;
  vce : float;
  ic : float;  (** collector current (A) *)
  ib : float;
}

val bjt_report : sim -> float array -> bjt_op list
(** SPICE-style operating-point report: bias point of every
    transistor at the given solution, in netlist order. *)
