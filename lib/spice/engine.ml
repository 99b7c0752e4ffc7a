type solver_kind = Dense_solver | Sparse_solver | Auto

type options = {
  reltol : float;
  vntol : float;
  abstol : float;
  gmin : float;
  max_iter : int;
  solver : solver_kind;
  bypass : bool;
  lte_reltol_factor : float;
  lte_abstol : float;
}

let default_options =
  {
    reltol = 1e-4;
    vntol = 1e-6;
    abstol = 1e-12;
    gmin = 1e-12;
    max_iter = 100;
    solver = Auto;
    bypass = true;
    lte_reltol_factor = 30.0;
    lte_abstol = 1e-4;
  }

exception No_convergence of string

(* ------------------------------------------------------------------ *)
(* pn-junction kernels.

   They live here, next to the assembler, because the build compiles
   every module with [-opaque] in the dev profile: a call into another
   module is never inlined, so each float argument and result would be
   boxed on every device evaluation.  In-module and [@inline], the
   exponential is computed once per junction and nothing is boxed. *)

let limexp_arg = 80.0

let[@inline] limexp x =
  if x <= limexp_arg then exp x else exp limexp_arg *. (1.0 +. x -. limexp_arg)

(* current and conductance of a junction at bias [v], given
   [e = limexp (v / nvt)] *)
let[@inline] junction_i ~is e = is *. (e -. 1.0)

let[@inline] junction_g ~is ~nvt v e =
  if v /. nvt <= limexp_arg then is *. e /. nvt else is *. exp limexp_arg /. nvt

let junction_current ~is ~nvt v =
  let e = limexp (v /. nvt) in
  (junction_i ~is e, junction_g ~is ~nvt v e)

let[@inline] vcrit ~is ~nvt = nvt *. log (nvt /. (Float.sqrt 2.0 *. is))

(* Straight port of the classic SPICE3 pnjlim. *)
let[@inline] pnjlim ~vnew ~vold ~nvt ~vcrit =
  if vnew > vcrit && Float.abs (vnew -. vold) > 2.0 *. nvt then begin
    if vold > 0.0 then begin
      let arg = 1.0 +. ((vnew -. vold) /. nvt) in
      if arg > 0.0 then vold +. (nvt *. log arg) else vcrit
    end
    else nvt *. log (vnew /. nvt)
  end
  else vnew

(* ------------------------------------------------------------------ *)
(* Device state.  Every mutable float of a device lives in a record
   whose fields are all floats: OCaml stores those fields unboxed, so
   the writes of a device evaluation allocate nothing (a float field
   of a mixed record is a pointer to a fresh box on every write).

   The junction caches are SPICE3-style bypass caches: the stamps a
   junction device produced at its last full evaluation, plus the
   (limited) junction voltages they were computed at.  When the next
   load finds every junction of the device within a safety-scaled
   convergence tolerance of the cached voltages, the exponentials and
   their derivatives are skipped and the cached stamps are replayed
   verbatim.  Whether a cache holds a full evaluation yet is the
   device's own [valid] flag. *)
type dcache = {
  mutable d_vlast : float;  (** junction-limiting memory: the last limited voltage *)
  mutable d_v : float;  (** limited junction voltage of the cached stamps *)
  mutable d_g : float;
  mutable d_ieq : float;
}

type bcache = {
  mutable b_vbe_last : float;
  mutable b_vbc_last : float;
  mutable b_vbe : float;
  mutable b_vbc : float;
  mutable g_cb : float;
  mutable g_cc : float;
  mutable g_ce : float;
  mutable g_bb : float;
  mutable g_bc : float;
  mutable g_be : float;
  mutable g_eb : float;
  mutable g_ec : float;
  mutable g_ee : float;
  mutable i_c : float;
  mutable i_b : float;
  mutable i_e : float;
}

(* capacitor companion state: voltage and current at the last
   accepted step *)
type cstate = { mutable vprev : float; mutable iprev : float }

(* a source's waveform value at the time of its last evaluation:
   every iteration of one Newton call reads the same instant *)
type wcache = { mutable w_time : float; mutable w_value : float }

type sdev =
  | SRes of { i : int; j : int; g : float }
  | SCap of { i : int; j : int; c : float; cs : cstate }
  | SDiode of { a : int; k : int; m : Models.diode; dc : dcache; mutable d_valid : bool }
  | SBjt of {
      name : string;
      c : int;
      b : int;
      e : int;
      m : Models.bjt;
      bc : bcache;
      mutable b_valid : bool;
    }
  | SVsrc of { p : int; n : int; br : int; w : Waveform.t; wc : wcache }
  | SIsrc of { p : int; n : int; w : Waveform.t; wc : wcache }
  | SVcvs of { p : int; n : int; cp : int; cn : int; br : int; gain : float }
  | SVccs of { p : int; n : int; cp : int; cn : int; gm : float }

(* The stamp sequence.  Every load stamps the same (row, col) entries
   in the same order (zero-valued entries included; a bypassed device
   replays exactly the stamps of its full evaluation).  The first load
   records that sequence into [trip]; compressing it yields, for each
   entry k, the slot [slots.(k)] it accumulates into: a flat
   row-major index into the dense matrix, or the CSC position for the
   sparse backend.  Every later load adds entry k's value into
   [vals.(slots.(k))] — no closure, no triplet, no scatter pass. *)
type asm = {
  trip : Cml_numerics.Sparse.triplet;  (** the recorded sequence, values of the first load *)
  first_into : Cml_numerics.Dense.t option;
      (** the dense backend's matrix, which takes the first load's
          entries as they are recorded; the sparse backend's first
          values come from the compression *)
  mutable vals : float array;  (** dense matrix data, or CSC values once recorded *)
  mutable slots : int array;  (** [[||]] until recorded *)
  mutable next : int;  (** entries stamped by the current load *)
  mutable recorded : bool;
}

type backend =
  | BDense of { m : Cml_numerics.Dense.t; dws : Cml_numerics.Dense.ws }
  | BSparse of {
      mutable csc : Cml_numerics.Sparse.csc option;  (** [None] until recorded *)
      mutable lu : Cml_numerics.Sparse_lu.factor option;
          (** factor of the previous solve, kept for numeric-only
              refactorization while the Jacobian pattern and pivot
              stability allow it *)
    }

(* The per-sim counter block (documented in engine.mli).  Plain
   mutable ints: every writer is the one domain running the sim. *)
type counters = {
  mutable newton_iters : int;
  mutable diode_loads : int;
  mutable diode_bypassed : int;
  mutable bjt_loads : int;
  mutable bjt_bypassed : int;
  mutable reused_factorizations : int;
  mutable skipped_solves : int;
  mutable symbolic_factorizations : int;
  mutable numeric_refactorizations : int;
  mutable fallback_small_pivot : int;
  mutable fallback_unstable_pivot : int;
  mutable fallback_pattern : int;
  mutable accepted_steps : int;
  mutable rejected_steps : int;
  mutable lte_rejections : int;
  mutable guided_seeds : int;
  mutable cold_fallbacks : int;
}

let counters_create () =
  {
    newton_iters = 0;
    diode_loads = 0;
    diode_bypassed = 0;
    bjt_loads = 0;
    bjt_bypassed = 0;
    reused_factorizations = 0;
    skipped_solves = 0;
    symbolic_factorizations = 0;
    numeric_refactorizations = 0;
    fallback_small_pivot = 0;
    fallback_unstable_pivot = 0;
    fallback_pattern = 0;
    accepted_steps = 0;
    rejected_steps = 0;
    lte_rejections = 0;
    guided_seeds = 0;
    cold_fallbacks = 0;
  }

let diff ~since c =
  {
    newton_iters = c.newton_iters - since.newton_iters;
    diode_loads = c.diode_loads - since.diode_loads;
    diode_bypassed = c.diode_bypassed - since.diode_bypassed;
    bjt_loads = c.bjt_loads - since.bjt_loads;
    bjt_bypassed = c.bjt_bypassed - since.bjt_bypassed;
    reused_factorizations = c.reused_factorizations - since.reused_factorizations;
    skipped_solves = c.skipped_solves - since.skipped_solves;
    symbolic_factorizations = c.symbolic_factorizations - since.symbolic_factorizations;
    numeric_refactorizations = c.numeric_refactorizations - since.numeric_refactorizations;
    fallback_small_pivot = c.fallback_small_pivot - since.fallback_small_pivot;
    fallback_unstable_pivot = c.fallback_unstable_pivot - since.fallback_unstable_pivot;
    fallback_pattern = c.fallback_pattern - since.fallback_pattern;
    accepted_steps = c.accepted_steps - since.accepted_steps;
    rejected_steps = c.rejected_steps - since.rejected_steps;
    lte_rejections = c.lte_rejections - since.lte_rejections;
    guided_seeds = c.guided_seeds - since.guided_seeds;
    cold_fallbacks = c.cold_fallbacks - since.cold_fallbacks;
  }

(* The float half of the per-sim load state, in a float-only record
   for the same reason as the device caches. *)
type fstate = {
  mutable junction_error : float;
      (** largest |v_solution - v_limited| over all junctions during
          the last load; convergence requires this to vanish, or the
          slow creep of [pnjlim] could be mistaken for a fixed point *)
  mutable rt_geq : float;  (** [Dcop] is encoded as 0.0; a [Tran] geq is always > 0 *)
  mutable rt_gshunt : float;
  mutable rt_time : float;
  mutable rt_srcscale : float;
}

type sim = {
  opts : options;
  nv : int;  (** node-voltage unknowns *)
  nunk : int;
  sdevs : sdev array;
  branches : (string, int) Hashtbl.t;
  asm : asm;
  backend : backend;
  rhs : float array;
  ws_x : float array;  (** Newton workspace: current iterate *)
  ws_xnew : float array;  (** Newton workspace: linear-solve output *)
  fs : fstate;
  mutable junction_worst : int;
      (** device index attaining [junction_error], -1 when no junction
          was limited during the last load *)
  counters : counters;
  mutable introspect : Introspect.t option;
      (** optional solver-introspection recorder; [None] costs one
          load and one branch per hook (see {!Introspect}) *)
  (* Jacobian-reuse tracking.  A load whose junction devices all
     replayed cached stamps, with the same integration coefficient and
     gshunt as the previous load, assembled a matrix bit-identical to
     the previous one — so the previous factorization can be reused,
     and if time/srcscale/trap also match within one Newton call, the
     whole linear system is identical and the solve can be skipped.
     The float half of the fingerprint lives in [fs]. *)
  mutable rt_full_evals : int;  (** junction full evaluations in the last load *)
  mutable rt_loaded : bool;  (** at least one [load] since compile / invalidation *)
  mutable rt_have_factor : bool;
      (** the backend factor matches the matrix of the last factored load *)
  mutable rt_matrix_unchanged : bool;  (** last load's matrix = previous load's *)
  mutable rt_system_identical : bool;  (** last load's matrix {e and} RHS = previous load's *)
  mutable rt_trap : bool;
}

type integ = Dcop | Tran of { geq : float; trap : bool }

let node_unknown nd = nd - 1

let voltage x nd = if nd = 0 then 0.0 else x.(nd - 1)

let unknown_count sim = sim.nunk

let node_unknowns sim = sim.nv

let options sim = sim.opts

let branch_unknown sim name =
  match Hashtbl.find_opt sim.branches name with Some i -> i | None -> raise Not_found

let dcache_create () = { d_vlast = 0.0; d_v = 0.0; d_g = 0.0; d_ieq = 0.0 }

let bcache_create () =
  {
    b_vbe_last = 0.0;
    b_vbc_last = 0.0;
    b_vbe = 0.0;
    b_vbc = 0.0;
    g_cb = 0.0;
    g_cc = 0.0;
    g_ce = 0.0;
    g_bb = 0.0;
    g_bc = 0.0;
    g_be = 0.0;
    g_eb = 0.0;
    g_ec = 0.0;
    g_ee = 0.0;
    i_c = 0.0;
    i_b = 0.0;
    i_e = 0.0;
  }

let wcache_create () = { w_time = nan; w_value = 0.0 }

let compile ?(options = default_options) net =
  let nv = Netlist.node_count net - 1 in
  let sdevs = ref [] in
  let branches = Hashtbl.create 8 in
  let nbranch = ref 0 in
  let u = node_unknown in
  let emit d = sdevs := d :: !sdevs in
  let emit_cap i j c =
    if c > 0.0 then emit (SCap { i; j; c; cs = { vprev = 0.0; iprev = 0.0 } })
  in
  let compile_device = function
    | Netlist.Resistor { n1; n2; r; _ } ->
        if r <= 0.0 then invalid_arg "non-positive resistance";
        emit (SRes { i = u n1; j = u n2; g = 1.0 /. r })
    | Netlist.Capacitor { n1; n2; c; _ } -> emit_cap (u n1) (u n2) c
    | Netlist.Diode { anode; cathode; model; _ } ->
        emit
          (SDiode
             { a = u anode; k = u cathode; m = model; dc = dcache_create (); d_valid = false });
        emit_cap (u anode) (u cathode) model.Models.d_cj
    | Netlist.Bjt { name; collector; base; emitters; model } ->
        Array.iteri
          (fun k e ->
            let name = if Array.length emitters = 1 then name else Printf.sprintf "%s#e%d" name k in
            emit
              (SBjt
                 {
                   name;
                   c = u collector;
                   b = u base;
                   e = u e;
                   m = model;
                   bc = bcache_create ();
                   b_valid = false;
                 });
            emit_cap (u base) (u e) model.Models.q_cje;
            emit_cap (u base) (u collector) model.Models.q_cjc)
          emitters
    | Netlist.Vsource { name; npos; nneg; wave } ->
        let br = nv + !nbranch in
        incr nbranch;
        Hashtbl.replace branches name br;
        emit (SVsrc { p = u npos; n = u nneg; br; w = wave; wc = wcache_create () })
    | Netlist.Isource { npos; nneg; wave; _ } ->
        emit (SIsrc { p = u npos; n = u nneg; w = wave; wc = wcache_create () })
    | Netlist.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
        let br = nv + !nbranch in
        incr nbranch;
        Hashtbl.replace branches name br;
        emit (SVcvs { p = u npos; n = u nneg; cp = u cpos; cn = u cneg; br; gain })
    | Netlist.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
        emit (SVccs { p = u npos; n = u nneg; cp = u cpos; cn = u cneg; gm })
  in
  Netlist.iter_devices net compile_device;
  let nunk = nv + !nbranch in
  let use_sparse =
    match options.solver with
    | Dense_solver -> false
    | Sparse_solver -> true
    | Auto -> nunk > 60
  in
  let dense = if use_sparse then None else Some (Cml_numerics.Dense.create nunk) in
  let backend =
    match dense with
    | None -> BSparse { csc = None; lu = None }
    | Some m -> BDense { m; dws = Cml_numerics.Dense.ws nunk }
  in
  {
    opts = options;
    nv;
    nunk;
    sdevs = Array.of_list (List.rev !sdevs);
    branches;
    asm =
      {
        trip = Cml_numerics.Sparse.triplet_create nunk;
        first_into = dense;
        vals = (match dense with Some m -> Cml_numerics.Dense.data m | None -> [||]);
        slots = [||];
        next = 0;
        recorded = false;
      };
    backend;
    rhs = Array.make nunk 0.0;
    ws_x = Array.make nunk 0.0;
    ws_xnew = Array.make nunk 0.0;
    fs = { junction_error = 0.0; rt_geq = nan; rt_gshunt = nan; rt_time = nan; rt_srcscale = nan };
    junction_worst = -1;
    counters = counters_create ();
    introspect = None;
    rt_full_evals = 0;
    rt_loaded = false;
    rt_have_factor = false;
    rt_matrix_unchanged = false;
    rt_system_identical = false;
    rt_trap = false;
  }

(* ------------------------------------------------------------------ *)
(* Assembly.  One primitive, [stamp], adds an entry's value into its
   recorded slot; everything it and the device loop below touch is in
   this module or a float array, so a load allocates nothing. *)

let[@inline] vof x i = if i < 0 then 0.0 else x.(i)

let[@inline] inject rhs i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v

(* the first load's entries, and any entry past the recorded
   sequence: out of line, so [stamp] stays small *)
let stamp_unrecorded asm i j v =
  if asm.recorded then
    invalid_arg
      (Printf.sprintf "Engine: a load stamped more than the %d recorded matrix entries"
         (Array.length asm.slots))
  else begin
    Cml_numerics.Sparse.add asm.trip i j v;
    match asm.first_into with Some m -> Cml_numerics.Dense.add_entry m i j v | None -> ()
  end

(* [i], [j] are raw unknown indices; ground (-1) entries are dropped *)
let[@inline] stamp asm i j v =
  if i >= 0 && j >= 0 then begin
    let k = asm.next in
    asm.next <- k + 1;
    if k < Array.length asm.slots then begin
      let s = Array.unsafe_get asm.slots k in
      asm.vals.(s) <- asm.vals.(s) +. v
    end
    else stamp_unrecorded asm i j v
  end

let[@inline] stamp_conductance asm i j g =
  stamp asm i i g;
  stamp asm j j g;
  stamp asm i j (-.g);
  stamp asm j i (-.g)

(* Close the first load: compress the recorded sequence and derive
   each entry's slot from its CSC position.  The sparse backend's
   matrix is the compressed one; the dense backend maps each CSC
   position to its row-major index (its matrix already holds the
   first load). *)
let finish_recording sim =
  let asm = sim.asm in
  let pat = Cml_numerics.Sparse.compress asm.trip in
  let a = Cml_numerics.Sparse.csc_of_pattern pat in
  let pos = Cml_numerics.Sparse.slots pat in
  (match sim.backend with
  | BSparse sp ->
      sp.csc <- Some a;
      asm.vals <- a.Cml_numerics.Sparse.values;
      asm.slots <- pos
  | BDense _ ->
      let n = sim.nunk in
      let flat = Array.make (Cml_numerics.Sparse.nnz a) 0 in
      for j = 0 to n - 1 do
        for p = a.Cml_numerics.Sparse.colptr.(j) to a.Cml_numerics.Sparse.colptr.(j + 1) - 1 do
          flat.(p) <- (a.Cml_numerics.Sparse.rowind.(p) * n) + j
        done
      done;
      asm.slots <- Array.map (fun p -> flat.(p)) pos);
  asm.recorded <- true

(* Safety factor applied to the reltol/vntol convergence tolerance
   before it is used as the bypass threshold: a bypassed device's
   stamps are stale by at most the threshold, so the fixed point the
   solver finds can be off by the same order — keeping the threshold
   a decade under the convergence tolerance keeps the node-voltage
   deviation between bypass-on and bypass-off runs well inside
   10 x vntol (asserted by a property test). *)
let bypass_safety = 0.1

let[@inline] bypass_close opts vnew vcache =
  Float.abs (vnew -. vcache)
  <= bypass_safety
     *. ((opts.reltol *. Float.max (Float.abs vnew) (Float.abs vcache)) +. opts.vntol)

let[@inline] note_junction sim di vnew vlim =
  let err = Float.abs (vnew -. vlim) in
  if err > sim.fs.junction_error then begin
    sim.fs.junction_error <- err;
    sim.junction_worst <- di
  end

let[@inline] source_value wc w time =
  if time = wc.w_time then wc.w_value
  else begin
    let v = Waveform.value w time in
    wc.w_time <- time;
    wc.w_value <- v;
    v
  end

(* Assemble the Newton system at [x] into the backend matrix and
   [sim.rhs].  [bypass] enables the device-bypass fast path (off for
   the AC linearisation, which wants the exact Jacobian). *)
let assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass =
  let asm = sim.asm and rhs = sim.rhs in
  Array.fill asm.vals 0 (Array.length asm.vals) 0.0;
  asm.next <- 0;
  Array.fill rhs 0 sim.nunk 0.0;
  let opts = sim.opts in
  let cnt = sim.counters in
  let gmin = opts.gmin in
  let nvt = Models.boltzmann_vt in
  sim.fs.junction_error <- 0.0;
  sim.junction_worst <- -1;
  sim.rt_full_evals <- 0;
  (* gshunt diagonal for every node unknown: also guarantees a
     structurally non-empty diagonal for the sparse pattern *)
  for i = 0 to sim.nv - 1 do
    stamp asm i i gshunt
  done;
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    match sdevs.(di) with
    | SRes { i; j; g } -> stamp_conductance asm i j g
    | SCap { i; j; c; cs } ->
        let g = match integ with Dcop -> 0.0 | Tran { geq; _ } -> geq *. c in
        let irhs =
          match integ with
          | Dcop -> 0.0
          | Tran { trap; _ } -> (g *. cs.vprev) +. if trap then cs.iprev else 0.0
        in
        stamp_conductance asm i j g;
        inject rhs i irhs;
        inject rhs j (-.irhs)
    | SDiode d ->
        cnt.diode_loads <- cnt.diode_loads + 1;
        let a = d.a and k = d.k and dc = d.dc in
        let vnew = vof x a -. vof x k in
        if bypass && d.d_valid && bypass_close opts vnew dc.d_v then begin
          cnt.diode_bypassed <- cnt.diode_bypassed + 1;
          stamp_conductance asm a k dc.d_g;
          inject rhs a dc.d_ieq;
          inject rhs k (-.dc.d_ieq)
        end
        else begin
          sim.rt_full_evals <- sim.rt_full_evals + 1;
          let is = d.m.Models.d_is in
          let n_nvt = d.m.Models.d_n *. nvt in
          let vlim = pnjlim ~vnew ~vold:dc.d_vlast ~nvt:n_nvt ~vcrit:(vcrit ~is ~nvt:n_nvt) in
          dc.d_vlast <- vlim;
          note_junction sim di vnew vlim;
          let ex = limexp (vlim /. n_nvt) in
          let g = junction_g ~is ~nvt:n_nvt vlim ex +. gmin
          and i0 = junction_i ~is ex +. (gmin *. vlim) in
          stamp_conductance asm a k g;
          let ieq = (g *. vlim) -. i0 in
          inject rhs a ieq;
          inject rhs k (-.ieq);
          d.d_valid <- true;
          dc.d_v <- vlim;
          dc.d_g <- g;
          dc.d_ieq <- ieq
        end
    | SBjt q ->
        cnt.bjt_loads <- cnt.bjt_loads + 1;
        let c = q.c and b = q.b and e = q.e and bc = q.bc in
        let vbe_new = vof x b -. vof x e in
        let vbc_new = vof x b -. vof x c in
        if
          bypass && q.b_valid
          && bypass_close opts vbe_new bc.b_vbe
          && bypass_close opts vbc_new bc.b_vbc
        then begin
          cnt.bjt_bypassed <- cnt.bjt_bypassed + 1;
          stamp asm c b bc.g_cb;
          stamp asm c c bc.g_cc;
          stamp asm c e bc.g_ce;
          stamp asm b b bc.g_bb;
          stamp asm b c bc.g_bc;
          stamp asm b e bc.g_be;
          stamp asm e b bc.g_eb;
          stamp asm e c bc.g_ec;
          stamp asm e e bc.g_ee;
          inject rhs c bc.i_c;
          inject rhs b bc.i_b;
          inject rhs e bc.i_e
        end
        else begin
          sim.rt_full_evals <- sim.rt_full_evals + 1;
          let is = q.m.Models.q_is in
          let vcrit = vcrit ~is ~nvt in
          let vbe = pnjlim ~vnew:vbe_new ~vold:bc.b_vbe_last ~nvt ~vcrit in
          bc.b_vbe_last <- vbe;
          note_junction sim di vbe_new vbe;
          let vbc = pnjlim ~vnew:vbc_new ~vold:bc.b_vbc_last ~nvt ~vcrit in
          bc.b_vbc_last <- vbc;
          note_junction sim di vbc_new vbc;
          let ef = limexp (vbe /. nvt) and er = limexp (vbc /. nvt) in
          let ift = junction_i ~is ef and gif = junction_g ~is ~nvt vbe ef in
          let irt = junction_i ~is er and gir = junction_g ~is ~nvt vbc er in
          let icc = ift -. irt in
          let ibe = (ift /. q.m.Models.q_bf) +. (gmin *. vbe) in
          let gbe = (gif /. q.m.Models.q_bf) +. gmin in
          let ibc = (irt /. q.m.Models.q_br) +. (gmin *. vbc) in
          let gbc = (gir /. q.m.Models.q_br) +. gmin in
          let ic0 = icc -. ibc in
          let ib0 = ibe +. ibc in
          let ie0 = -.icc -. ibe in
          (* rows: partial derivatives wrt (Vb, Vc, Ve) *)
          let dic_dvb = gif -. gir -. gbc
          and dic_dvc = gir +. gbc
          and dic_dve = -.gif in
          let dib_dvb = gbe +. gbc and dib_dvc = -.gbc and dib_dve = -.gbe in
          let die_dvb = -.gif -. gbe +. gir and die_dvc = -.gir and die_dve = gif +. gbe in
          let ic_rhs = (gif *. vbe) +. (((-.gir) -. gbc) *. vbc) -. ic0 in
          let ib_rhs = (gbe *. vbe) +. (gbc *. vbc) -. ib0 in
          let ie_rhs = (((-.gif) -. gbe) *. vbe) +. (gir *. vbc) -. ie0 in
          stamp asm c b dic_dvb;
          stamp asm c c dic_dvc;
          stamp asm c e dic_dve;
          stamp asm b b dib_dvb;
          stamp asm b c dib_dvc;
          stamp asm b e dib_dve;
          stamp asm e b die_dvb;
          stamp asm e c die_dvc;
          stamp asm e e die_dve;
          inject rhs c ic_rhs;
          inject rhs b ib_rhs;
          inject rhs e ie_rhs;
          q.b_valid <- true;
          bc.b_vbe <- vbe;
          bc.b_vbc <- vbc;
          bc.g_cb <- dic_dvb;
          bc.g_cc <- dic_dvc;
          bc.g_ce <- dic_dve;
          bc.g_bb <- dib_dvb;
          bc.g_bc <- dib_dvc;
          bc.g_be <- dib_dve;
          bc.g_eb <- die_dvb;
          bc.g_ec <- die_dvc;
          bc.g_ee <- die_dve;
          bc.i_c <- ic_rhs;
          bc.i_b <- ib_rhs;
          bc.i_e <- ie_rhs
        end
    | SVsrc { p; n; br; w; wc } ->
        stamp asm br p 1.0;
        stamp asm br n (-1.0);
        stamp asm p br 1.0;
        stamp asm n br (-1.0);
        rhs.(br) <- rhs.(br) +. (srcscale *. source_value wc w time)
    | SIsrc { p; n; w; wc } ->
        let i = srcscale *. source_value wc w time in
        inject rhs p (-.i);
        inject rhs n i
    | SVcvs { p; n; cp; cn; br; gain } ->
        stamp asm br p 1.0;
        stamp asm br n (-1.0);
        stamp asm br cp (-.gain);
        stamp asm br cn gain;
        stamp asm p br 1.0;
        stamp asm n br (-1.0)
    | SVccs { p; n; cp; cn; gm } ->
        stamp asm p cp gm;
        stamp asm p cn (-.gm);
        stamp asm n cp (-.gm);
        stamp asm n cn gm
  done;
  if not asm.recorded then finish_recording sim
  else if asm.next <> Array.length asm.slots then
    invalid_arg
      (Printf.sprintf "Engine: a load stamped %d of the %d recorded matrix entries" asm.next
         (Array.length asm.slots))

let load sim ~x ~time ~integ ~srcscale ~gshunt =
  assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass:sim.opts.bypass;
  (* Jacobian-reuse bookkeeping.  The matrix depends only on the fixed
     linear stamps, the integration coefficient (geq * C for caps; 0.0
     encodes DC and a transient geq is always positive), gshunt and
     the junction stamps — so when every junction device replayed its
     cache ([rt_full_evals] = 0) and geq/gshunt match the previous
     load, the assembled matrix is bit-identical to the previous one.
     The RHS additionally depends on time, srcscale, trap and the
     capacitor companion states; the latter only change between Newton
     calls, which is why [newton] limits the solve-skip to consecutive
     iterations of one call. *)
  let geq = match integ with Dcop -> 0.0 | Tran { geq; _ } -> geq in
  let trap = match integ with Dcop -> false | Tran { trap; _ } -> trap in
  let fs = sim.fs in
  let matrix_unchanged =
    sim.rt_loaded && sim.rt_full_evals = 0 && geq = fs.rt_geq && gshunt = fs.rt_gshunt
  in
  sim.rt_matrix_unchanged <- matrix_unchanged;
  sim.rt_system_identical <-
    matrix_unchanged && time = fs.rt_time && srcscale = fs.rt_srcscale && trap = sim.rt_trap;
  sim.rt_loaded <- true;
  fs.rt_geq <- geq;
  fs.rt_gshunt <- gshunt;
  fs.rt_time <- time;
  fs.rt_srcscale <- srcscale;
  sim.rt_trap <- trap

let solve_linear_into sim out =
  let reuse = sim.rt_matrix_unchanged && sim.rt_have_factor in
  let cnt = sim.counters in
  match sim.backend with
  | BDense { m; dws } ->
      if reuse then begin
        cnt.reused_factorizations <- cnt.reused_factorizations + 1;
        Cml_numerics.Dense.resolve_ws dws sim.rhs out
      end
      else begin
        sim.rt_have_factor <- false;
        Cml_numerics.Dense.factor_ws m dws;
        sim.rt_have_factor <- true;
        Cml_numerics.Dense.resolve_ws dws sim.rhs out
      end
  | BSparse ({ csc = Some a; _ } as sp) -> begin
      match sp.lu with
      | Some f when reuse ->
          cnt.reused_factorizations <- cnt.reused_factorizations + 1;
          Cml_numerics.Sparse_lu.solve_into f sim.rhs out
      | _ ->
          sim.rt_have_factor <- false;
          (* the pattern of an MNA Jacobian is fixed across Newton
             iterations and timesteps, so the symbolic work (DFS reach,
             pivot order, fill pattern, buffer allocation) is done once
             and only the numeric elimination repeats; a degraded pivot
             falls back to a full factorization with a fresh pivot order *)
          let f =
            match sp.lu with
            | Some f when Cml_numerics.Sparse_lu.refactorize f a ->
                cnt.numeric_refactorizations <- cnt.numeric_refactorizations + 1;
                f
            | prev ->
                (* a refactorize that bailed forces a full factorization;
                   attribute the fallback to its recorded reason *)
                (match prev with
                | None -> ()
                | Some f -> (
                    match Cml_numerics.Sparse_lu.last_refactor_failure f with
                    | Some (Cml_numerics.Sparse_lu.Small_pivot _) ->
                        cnt.fallback_small_pivot <- cnt.fallback_small_pivot + 1
                    | Some (Cml_numerics.Sparse_lu.Unstable_pivot _) ->
                        cnt.fallback_unstable_pivot <- cnt.fallback_unstable_pivot + 1
                    | Some Cml_numerics.Sparse_lu.Mismatched_pattern | None ->
                        cnt.fallback_pattern <- cnt.fallback_pattern + 1));
                let f = Cml_numerics.Sparse_lu.factorize a in
                sp.lu <- Some f;
                cnt.symbolic_factorizations <- cnt.symbolic_factorizations + 1;
                f
          in
          sim.rt_have_factor <- true;
          Cml_numerics.Sparse_lu.solve_into f sim.rhs out
    end
  | BSparse { csc = None; _ } -> assert false

let counters sim = sim.counters

(* a field-for-field copy of the live block *)
let snapshot sim = { sim.counters with newton_iters = sim.counters.newton_iters }

let device_loads c = c.diode_loads + c.bjt_loads

let bypassed_loads c = c.diode_bypassed + c.bjt_bypassed

type counter_group = Step | Newton | Load | Per_class | Reuse | Factor | Fallback

type counter_entry = {
  key : string;
  metric : string;
  group : counter_group;
  get : counters -> int;
}

(* The one name table.  Its order is the order every reader emits:
   campaign manifests (Step, Newton, Load), post-mortems (Step,
   Newton; Per_class; Fallback) and the perf history (Factor, Newton,
   Load). *)
let counter_table =
  let e key metric group get = { key; metric; group; get } in
  [
    e "symbolic_factorizations" "solver.symbolic_factorizations" Factor (fun c ->
        c.symbolic_factorizations);
    e "numeric_refactorizations" "solver.numeric_refactorizations" Factor (fun c ->
        c.numeric_refactorizations);
    e "accepted_steps" "transient.accepted_steps" Step (fun c -> c.accepted_steps);
    e "rejected_steps" "transient.rejected_steps" Step (fun c -> c.rejected_steps);
    e "lte_rejections" "transient.lte_rejections" Step (fun c -> c.lte_rejections);
    e "newton_iters" "solver.newton_iters" Newton (fun c -> c.newton_iters);
    e "device_loads" "engine.device_loads" Load device_loads;
    e "bypassed_loads" "engine.bypassed_loads" Load bypassed_loads;
    e "guided_seeds" "transient.guided_seeds" Step (fun c -> c.guided_seeds);
    e "cold_fallbacks" "transient.cold_fallbacks" Step (fun c -> c.cold_fallbacks);
    e "diode_loads" "engine.diode_loads" Per_class (fun c -> c.diode_loads);
    e "diode_bypassed" "engine.diode_bypassed" Per_class (fun c -> c.diode_bypassed);
    e "bjt_loads" "engine.bjt_loads" Per_class (fun c -> c.bjt_loads);
    e "bjt_bypassed" "engine.bjt_bypassed" Per_class (fun c -> c.bjt_bypassed);
    e "reused_factorizations" "solver.reused_factorizations" Reuse (fun c ->
        c.reused_factorizations);
    e "skipped_solves" "solver.skipped_solves" Reuse (fun c -> c.skipped_solves);
    e "fallback_small_pivot" "solver.fallback.small_pivot" Fallback (fun c ->
        c.fallback_small_pivot);
    e "fallback_unstable_pivot" "solver.fallback.unstable_pivot" Fallback (fun c ->
        c.fallback_unstable_pivot);
    (* the key the cml-dft-postmortem/1 documents already carry *)
    e "fallback_pattern_mismatch" "solver.fallback.pattern" Fallback (fun c ->
        c.fallback_pattern);
  ]

let counter_fields ~groups c =
  List.filter_map
    (fun e -> if List.mem e.group groups then Some (e.key, float_of_int (e.get c)) else None)
    counter_table

type lu_report = {
  lu_nnz_factors : int;
  lu_fill_ratio : float;
  lu_ordering : string;
  lu_pivot_growth : float;
  lu_condition : float;
}

(* run-boundary call: the O(nnz) health scan is off the solve path by
   construction *)
let lu_report sim =
  match sim.backend with
  | BDense _ | BSparse { lu = None; _ } | BSparse { csc = None; _ } -> None
  | BSparse { lu = Some f; csc = Some a } ->
      let h = Cml_numerics.Sparse_lu.health f a in
      let nl, nu = Cml_numerics.Sparse_lu.lu_nnz f in
      Some
        {
          lu_nnz_factors = nl + nu;
          lu_fill_ratio = Cml_numerics.Sparse_lu.fill_ratio f;
          lu_ordering = Cml_numerics.Sparse_lu.ordering_name f;
          lu_pivot_growth = h.Cml_numerics.Sparse_lu.pivot_growth;
          lu_condition = h.Cml_numerics.Sparse_lu.condition_estimate;
        }

let set_introspect sim r = sim.introspect <- r

let introspect sim = sim.introspect

(* Attribution label for a device index reported by the recorder
   (worst-junction blame): BJTs carry their netlist name, diodes are
   identified by their terminals. *)
let device_label sim di =
  if di < 0 || di >= Array.length sim.sdevs then Printf.sprintf "device[%d]" di
  else
    match sim.sdevs.(di) with
    | SBjt { name; _ } -> name
    | SDiode { a; k; _ } -> Printf.sprintf "diode[%d-%d]" (a + 1) (k + 1)
    | SRes _ | SCap _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ ->
        Printf.sprintf "device[%d]" di

(* Global metrics-registry handles, one per table entry.  Counting
   stays in the sim's plain block (no atomics on the Newton loop);
   [publish_metrics] folds a block's movement into the registry at run
   boundaries — end of a transient, a sweep, a Monte-Carlo sample. *)
module M = Cml_telemetry.Metrics

let counter_handles = List.map (fun e -> (e, M.counter e.metric)) counter_table
let m_lu_fill = M.gauge "solver.lu_fill_nnz"
let m_lu_fill_ratio = M.gauge "solver.lu_fill_ratio"
let m_pivot_growth = M.gauge "solver.lu_pivot_growth"
let m_condition = M.gauge "solver.lu_condition"
let m_ordering_amd = M.counter "solver.ordering.amd"
let m_ordering_natural = M.counter "solver.ordering.natural"

let publish_metrics ?since sim =
  let moved = match since with None -> sim.counters | Some s -> diff ~since:s sim.counters in
  List.iter (fun (e, h) -> M.add h (e.get moved)) counter_handles;
  match lu_report sim with
  | None -> ()
  | Some r ->
      M.set m_lu_fill (float_of_int r.lu_nnz_factors);
      M.set m_lu_fill_ratio r.lu_fill_ratio;
      M.set m_pivot_growth r.lu_pivot_growth;
      M.set m_condition r.lu_condition;
      (* count factorizations by the ordering they ended up with, so a
         metrics snapshot shows which path large designs actually take *)
      if moved.symbolic_factorizations > 0 then
        M.add
          (if r.lu_ordering = "amd" then m_ordering_amd else m_ordering_natural)
          moved.symbolic_factorizations

let converged sim x x' =
  let ok = ref true in
  for i = 0 to sim.nunk - 1 do
    let tol =
      if i < sim.nv then sim.opts.vntol +. (sim.opts.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i)))
      else sim.opts.abstol +. (sim.opts.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i)))
    in
    if Float.abs (x'.(i) -. x.(i)) > tol then ok := false
  done;
  !ok

let set_junction_states sim x =
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    match sdevs.(di) with
    | SDiode { a; k; dc; _ } -> dc.d_vlast <- vof x a -. vof x k
    | SBjt { c; b; e; bc; _ } ->
        bc.b_vbe_last <- vof x b -. vof x e;
        bc.b_vbc_last <- vof x b -. vof x c
    | SRes _ | SCap _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ()
  done

(* The iterate loop works entirely in the per-sim workspace ([ws_x],
   [ws_xnew], the backend matrix/factor scratch): no vector or matrix
   is allocated per iteration, only the converged solution is copied
   out once on success. *)
let newton sim ~time ~integ ?(srcscale = 1.0) ?(gshunt = 0.0) x0 =
  (* token span, not [with_span]: this is the inner hot path, and the
     token API keeps the disabled cost to one atomic load + branch
     with no closure or argument allocation *)
  let tok = Cml_telemetry.Trace.start () in
  let cnt = sim.counters in
  set_junction_states sim x0;
  let x = sim.ws_x and xn = sim.ws_xnew in
  Array.blit x0 0 x 0 sim.nunk;
  let rec iterate iter =
    if iter > sim.opts.max_iter then None
    else begin
      load sim ~x ~time ~integ ~srcscale ~gshunt;
      cnt.newton_iters <- cnt.newton_iters + 1;
      (* Identical-system acceptance: for [iter > 0] the previous
         iteration solved the system the previous load assembled, and
         its solution is the current iterate [x].  When this load
         produced a bit-identical system (every junction bypassed,
         same geq/gshunt/time/srcscale/trap; capacitor states cannot
         move inside one Newton call), solving again would return [x]
         exactly — a zero-delta, junction-settled, converged accept.
         Skip the solve and accept [x] directly; this is bit-exact
         with the unskipped path. *)
      if iter > 0 && sim.rt_system_identical then begin
        cnt.skipped_solves <- cnt.skipped_solves + 1;
        Some (Cml_numerics.Vec.copy x, iter)
      end
      else
        match solve_linear_into sim xn with
        | exception (Cml_numerics.Dense.Singular _ | Cml_numerics.Sparse_lu.Singular _) -> None
        | () ->
            (* matched here so the disabled hook boxes no float argument *)
            (match sim.introspect with
            | None -> ()
            | Some _ as r ->
                Introspect.note_newton r ~time ~iter ~x ~xn
                  ~junction_error:sim.fs.junction_error ~junction_worst:sim.junction_worst);
            let junctions_settled =
              sim.fs.junction_error <= sim.opts.vntol +. (sim.opts.reltol *. 1.0)
            in
            if iter > 0 && junctions_settled && converged sim x xn then
              Some (Cml_numerics.Vec.copy xn, iter)
            else begin
              Array.blit xn 0 x 0 sim.nunk;
              iterate (iter + 1)
            end
    end
  in
  let result = iterate 0 in
  (match result with
  | None -> Introspect.note_newton_fail sim.introspect ~time
  | Some _ -> ());
  Cml_telemetry.Trace.finish ~cat:"solver" "newton_solve" tok;
  result

let zeros sim = Array.make sim.nunk 0.0

let gmin_levels =
  [
    1e-2; 3e-3; 1e-3; 3e-4; 1e-4; 3e-5; 1e-5; 3e-6; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11;
    1e-12; 0.0;
  ]


let dc_homotopy sim ~time x0 =
  (* plain Newton first *)
  match newton sim ~time ~integ:Dcop x0 with
  | Some (x, _) -> Some x
  | None ->
      (* gmin stepping; a level that fails is skipped (the next,
         gentler level often converges from the same start), but the
         final gshunt = 0 solve must succeed *)
      let rec gmin_walk x = function
        | [] -> Some x
        | g :: rest -> begin
            match newton sim ~time ~integ:Dcop ~gshunt:g x with
            | Some (x', _) -> gmin_walk x' rest
            | None -> if rest = [] then None else gmin_walk x rest
          end
      in
      let gmin_result = gmin_walk (zeros sim) gmin_levels in
      (match gmin_result with
      | Some x -> Some x
      | None ->
          (* adaptive source stepping: on failure, bisect toward the
             last converged scale; on success, grow the step *)
          let rec src_walk x s_done step budget =
            if s_done >= 1.0 then Some x
            else if budget = 0 || step < 1e-4 then None
            else begin
              let target = Float.min 1.0 (s_done +. step) in
              match newton sim ~time ~integ:Dcop ~srcscale:target x with
              | Some (x', _) -> src_walk x' target (step *. 2.0) (budget - 1)
              | None -> src_walk x s_done (step /. 2.0) (budget - 1)
            end
          in
          src_walk (zeros sim) 0.0 0.1 60)

let dc_operating_point ?(time = 0.0) sim =
  Cml_telemetry.Trace.with_span ~cat:"sim" "dc" (fun () ->
      match dc_homotopy sim ~time (zeros sim) with
      | Some x -> x
      | None -> raise (No_convergence "dc operating point"))

let dc_from ?(time = 0.0) sim x0 =
  Cml_telemetry.Trace.with_span ~cat:"sim" "dc" (fun () ->
      match newton sim ~time ~integ:Dcop x0 with
      | Some (x, _) -> x
      | None -> (
          match dc_homotopy sim ~time (zeros sim) with
          | Some x -> x
          | None -> raise (No_convergence "dc continuation")))

let init_capacitor_states sim x =
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    match sdevs.(di) with
    | SCap { i; j; cs; _ } ->
        cs.vprev <- vof x i -. vof x j;
        cs.iprev <- 0.0
    | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ()
  done

let update_capacitor_states sim x ~h ~trap =
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    match sdevs.(di) with
    | SCap { i; j; c; cs } ->
        let v = vof x i -. vof x j in
        let i_new =
          if trap then (2.0 *. c /. h *. (v -. cs.vprev)) -. cs.iprev
          else c /. h *. (v -. cs.vprev)
        in
        cs.vprev <- v;
        cs.iprev <- i_new
    | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ()
  done

let ac_system sim x =
  set_junction_states sim x;
  (* this assembly full-evaluates every junction into the backend
     matrix, refreshing the bypass caches: the factor and the
     previous-load fingerprint are both stale now *)
  sim.rt_loaded <- false;
  sim.rt_have_factor <- false;
  (* Bypass is off: the small-signal G must be the exact linearisation
     at [x], not a cached one.  G is read back over the recorded
     pattern (the backend's own CSC, or the dense matrix at the
     pattern's coordinates), never by probing every dense cell. *)
  assemble sim ~x ~time:0.0 ~integ:Dcop ~srcscale:1.0 ~gshunt:0.0 ~bypass:false;
  let a =
    match sim.backend with
    | BSparse { csc = Some a; _ } -> a
    | BSparse { csc = None; _ } -> assert false
    | BDense _ -> Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress sim.asm.trip)
  in
  let open Cml_numerics.Sparse in
  let g_entries =
    let acc = ref [] in
    for j = 0 to a.n - 1 do
      for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
        let v =
          match sim.backend with
          | BSparse _ -> a.values.(p)
          | BDense { m; _ } -> Cml_numerics.Dense.get m a.rowind.(p) j
        in
        if v <> 0.0 then acc := (a.rowind.(p), j, v) :: !acc
      done
    done;
    !acc
  in
  let c_entries =
    Array.fold_left
      (fun acc d ->
        match d with
        | SCap { i; j; c; _ } ->
            let add acc a bt v = if a >= 0 && bt >= 0 then (a, bt, v) :: acc else acc in
            add (add (add (add acc i i c) j j c) i j (-.c)) j i (-.c)
        | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> acc)
      [] sim.sdevs
  in
  (g_entries, c_entries)

type bjt_op = { q_name : string; vbe : float; vce : float; ic : float; ib : float }

let bjt_report sim x =
  let nvt = Models.boltzmann_vt in
  let rev =
    Array.fold_left
      (fun acc d ->
        match d with
        | SBjt { name; c; b; e; m; _ } ->
            let vbe = vof x b -. vof x e and vbc = vof x b -. vof x c in
            let ift, _ = junction_current ~is:m.Models.q_is ~nvt vbe in
            let irt, _ = junction_current ~is:m.Models.q_is ~nvt vbc in
            let ic = ift -. irt -. (irt /. m.Models.q_br) in
            let ib = (ift /. m.Models.q_bf) +. (irt /. m.Models.q_br) in
            { q_name = name; vbe; vce = vof x c -. vof x e; ic; ib } :: acc
        | SRes _ | SCap _ | SDiode _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> acc)
      [] sim.sdevs
  in
  List.rev rev
