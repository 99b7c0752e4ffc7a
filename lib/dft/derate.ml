module V = Cml_defects.Variation
module Tel = Cml_telemetry

type model = {
  nominal_limit : int;
  droop_mv : float;
  sigma_droop : float;
  sigma_offset_mv : float;
  confidence : float;
}

(* Comparator offset scale: the read-out decides on a ~180 mV margin
   (nominal_limit x droop), and the dominant offset terms — beta and
   saturation-current mismatch between the feedback pair, load
   mismatch — each map a relative spread onto the decision node at
   roughly a VT-scale gain.  0.32 V per unit relative sigma is the
   single calibration constant; at the default spec it lands the
   derated limit on the paper's "three groups of fifteen" working
   point, and a tight quarter-micron spec recovers most of the
   nominal 45. *)
let k_offset_v = 0.33

let nominal_group_limit = 45

let of_spec ?(nominal_limit = nominal_group_limit) ?(confidence = 0.999) (spec : V.spec) =
  let q x = x *. x in
  {
    nominal_limit;
    droop_mv = 4.0;
    sigma_droop = sqrt (q spec.V.resistor_sigma +. q spec.V.beta_sigma);
    sigma_offset_mv =
      1000.0 *. k_offset_v
      *. sqrt (q spec.V.beta_sigma +. q spec.V.is_sigma +. q spec.V.resistor_sigma);
    confidence;
  }

let default = of_spec V.default_spec

type result = {
  model : model;
  samples : int;
  limits : int array;
  effective : int;
  mean_limit : float;
}

let m_samples = Tel.Metrics.counter "derate.samples"
let m_effective = Tel.Metrics.gauge "derate.effective_limit"

let gauss st =
  let rec u () =
    let x = Random.State.float st 1.0 in
    if x <= 1e-12 then u () else x
  in
  let u1 = u () in
  let u2 = Random.State.float st 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* One process sample: draw a comparator offset, then stack sensors
   onto the rail until their accumulated droop eats what the offset
   left of the nominal margin.  The count where it stops is the
   largest group this sample could share safely. *)
let sample_limit model st =
  let margin_mv = float_of_int model.nominal_limit *. model.droop_mv in
  let budget = margin_mv -. (model.sigma_offset_mv *. Float.abs (gauss st)) in
  let cap = (4 * model.nominal_limit) + 1 in
  let rec stack n consumed =
    if n >= cap then n
    else begin
      let droop = model.droop_mv *. exp (model.sigma_droop *. gauss st) in
      if consumed +. droop > budget then n else stack (n + 1) (consumed +. droop)
    end
  in
  stack 0 0.0

let effective_limit ?(samples = 2000) ?(seed = 42) ?jobs model =
  if samples < 1 then invalid_arg "Derate.effective_limit: samples < 1";
  (* each sample reseeds from its own index, so the limits array is
     identical at any job count *)
  let limits =
    Cml_runtime.Pool.parallel_map ?jobs
      (fun k -> sample_limit model (Random.State.make [| seed; k; 0xD047 |]))
      (Array.init samples Fun.id)
  in
  Tel.Metrics.add m_samples samples;
  Array.sort compare limits;
  let idx =
    let i = int_of_float (Float.round ((1.0 -. model.confidence) *. float_of_int samples)) in
    max 0 (min (samples - 1) i)
  in
  let effective = max 1 limits.(idx) in
  let mean_limit =
    Array.fold_left (fun acc n -> acc +. float_of_int n) 0.0 limits /. float_of_int samples
  in
  Tel.Metrics.set m_effective (float_of_int effective);
  { model; samples; limits; effective; mean_limit }
