(** Device model parameters.  The pn-junction maths that evaluates
    them ({!Engine.limexp}, {!Engine.junction_current},
    {!Engine.pnjlim}) lives in the engine, next to the assembler. *)

val boltzmann_vt : float
(** Thermal voltage kT/q at 300 K (about 25.85 mV). *)

type diode = {
  d_is : float;  (** saturation current (A) *)
  d_n : float;  (** emission coefficient *)
  d_cj : float;  (** junction capacitance (F), treated as constant *)
}

val default_diode : diode

type bjt = {
  q_is : float;  (** transport saturation current (A) *)
  q_bf : float;  (** forward beta *)
  q_br : float;  (** reverse beta *)
  q_cje : float;  (** base-emitter capacitance (F) *)
  q_cjc : float;  (** base-collector capacitance (F) *)
}

val default_bjt : bjt
