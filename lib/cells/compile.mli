(** Compiler from gate-level [.bench] circuits ({!Cml_logic.Circuit})
    to transistor-level CML netlists.

    Every non-input net becomes a cell instance named after the net
    ({!Cml_logic.Circuit.net_names}: the declared output name when the
    net is a primary output, ["n<id>"] otherwise) — matching the site
    names [cmldft plan] derives from the same circuit, so a plan realizes
    directly on the compiled design ({!Cml_dft.Insertion.instrument_groups}).

    Gate mapping: AND/OR/XOR/MUX onto the series-gated {!Gates}
    library (OR by De Morgan on the free complements), BUF onto
    {!Buffer_cell}, NOT onto a free rail swap (registered as an alias
    cell, no devices), DFF onto the master-slave {!Latch.dff} driven
    by one global [clk] square input (the plain net name aliases the
    slave output).  Cells driving more than two loads are built with
    proportionally larger tail currents into proportionally smaller
    load resistors ({!drive_of_fanout}), preserving the swing. *)

exception Degenerate of string
(** A circuit with nothing to compile or attack; the payload says why
    (["circuit has no inputs"], ["circuit has no gates to attack"]). *)

type stimulus =
  | Toggle  (** complementary square wave at the compile frequency *)
  | Const of bool  (** static differential level *)

type t = {
  circuit : Cml_logic.Circuit.t;
  builder : Builder.t;
  nets : Builder.diff array;  (** per circuit net, its differential pair *)
  names : string array;  (** per circuit net, its instance name *)
  input : Builder.diff;  (** the toggling stimulus pair (or the first input) *)
  input_name : string;
  outputs : (string * Builder.diff) list;  (** declared outputs, in order *)
  freq : float;
}

val compile :
  ?proc:Process.t ->
  ?freq:float ->
  ?stimuli:(string * stimulus) list ->
  Cml_logic.Circuit.t ->
  t
(** Build the CML netlist.  [stimuli] assigns waveforms by primary
    input name (unlisted inputs default to [Const false]); the
    default drive toggles the first input and holds input [k] at
    [k land 1].
    @raise Degenerate if the circuit has no inputs. *)

val netlist : t -> Cml_spice.Netlist.t

val find_cell : t -> string -> Builder.diff option
(** Output pair of the named instance (logic-true polarity). *)

val physical : t -> string -> bool
(** Whether the named instance owns transistors of its own — false
    for inputs and free NOT aliases, whose defect-site enumeration
    would be empty. *)

val default_dut : t -> string
(** First gate in topological order that owns devices — the default
    defect-injection target.
    @raise Degenerate if the circuit has no gate (only inputs and
    flip-flops). *)

val default_output : t -> string
(** Last declared primary output (the deepest measurement point by
    [.bench] convention). *)

val stats : t -> int * int
(** [(physical cells, netlist devices)] of the compiled design. *)
