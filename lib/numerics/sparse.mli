(** Sparse matrices for MNA systems.

    The workflow mirrors a circuit simulator: device stamps are
    accumulated into a {!triplet} buffer once, the structural pattern
    is then {!compress}ed into a column-compressed ({!csc}) matrix,
    and on subsequent Newton iterations the caller adds each entry's
    new value straight into the CSC [values] at the position
    {!slots} gives it (the pattern of an MNA system never changes
    between iterations). *)

type triplet
(** Append-only (row, col, value) buffer.  Duplicate coordinates are
    legal and are summed at compression time. *)

val triplet_create : int -> triplet
(** [triplet_create n] is an empty buffer for an [n] x [n] matrix. *)

val triplet_dim : triplet -> int

val triplet_clear : triplet -> unit
(** Forget all entries (the dimension is kept). *)

val triplet_count : triplet -> int
(** Number of entries appended so far. *)

val add : triplet -> int -> int -> float -> unit
(** [add t i j v] appends entry [(i, j, v)].  Indices must lie in
    [0 .. n-1]. *)

type csc = {
  n : int;
  colptr : int array;  (** length [n+1] *)
  rowind : int array;  (** row index of each stored entry *)
  values : float array;  (** numeric value of each stored entry *)
}
(** Compressed sparse column storage with sorted, duplicate-free rows
    within each column. *)

type pattern
(** The result of symbolic compression: a [csc] skeleton plus the map
    from triplet entries to stored positions. *)

val compress : triplet -> pattern
(** Build the pattern and the initial numeric values from the current
    triplet contents.  Duplicates are summed in the order the row sort
    leaves them in, starting from the first of them, so the values
    can differ from re-stamping the same sequence onto zeros through
    {!slots}: in the last bit with three or more duplicates, and in
    the sign of a zero sum. *)

val csc_of_pattern : pattern -> csc
(** The underlying matrix (shared, not copied: callers refresh its
    [values] in place, which keeps it usable for
    {!Sparse_lu.refactorize}). *)

val slots : pattern -> int array
(** [slots p] maps each triplet entry [k] of the compressed sequence
    to the position in [(csc_of_pattern p).values] it accumulates
    into (a fresh copy). *)

val mul_vec : csc -> float array -> float array
(** Matrix-vector product. *)

val to_dense : csc -> Dense.t
(** Expansion, for tests and debugging. *)

val nnz : csc -> int
(** Stored entry count. *)
