(** Compact scalar arrays (int32 / int8 / unboxed float64) over
    [Bigarray.Array1], for the flat netlist core's CSR connectivity and
    per-pin metadata.

    Payloads live outside the OCaml heap: the GC never scans them and
    they cost exactly 4, 1 or 8 bytes per element.  [get]/[set] are
    bounds-checked; [uget]/[uset] and [I32.unsafe_get] are the unchecked
    variants for hot kernels whose index ranges are correct by
    construction (CSR walks).  All accessors but [I32.unsafe_get]
    exchange plain [int]/[float] values.

    {b Why the unchecked accessors are [external]s.}  Dune's default dev
    profile (the one tests, CI and the repo benchmark build with) passes
    [-opaque], so no [val] is inlined across modules: every per-element
    call to a [val] accessor is an out-of-line call, and a [val]
    returning a float boxes it on the minor heap.  A [%caml_ba_*]
    primitive declared [external] is expanded at each call site under
    any build profile into a bare load or store.  Hot kernels therefore
    read CSR entries as [Int32.to_int (I32.unsafe_get a i)] (both halves
    are primitives) and floats through [F64.uget]/[uset]. *)

module I32 : sig
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  val max_value : int
  (** Largest storable value, [2{^31} - 1]. *)

  val guard : what:string -> int -> unit
  (** [guard ~what n] raises [Failure] with a message naming [what] and
      [n] when [n] does not fit an int32 — the fail-fast overflow gate
      for CSR offset construction. *)

  val make : int -> int -> t
  (** [make n v]: length-[n] array filled with [v]. *)

  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val uget : t -> int -> int
  val uset : t -> int -> int -> unit

  external unsafe_get : t -> int -> int32 = "%caml_ba_unsafe_ref_1"
  (** Unchecked raw load; [Int32.to_int (unsafe_get a i) = uget a i], but
      inlined at every call site — the per-element CSR read of the hot
      kernels. *)

  val of_array : what:string -> int array -> t
  (** Copies, passing every element through {!guard}. *)

  val to_array : t -> int array
  val blit_array : int array -> src_off:int -> t -> dst_off:int -> len:int -> unit
  val sub_array : t -> off:int -> len:int -> int array
end

module I8 : sig
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val make : int -> int -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  external uget : t -> int -> int = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
end

module F64 : sig
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  val make : int -> float -> t
  val length : t -> int
  val get : t -> int -> float
  val set : t -> int -> float -> unit
  external uget : t -> int -> float = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
  val of_array : float array -> t
  val to_array : t -> float array
end
