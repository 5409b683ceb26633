(** Initial quadratic placement: minimise a quadratic net model with the
    fixed cells (pads, macros) as boundary conditions, solved per axis with
    Jacobi-PCG over the connectivity Laplacian.

    Net model: clique for nets of up to 4 cells (weight [1/(k-1)]), a
    Hamiltonian-cycle chain for larger nets (weight [2/k]) — the standard
    cheap star/clique compromise.  A weak anchor to the die center keeps
    the system positive definite for designs with no fixed pins, and a
    deterministic jitter of one site breaks the exact-overlap degeneracy
    the density model cannot see. *)

type result = {
  cx : float array;  (** cell centers, all cells (fixed untouched) *)
  cy : float array;
  iterations_x : int;
  iterations_y : int;
  converged_x : bool;  (** false when the axis stopped at {!max_iter} *)
  converged_y : bool;
  residual_x : float;  (** final PCG residual norm [||b - A x||] *)
  residual_y : float;
}

val max_iter : int
(** PCG iteration cap per axis (600). *)

val run :
  ?seed:int -> ?pool:Dpp_par.Pool.t -> soa:Dpp_netlist.Soa.t -> Dpp_netlist.Design.t -> result
(** [soa] must be the flat view of the design; the net model walks its
    deduplicated adjacency.

    Both axes share one matrix.  With a [pool] of two or more workers
    (default {!Dpp_par.Pool.serial}) the x solve runs on worker 0 and the
    y solve on worker 1 at the same time; with one worker they run one
    after the other.  Each solve is sequential and reads only its own
    right-hand side, so the result is bit-identical at every worker
    count.  Must not be called from inside a job of the same [pool]. *)
