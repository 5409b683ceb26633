(** Extraction quality against ground truth (Table 2).

    The paper could only spot-check its extractor by hand; the synthetic
    benchmarks carry exact labels, so we report proper cell-level
    precision/recall and group-level matching. *)

type t = {
  true_groups : int;
  found_groups : int;
  matched_groups : int;  (** found groups with cell-Jaccard >= 0.5 to some true group *)
  true_cells : int;
  found_cells : int;
  correct_cells : int;  (** found cells that are in some true group *)
  precision : float;  (** correct / found (1.0 when nothing found) *)
  recall : float;  (** correct / true (1.0 when nothing to find) *)
  f1 : float;
}

val compare_to_truth :
  truth:Dpp_netlist.Groups.t list -> found:Dpp_netlist.Groups.t list -> t
(** Linear time: O(S + C + I), where S is the total slot count of both
    group lists, C the largest member cell id, and I the number of
    (found member, true group containing it) incidences.  A cell -> true
    group index is built once, so each found group visits only the true
    groups it shares a cell with; the Jaccard ratio is the one
    {!Dpp_netlist.Groups.jaccard} computes, bit for bit. *)

val header : string list
val to_row : string -> t -> string list
(** First column is the design name. *)
