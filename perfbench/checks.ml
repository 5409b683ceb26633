(* Output checks, run outside every timed region.  Each returns the list
   of problems found; an empty list means the output is correct. *)

module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl

let violations label vs =
  match vs with
  | [] -> []
  | v :: _ ->
    [
      Printf.sprintf "%s: %d legality violations, first: %s" label (List.length vs)
        (String.concat "" (Dpp_check.Violation.strings [ v ]));
    ]

(* Legal, and the reported HPWL agrees within [tol] with the HPWL
   recomputed from the placed design (exactly, for an in-process result). *)
let placed ?(tol = 0.0) ~label (d : Design.t) ~hpwl =
  let cx, cy = Pins.centers_of_design d in
  let recomputed = Hpwl.total_of_design d in
  violations label (Dpp_check.legal d ~cx ~cy)
  @
  if Float.abs (recomputed -. hpwl) <= tol then []
  else [ Printf.sprintf "%s: reported HPWL %.17g, recomputed %.17g (tolerance %g)" label hpwl recomputed tol ]

(* The Bookshelf writer rounds every position and pin offset to 4 decimals,
   so each net's HPWL read back from a file may move by up to 4e-4 times
   its weight. *)
let file_tolerance (d : Design.t) =
  Array.fold_left (fun acc (n : Dpp_netlist.Types.net) -> acc +. (4e-4 *. n.n_weight)) 1e-9 d.Design.nets
