(** Abacus within-row placement (Spindler–Schlichtmann–Johannes): given the
    Tetris row assignment, re-place each row's cells at the minimum total
    squared displacement from their global-placement targets, by the
    classical cluster-merging dynamic program.  Runs independently per free
    segment, then snaps every cell to the site grid. *)

val run :
  Dpp_netlist.Soa.t ->
  ?extra_obstacles:Dpp_geom.Rect.t list ->
  ?skip:(int -> bool) ->
  target_cx:float array ->
  legal:Legal.t ->
  unit ->
  unit
(** Mutates [legal.cx] in place ([legal.cy] stays on row centers).
    [target_cx] are the GP centers the displacement is measured against. *)
