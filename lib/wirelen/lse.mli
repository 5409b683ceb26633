(** Log-sum-exp smooth wirelength (Naylor et al. patent; the NTUplace3
    objective).  Per net and axis,

    [W = gamma * (log sum exp(x/gamma) + log sum exp(-x/gamma))]

    which overestimates HPWL and converges to it as [gamma -> 0].  Both
    value and gradient are computed with max-subtraction so large
    coordinates never overflow. *)

val value : Pins.t -> gamma:float -> cx:float array -> cy:float array -> float
(** Weighted total over all nets. *)

val value_grad :
  Pins.t ->
  gamma:float ->
  cx:float array ->
  cy:float array ->
  gx:float array ->
  gy:float array ->
  float
(** Weighted total; per-cell-center gradients are {e accumulated} into
    [gx]/[gy] (callers zero them first).  Fixed cells receive gradient
    contributions too — the placer simply ignores those slots. *)

val upper_bound_gap : gamma:float -> degree:int -> float
(** Theoretical per-net, per-axis gap bound [gamma * log(degree)]:
    [hpwl <= lse <= hpwl + 2 * gap].  Used by tests. *)

val axis_value_grad :
  float array ->
  int ->
  gamma:float ->
  w:float array ->
  u:float array ->
  v:float array ->
  want_grad:bool ->
  float
(** The per-net, per-axis building block over the first [k] entries of a
    scratch buffer; with [want_grad] the softmax weights land in [w].
    Exposed for the batched finite-difference oracle — the per-axis
    arithmetic is {e exactly} what {!value_grad} and {!net_into} run. *)

val net_into :
  Pins.t ->
  gamma:float ->
  cx:float array ->
  cy:float array ->
  want_grad:bool ->
  net_val:float array ->
  pin_gx:float array ->
  pin_gy:float array ->
  int ->
  unit
(** [net_into view ... n] evaluates net [n] with {!value_grad}'s exact
    per-net arithmetic and {e stores} (does not accumulate) the results:
    the weighted value into [net_val.(n)] (0 for degree < 2) and, with
    [want_grad], each pin's weighted gradient into [pin_gx]/[pin_gy] at
    the pin's id.  {!Par_grad} runs it per net on worker domains, each
    with its own scratch [view]; the value never leaves this module as a
    boxed float. *)
