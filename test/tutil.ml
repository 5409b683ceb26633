(* Shared helpers for the test suite: small random designs and a finite
   difference gradient checker. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Rng = Dpp_util.Rng

(* A random movable-only design: [cells] cells of 2..6 sites, [nets] random
   nets of degree 2..5, positions scattered in the die. *)
let random_design ?(cells = 12) ?(nets = 10) ?(die_w = 60.0) ?(die_rows = 6) seed =
  let rng = Rng.create seed in
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:die_w ~yh:(10.0 *. float_of_int die_rows) in
  let b = Builder.create ~name:"rand" ~die ~row_height:10.0 ~site_width:1.0 () in
  let pins = ref [] in
  for k = 0 to cells - 1 do
    let w = float_of_int (2 + Rng.int rng 5) in
    let id =
      Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"X" ~w ~h:10.0
        ~kind:Types.Movable
    in
    (* two pins per cell at distinct offsets *)
    let p1 = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:(w /. 4.0) ~dy:3.0 () in
    let p2 = Builder.add_pin b ~cell:id ~dir:Types.Output ~dx:(3.0 *. w /. 4.0) ~dy:7.0 () in
    pins := p2 :: p1 :: !pins;
    Builder.set_position b id
      ~x:(Rng.float rng (die_w -. w))
      ~y:(float_of_int (Rng.int rng die_rows) *. 10.0)
  done;
  let pin_pool = Array.of_list !pins in
  Rng.shuffle rng pin_pool;
  let cursor = ref 0 in
  let take () =
    if !cursor < Array.length pin_pool then begin
      let p = pin_pool.(!cursor) in
      incr cursor;
      Some p
    end
    else None
  in
  for _ = 1 to nets do
    let deg = 2 + Rng.int rng 4 in
    let ps = List.filter_map (fun _ -> take ()) (List.init deg Fun.id) in
    if List.length ps >= 2 then ignore (Builder.add_net b ps)
  done;
  Builder.finish b

(* Central finite difference check of an analytic gradient.
   [value_grad cx cy gx gy] must return the objective and accumulate
   gradients; returns the max relative error over all movable coords. *)
let gradient_error d ~value_grad =
  let nc = Design.num_cells d in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  ignore (value_grad ~cx ~cy ~gx ~gy);
  let eps = 1e-5 in
  let value ~cx ~cy =
    let zx = Array.make nc 0.0 and zy = Array.make nc 0.0 in
    value_grad ~cx ~cy ~gx:zx ~gy:zy
  in
  let max_err = ref 0.0 in
  let check arr g i =
    let saved = arr.(i) in
    arr.(i) <- saved +. eps;
    let fp = value ~cx ~cy in
    arr.(i) <- saved -. eps;
    let fm = value ~cx ~cy in
    arr.(i) <- saved;
    let numeric = (fp -. fm) /. (2.0 *. eps) in
    let denom = max 1.0 (abs_float numeric) in
    let err = abs_float (numeric -. g.(i)) /. denom in
    if err > !max_err then max_err := err
  in
  Array.iter
    (fun i ->
      check cx gx i;
      check cy gy i)
    (Design.movable_ids d);
  !max_err

(* The xl10k preset at its generated placement: the GP kernels' size
   class, for the allocation gates. *)
let xl10k =
  lazy
    (match Dpp_gen.Xl.by_name "xl10k" with
    | Some d -> d
    | None -> failwith "xl10k preset missing")

(* Minor-heap words one call of [f] allocates, averaged over [calls] calls
   after a warm-up call (lazy buffers, helper-domain spawn).  OCaml 5's
   [Gc.minor_words] counts the {e calling domain} only: work a pool runs
   on its helper domains is not included, so a pooled kernel is measured
   on the share its caller executes. *)
let minor_words_per_call ?(calls = 4) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* The allocation gate of the GP hot kernels: at most this many minor
   words per call.  A kernel that boxes one float per net, pin or bin
   allocates tens of thousands of words per call at xl10k, so one
   re-boxed accessor or helper trips it. *)
let kernel_word_budget = 256.0

let check_kernel_alloc name f =
  let w = minor_words_per_call f in
  if w > kernel_word_budget then
    Alcotest.failf "%s allocates %.0f minor words per call (budget %.0f)" name w
      kernel_word_budget
