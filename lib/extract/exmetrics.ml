module Groups = Dpp_netlist.Groups

type t = {
  true_groups : int;
  found_groups : int;
  matched_groups : int;
  true_cells : int;
  found_cells : int;
  correct_cells : int;
  precision : float;
  recall : float;
  f1 : float;
}

(* cells covered by [ix] (the index spans ids up to the largest member) *)
let span (ix : Groups.index) = Array.length ix.Groups.ix_ptr - 1
let covers (ix : Groups.index) c = c < span ix && ix.Groups.ix_ptr.(c + 1) > ix.Groups.ix_ptr.(c)

let count_cells n p =
  let k = ref 0 in
  for c = 0 to n - 1 do
    if p c then incr k
  done;
  !k

let compare_to_truth ~truth ~found =
  let tix = Groups.index truth and fix = Groups.index found in
  let nt = count_cells (span tix) (covers tix) and nf = count_cells (span fix) (covers fix) in
  let correct = count_cells (span fix) (fun c -> covers fix c && covers tix c) in
  (* per found group: count its intersection with each true group it
     touches, visiting only those through the truth index *)
  let tptr = tix.Groups.ix_ptr and tgroup = tix.Groups.ix_group in
  let nt_cells = span tix and nt_groups = List.length truth in
  let stamp = Array.make (span fix) (-1) in
  let inter = Array.make nt_groups 0 and seen = Array.make nt_groups (-1) in
  let touched = Array.make nt_groups 0 in
  let matched = ref 0 in
  List.iteri
    (fun f g ->
      let ntouched = ref 0 in
      Array.iter
        (Array.iter (fun c ->
             if c >= 0 && stamp.(c) <> f then begin
               stamp.(c) <- f;
               if c < nt_cells then
                 for k = tptr.(c) to tptr.(c + 1) - 1 do
                   let t = tgroup.(k) in
                   if seen.(t) <> f then begin
                     seen.(t) <- f;
                     inter.(t) <- 0;
                     touched.(!ntouched) <- t;
                     incr ntouched
                   end;
                   inter.(t) <- inter.(t) + 1
                 done
             end))
        g.Groups.g_rows;
      (* the ratio Groups.jaccard computes, so the >= 0.5 decision agrees *)
      let size = fix.Groups.ix_size.(f) in
      let hit = ref false in
      for k = 0 to !ntouched - 1 do
        let t = touched.(k) in
        let union = size + tix.Groups.ix_size.(t) - inter.(t) in
        if float_of_int inter.(t) /. float_of_int union >= 0.5 then hit := true
      done;
      if !hit then incr matched)
    found;
  let precision = if nf = 0 then 1.0 else float_of_int correct /. float_of_int nf in
  let recall = if nt = 0 then 1.0 else float_of_int correct /. float_of_int nt in
  let f1 =
    if precision +. recall <= 0.0 then 0.0 else 2.0 *. precision *. recall /. (precision +. recall)
  in
  {
    true_groups = nt_groups;
    found_groups = List.length found;
    matched_groups = !matched;
    true_cells = nt;
    found_cells = nf;
    correct_cells = correct;
    precision;
    recall;
    f1;
  }

let header =
  [ "design"; "#true-grp"; "#found-grp"; "#matched"; "#true-cells"; "#found-cells"; "prec"; "recall"; "F1" ]

let to_row name t =
  [
    name;
    string_of_int t.true_groups;
    string_of_int t.found_groups;
    string_of_int t.matched_groups;
    string_of_int t.true_cells;
    string_of_int t.found_cells;
    Printf.sprintf "%.3f" t.precision;
    Printf.sprintf "%.3f" t.recall;
    Printf.sprintf "%.3f" t.f1;
  ]
