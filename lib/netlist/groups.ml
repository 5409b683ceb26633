type t = { g_name : string; g_rows : int array array }

let make name rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Groups.make: no slices";
  let stages = Array.length rows.(0) in
  if stages = 0 then invalid_arg "Groups.make: empty slices";
  Array.iter
    (fun r -> if Array.length r <> stages then invalid_arg "Groups.make: ragged rows")
    rows;
  { g_name = name; g_rows = rows }

let num_slices t = Array.length t.g_rows
let num_stages t = Array.length t.g_rows.(0)

let cell_ids t =
  let acc = ref [] in
  for s = num_slices t - 1 downto 0 do
    for k = num_stages t - 1 downto 0 do
      let c = t.g_rows.(s).(k) in
      if c >= 0 then acc := c :: !acc
    done
  done;
  Array.of_list !acc

let cell_count t =
  let n = ref 0 in
  Array.iter (fun row -> Array.iter (fun c -> if c >= 0 then incr n) row) t.g_rows;
  !n

let mem t id =
  if id < 0 then false
  else begin
    let found = ref false in
    Array.iter (fun row -> Array.iter (fun c -> if c = id then found := true) row) t.g_rows;
    !found
  end

let member_set t =
  let h = Hashtbl.create (cell_count t) in
  Array.iter (fun row -> Array.iter (fun c -> if c >= 0 then Hashtbl.replace h c ()) row) t.g_rows;
  h

let slice_of_cell t id =
  let result = ref None in
  Array.iteri
    (fun s row -> Array.iter (fun c -> if c = id && !result = None then result := Some s) row)
    t.g_rows;
  !result

let stage_of_cell t id =
  let result = ref None in
  Array.iter
    (fun row ->
      Array.iteri (fun k c -> if c = id && !result = None then result := Some k) row)
    t.g_rows;
  !result

let transpose t =
  let slices = num_slices t and stages = num_stages t in
  let rows = Array.init stages (fun k -> Array.init slices (fun s -> t.g_rows.(s).(k))) in
  { g_name = t.g_name; g_rows = rows }

let jaccard a b =
  let sa = member_set a and sb = member_set b in
  let inter = ref 0 in
  Hashtbl.iter (fun c () -> if Hashtbl.mem sb c then incr inter) sa;
  let union = Hashtbl.length sa + Hashtbl.length sb - !inter in
  if union = 0 then 0.0 else float_of_int !inter /. float_of_int union

type index = {
  ix_ptr : int array;
  ix_group : int array;
  ix_slice : int array;
  ix_size : int array;
}

let index groups =
  let ncells =
    1
    + List.fold_left
        (fun acc g -> Array.fold_left (fun acc row -> Array.fold_left max acc row) acc g.g_rows)
        (-1) groups
  in
  (* [seen.(c) = gi] once cell [c] has an entry for group [gi] *)
  let seen = Array.make ncells (-1) in
  let ptr = Array.make (ncells + 1) 0 in
  let size = Array.make (List.length groups) 0 in
  List.iteri
    (fun gi g ->
      Array.iter
        (Array.iter (fun c ->
             if c >= 0 && seen.(c) <> gi then begin
               seen.(c) <- gi;
               size.(gi) <- size.(gi) + 1;
               ptr.(c + 1) <- ptr.(c + 1) + 1
             end))
        g.g_rows)
    groups;
  for c = 0 to ncells - 1 do
    ptr.(c + 1) <- ptr.(c + 1) + ptr.(c)
  done;
  let group = Array.make ptr.(ncells) 0 and slice = Array.make ptr.(ncells) 0 in
  let next = Array.sub ptr 0 ncells in
  Array.fill seen 0 ncells (-1);
  List.iteri
    (fun gi g ->
      Array.iteri
        (fun s row ->
          Array.iter
            (fun c ->
              if c >= 0 then
                if seen.(c) = gi then slice.(next.(c) - 1) <- s
                else begin
                  seen.(c) <- gi;
                  group.(next.(c)) <- gi;
                  slice.(next.(c)) <- s;
                  next.(c) <- next.(c) + 1
                end)
            row)
        g.g_rows)
    groups;
  { ix_ptr = ptr; ix_group = group; ix_slice = slice; ix_size = size }

let pp ppf t =
  Format.fprintf ppf "group %s: %d slices x %d stages (%d cells)" t.g_name (num_slices t)
    (num_stages t) (cell_count t)
