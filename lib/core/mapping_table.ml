type t = {
  entries : int;
  class_columns : int;
  mutable map : (int * int) list; (* cid -> column, newest first *)
}

let create ~entries ~class_columns =
  if entries < 1 then invalid_arg "Mapping_table.create: entries must be >= 1";
  if class_columns < 0 then invalid_arg "Mapping_table.create: negative class_columns";
  { entries; class_columns; map = [] }

let rec column_in map cid =
  match map with
  | [] -> -1
  | (c, col) :: rest -> if c = cid then col else column_in rest cid

let lookup t ~cid = column_in t.map cid

let column_mapped t col = List.exists (fun (_, c) -> c = col) t.map

let gc t ~column_busy =
  t.map <- List.filter (fun (_, col) -> column_busy col) t.map

let free_column t ~column_busy =
  let rec go col =
    if col >= t.class_columns then None
    else if (not (column_mapped t col)) && not (column_busy col) then Some col
    else go (col + 1)
  in
  go 0

let lookup_or_allocate t ~cid ~column_busy =
  match lookup t ~cid with
  | -1 ->
    if t.class_columns = 0 then None
    else begin
      if List.length t.map >= t.entries then gc t ~column_busy;
      if List.length t.map >= t.entries then None
      else begin
        let col =
          match free_column t ~column_busy with
          | Some col -> col
          | None -> t.class_columns - 1 (* designated shared overflow column *)
        in
        t.map <- (cid, col) :: t.map;
        Some col
      end
    end
  | col -> Some col

let cid_of_column t ~column =
  List.find_map (fun (cid, col) -> if col = column then Some cid else None) t.map

let occupancy t = List.length t.map
let mappings t = t.map

let set_mappings t map =
  if List.length map > t.entries then invalid_arg "Mapping_table.set_mappings: overflow";
  t.map <- map
