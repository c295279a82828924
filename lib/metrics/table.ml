type t = { columns : string list; mutable rows : string list list (* newest first *) }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then invalid_arg "Table.add_row: width mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length c) rows)
      t.columns
  in
  let line cells =
    let padded = List.map2 (fun cell w -> Printf.sprintf "%-*s" w cell) cells widths in
    String.concat "  " padded
  in
  let rule = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line t.columns :: rule :: List.map line rows)

let csv_cell cell =
  let needs_quoting = String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell in
  if not needs_quoting then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let line cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n" (line t.columns :: List.map line (List.rev t.rows)) ^ "\n"

(* The plot area, in characters. *)
let width = 60

let height = 24

let scatter ~xlabel ~ylabel points =
  match points with
  | [] -> "(no points)"
  | _ ->
      let xs = List.map fst points and ys = List.map snd points in
      let hi =
        List.fold_left Float.max neg_infinity (xs @ ys) |> fun v -> if v <= 0.0 then 1.0 else v
      in
      let grid = Array.make_matrix height width ' ' in
      let cell_x v = min (width - 1) (int_of_float (v /. hi *. float_of_int (width - 1))) in
      let cell_y v = min (height - 1) (int_of_float (v /. hi *. float_of_int (height - 1))) in
      (* Diagonal y = x. *)
      for col = 0 to width - 1 do
        let v = float_of_int col /. float_of_int (width - 1) *. hi in
        let row = cell_y v in
        grid.(height - 1 - row).(col) <- '.'
      done;
      List.iter
        (fun (x, y) ->
          let col = cell_x x and row = cell_y y in
          let c = if grid.(height - 1 - row).(col) = '.' then 'o' else '*' in
          grid.(height - 1 - row).(col) <- c)
        points;
      let buf = Buffer.create ((width + 4) * (height + 3)) in
      Buffer.add_string buf (Printf.sprintf "%s (vertical) vs %s (horizontal); scale 0..%.3g\n" ylabel xlabel hi);
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.contents buf
