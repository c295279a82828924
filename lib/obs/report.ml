(* Structured run reports.  See the interface for the model; this file is
   the projection from merged Metrics snapshots plus three encoders (JSON,
   ASCII tables, HTML dashboard).  Everything is deterministic: association
   lists keep Metrics.snapshot's sorted-name order, JSON member order is
   fixed, and the renderers iterate those lists in order — equal reports
   produce byte-identical output. *)

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_p999 : float;
  d_rel_err : float;
}

type variant = {
  v_name : string;
  v_attrs : (string * string) list;
  v_counts : (string * int) list;
  v_values : (string * float) list;
  v_dists : (string * dist) list;
  v_series : (string * Series.view) list;
}

type t = { r_title : string; r_meta : (string * string) list; r_variants : variant list }

let dist_of_summary (s : Sketch.summary) =
  {
    d_count = s.Sketch.s_count;
    d_sum = s.Sketch.s_sum;
    d_min = s.Sketch.s_min;
    d_max = s.Sketch.s_max;
    d_p50 = Sketch.summary_quantile s 0.50;
    d_p90 = Sketch.summary_quantile s 0.90;
    d_p99 = Sketch.summary_quantile s 0.99;
    d_p999 = Sketch.summary_quantile s 0.999;
    d_rel_err = Sketch.summary_rel_error s;
  }

let of_metrics ~name ?(attrs = []) m =
  let counts = ref [] and values = ref [] and dists = ref [] and series = ref [] in
  List.iter
    (fun (mname, v) ->
      match v with
      | Metrics.Counter_value n -> counts := (mname, n) :: !counts
      | Metrics.Gauge_value { last; max } ->
          if Float.is_finite last then values := (mname, last) :: !values;
          if Float.is_finite max && max <> last then
            values := (mname ^ ".max", max) :: !values
      | Metrics.Sketch_value s ->
          if s.Sketch.s_count > 0 then dists := (mname, dist_of_summary s) :: !dists
      | Metrics.Series_value view -> series := (mname, view) :: !series)
    (Metrics.snapshot m);
  (* Snapshot order is sorted by name; suffixed entries (name.max) can land
     out of order, so re-sort each projection. *)
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev l) in
  {
    v_name = name;
    v_attrs = attrs;
    v_counts = by_name !counts;
    v_values = by_name !values;
    v_dists = by_name !dists;
    v_series = by_name !series;
  }

let make ~title ?(meta = []) variants = { r_title = title; r_meta = meta; r_variants = variants }

(* -- Collectors --------------------------------------------------------- *)

type collector = {
  c_lock : Mutex.t;
  mutable c_variants : (string * Metrics.t) list; (* reverse registration order *)
}

let collector () = { c_lock = Mutex.create (); c_variants = [] }

let variant_metrics c name =
  Mutex.lock c.c_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.c_lock)
    (fun () ->
      match List.assoc_opt name c.c_variants with
      | Some m -> m
      | None ->
          let m = Metrics.create () in
          c.c_variants <- (name, m) :: c.c_variants;
          m)

let collected c =
  Mutex.lock c.c_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.c_lock)
    (fun () -> List.rev c.c_variants)

let of_collector ~title ?meta c =
  make ~title ?meta (List.map (fun (name, m) -> of_metrics ~name m) (collected c))

(* -- JSON --------------------------------------------------------------- *)

let schema_version = 1.0

let str_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l)

let json_of_dist d =
  Json.Obj
    [
      ("count", Json.Num (float_of_int d.d_count));
      ("sum", Json.Num d.d_sum);
      ("min", Json.Num d.d_min);
      ("max", Json.Num d.d_max);
      ("p50", Json.Num d.d_p50);
      ("p90", Json.Num d.d_p90);
      ("p99", Json.Num d.d_p99);
      ("p999", Json.Num d.d_p999);
      ("rel_err", Json.Num d.d_rel_err);
    ]

let json_of_series (v : Series.view) =
  Json.Obj
    [
      ("kind", Json.Str (match v.Series.v_kind with Series.Sum -> "sum" | Series.Last -> "last"));
      ("interval", Json.Num v.Series.v_interval);
      ( "points",
        Json.List (List.map (fun (t, x) -> Json.List [ Json.Num t; Json.Num x ]) v.Series.v_points) );
      ("dropped", Json.Num (float_of_int v.Series.v_dropped));
    ]

let json_of_variant v =
  Json.Obj
    [
      ("name", Json.Str v.v_name);
      ("attrs", str_obj v.v_attrs);
      ("counts", Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) v.v_counts));
      ("values", Json.Obj (List.map (fun (k, x) -> (k, Json.Num x)) v.v_values));
      ("dists", Json.Obj (List.map (fun (k, d) -> (k, json_of_dist d)) v.v_dists));
      ("series", Json.Obj (List.map (fun (k, s) -> (k, json_of_series s)) v.v_series));
    ]

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Num schema_version);
      ("title", Json.Str r.r_title);
      ("meta", str_obj r.r_meta);
      ("variants", Json.List (List.map json_of_variant r.r_variants));
    ]

let fail fmt = Printf.ksprintf invalid_arg fmt

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "Report.of_json: missing member %S" name

let num name j =
  match Json.to_num (get name j) with
  | Some f -> f
  | None -> fail "Report.of_json: member %S is not a number" name

(* An integral number an [int] holds: [int_of_float] of anything larger is
   unspecified (it read [1e300] as 0). *)
let to_int f = if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then Some (int_of_float f) else None

let int_mem name j =
  match to_int (num name j) with
  | Some n -> n
  | None -> fail "Report.of_json: member %S is not an integer" name

(* An object member's own members: any other value is ill-typed, never an
   empty object. *)
let obj name j =
  match get name j with
  | Json.Obj members -> members
  | _ -> fail "Report.of_json: member %S is not an object" name

let str name j =
  match Json.to_str (get name j) with
  | Some s -> s
  | None -> fail "Report.of_json: member %S is not a string" name

let str_assoc name j =
  List.map
    (fun (k, v) ->
      match Json.to_str v with
      | Some s -> (k, s)
      | None -> fail "Report.of_json: %S entry %S is not a string" name k)
    (obj name j)

let dist_of_json j =
  {
    d_count = int_mem "count" j;
    d_sum = num "sum" j;
    d_min = num "min" j;
    d_max = num "max" j;
    d_p50 = num "p50" j;
    d_p90 = num "p90" j;
    d_p99 = num "p99" j;
    d_p999 = num "p999" j;
    d_rel_err = num "rel_err" j;
  }

let series_of_json j =
  let kind =
    match str "kind" j with
    | "sum" -> Series.Sum
    | "last" -> Series.Last
    | k -> fail "Report.of_json: unknown series kind %S" k
  in
  let points =
    match get "points" j with
    | Json.List l ->
        List.map
          (function
            | Json.List [ Json.Num t; Json.Num v ] -> (t, v)
            | _ -> fail "Report.of_json: series point is not a [t, v] pair")
          l
    | _ -> fail "Report.of_json: member \"points\" is not a list"
  in
  {
    Series.v_kind = kind;
    v_interval = num "interval" j;
    v_points = points;
    v_dropped = int_mem "dropped" j;
  }

let variant_of_json j =
  {
    v_name = str "name" j;
    v_attrs = str_assoc "attrs" j;
    v_counts =
      List.map
        (fun (k, v) ->
          match Option.bind (Json.to_num v) to_int with
          | Some n -> (k, n)
          | None -> fail "Report.of_json: count %S is not an integer" k)
        (obj "counts" j);
    v_values =
      List.map
        (fun (k, v) ->
          match Json.to_num v with
          | Some f -> (k, f)
          | None -> fail "Report.of_json: value %S is not a number" k)
        (obj "values" j);
    v_dists = List.map (fun (k, v) -> (k, dist_of_json v)) (obj "dists" j);
    v_series = List.map (fun (k, v) -> (k, series_of_json v)) (obj "series" j);
  }

let of_json j =
  let v = num "schema_version" j in
  if v <> schema_version then fail "Report.of_json: unsupported schema_version %g" v;
  let variants =
    match get "variants" j with
    | Json.List l -> List.map variant_of_json l
    | _ -> fail "Report.of_json: member \"variants\" is not a list"
  in
  { r_title = str "title" j; r_meta = str_assoc "meta" j; r_variants = variants }

let to_string ?minify r = Json.to_string ?minify (to_json r)

let of_string s = of_json (Json.parse s)

(* -- Shared renderer helpers -------------------------------------------- *)

let fg = Printf.sprintf "%g"

(* Row names appearing in any variant, first-seen order (the lists are
   already name-sorted per variant, so this is sorted too). *)
let row_names project variants =
  List.fold_left
    (fun acc v ->
      List.fold_left
        (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
        acc (project v))
    [] variants
  |> List.sort String.compare

let mean d = if d.d_count = 0 then 0.0 else d.d_sum /. float_of_int d.d_count

(* -- ASCII renderer ------------------------------------------------------ *)

let spark_levels = " .:-=+*#%@"

(* Downsample a series to at most [width] cells over its bucket span and
   map values onto the ten ASCII levels.  [lo]/[hi] give the shared scale
   (so variants of the same series are comparable). *)
let ascii_spark ?(width = 40) ~lo ~hi (v : Series.view) =
  match v.Series.v_points with
  | [] -> ""
  | pts ->
      let t0 = fst (List.hd pts) in
      let t1 = fst (List.nth pts (List.length pts - 1)) in
      let span_buckets = int_of_float ((t1 -. t0) /. v.Series.v_interval) + 1 in
      let cells = min width span_buckets in
      let acc = Array.make cells nan in
      List.iter
        (fun (t, x) ->
          let frac = if t1 = t0 then 0.0 else (t -. t0) /. (t1 -. t0) in
          let c = min (cells - 1) (int_of_float (frac *. float_of_int cells)) in
          (* Sum cells add their points; Last cells keep the latest. *)
          match v.Series.v_kind with
          | Series.Sum -> acc.(c) <- (if Float.is_nan acc.(c) then x else acc.(c) +. x)
          | Series.Last -> acc.(c) <- x)
        pts;
      let range = hi -. lo in
      String.init cells (fun i ->
          if Float.is_nan acc.(i) then ' '
          else
            let frac = if range <= 0.0 then 1.0 else (acc.(i) -. lo) /. range in
            let l = int_of_float (frac *. 9.0) in
            spark_levels.[max 0 (min 9 l)])

let series_scale variants name =
  (* Shared [lo, hi] across every variant's instance of series [name]. *)
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun v ->
      match List.assoc_opt name v.v_series with
      | None -> ()
      | Some view ->
          List.iter
            (fun (_, x) ->
              if x < !lo then lo := x;
              if x > !hi then hi := x)
            view.Series.v_points)
    variants;
  let lo = if !lo = infinity then 0.0 else Float.min 0.0 !lo in
  let hi = if !hi = neg_infinity then 1.0 else !hi in
  (lo, hi)

let render_ascii r =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "run report: %s\n" r.r_title;
  if r.r_meta <> [] then
    pr "  %s\n" (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ v) r.r_meta));
  let variants = r.r_variants in
  let vname_w =
    List.fold_left (fun w v -> max w (String.length v.v_name)) (String.length "variant") variants
  in
  (* Scalar tables: one row per metric name, one column per variant. *)
  let table title project render_cell =
    let names = row_names project variants in
    if names <> [] then begin
      pr "\n%s\n" title;
      let name_w = List.fold_left (fun w n -> max w (String.length n)) 0 names in
      let cell_w = max 10 (vname_w + 1) in
      pr "  %-*s" name_w "";
      List.iter (fun v -> pr " %*s" cell_w v.v_name) variants;
      pr "\n";
      List.iter
        (fun n ->
          pr "  %-*s" name_w n;
          List.iter
            (fun v ->
              let cell =
                match List.assoc_opt n (project v) with
                | Some x -> render_cell x
                | None -> "-"
              in
              pr " %*s" cell_w cell)
            variants;
          pr "\n")
        names
    end
  in
  table "counters" (fun v -> v.v_counts) string_of_int;
  table "values" (fun v -> v.v_values) fg;
  (* Distributions: a block per metric, a row per variant. *)
  let dist_names = row_names (fun v -> v.v_dists) variants in
  if dist_names <> [] then begin
    pr "\ndistributions%*s %8s %9s %9s %9s %9s %9s %9s\n"
      (max 0 (vname_w - 9)) "" "n" "mean" "p50" "p90" "p99" "p999" "max";
    List.iter
      (fun n ->
        let err =
          match
            List.find_map (fun v -> List.assoc_opt n v.v_dists) variants
          with
          | Some d -> Printf.sprintf " (est ±%.1f%%)" (100.0 *. d.d_rel_err)
          | None -> ""
        in
        pr "  %s%s\n" n err;
        List.iter
          (fun v ->
            match List.assoc_opt n v.v_dists with
            | None -> ()
            | Some d ->
                pr "    %-*s %8d %9s %9s %9s %9s %9s %9s\n" vname_w v.v_name d.d_count
                  (fg (mean d)) (fg d.d_p50) (fg d.d_p90) (fg d.d_p99) (fg d.d_p999)
                  (fg d.d_max))
          variants)
      dist_names
  end;
  (* Series: a block per metric, a sparkline per variant on a shared scale. *)
  let series_names = row_names (fun v -> v.v_series) variants in
  if series_names <> [] then begin
    pr "\nseries\n";
    List.iter
      (fun n ->
        let lo, hi = series_scale variants n in
        pr "  %s  [scale %s..%s]\n" n (fg lo) (fg hi);
        List.iter
          (fun v ->
            match List.assoc_opt n v.v_series with
            | None -> ()
            | Some view ->
                let pts = view.Series.v_points in
                let dropped =
                  if view.Series.v_dropped > 0 then
                    Printf.sprintf " (%d dropped)" view.Series.v_dropped
                  else ""
                in
                pr "    %-*s |%s| %d pts%s\n" vname_w v.v_name
                  (ascii_spark ~lo ~hi view) (List.length pts) dropped)
          variants)
      series_names
  end;
  Buffer.contents buf

(* -- HTML renderer ------------------------------------------------------- *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  buf

let esc s = Buffer.contents (html_escape s)

(* Categorical slots (reference palette, fixed order, never cycled);
   variants beyond the eighth wear the muted ink. *)
let palette_light =
  [| "#2a78d6"; "#eb6834"; "#1baf7a"; "#eda100"; "#e87ba4"; "#008300"; "#4a3aa7"; "#e34948" |]

let palette_dark =
  [| "#3987e5"; "#d95926"; "#199e70"; "#c98500"; "#d55181"; "#008300"; "#9085e9"; "#e66767" |]

let style_block nvariants =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let slots = min nvariants (Array.length palette_light) in
  pr "<style>\n";
  pr ":root { color-scheme: light dark; }\n";
  pr "body { margin: 0; background: #f9f9f7; }\n";
  pr ".viz-root {\n  color-scheme: light;\n";
  pr "  --surface-1: #fcfcfb;\n  --text-primary: #0b0b0b;\n";
  pr "  --text-secondary: #52514e;\n  --text-muted: #898781;\n";
  pr "  --grid: #e1e0d9;\n  --baseline: #c3c2b7;\n";
  pr "  --border: rgba(11,11,11,0.10);\n";
  for i = 0 to slots - 1 do
    pr "  --series-%d: %s;\n" (i + 1) palette_light.(i)
  done;
  pr "}\n";
  pr "@media (prefers-color-scheme: dark) {\n";
  pr "  body { background: #0d0d0d; }\n";
  pr "  .viz-root {\n    color-scheme: dark;\n";
  pr "    --surface-1: #1a1a19;\n    --text-primary: #ffffff;\n";
  pr "    --text-secondary: #c3c2b7;\n    --text-muted: #898781;\n";
  pr "    --grid: #2c2c2a;\n    --baseline: #383835;\n";
  pr "    --border: rgba(255,255,255,0.10);\n";
  for i = 0 to slots - 1 do
    pr "    --series-%d: %s;\n" (i + 1) palette_dark.(i)
  done;
  pr "  }\n}\n";
  pr
    ".viz-root { font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif;\n\
    \  color: var(--text-primary); background: var(--surface-1);\n\
    \  max-width: 72rem; margin: 1.5rem auto; padding: 1.5rem 2rem;\n\
    \  border: 1px solid var(--border); border-radius: 8px; }\n";
  pr "h1 { font-size: 1.3rem; margin: 0 0 0.25rem; }\n";
  pr "h2 { font-size: 1.05rem; margin: 1.75rem 0 0.5rem; }\n";
  pr "h3 { font-size: 0.9rem; font-weight: 600; margin: 1rem 0 0.25rem; }\n";
  pr ".meta, .err, .sub { color: var(--text-secondary); font-size: 0.8rem; }\n";
  pr ".legend { display: flex; flex-wrap: wrap; gap: 0.25rem 1rem; margin: 0.75rem 0; }\n";
  pr ".legend span { font-size: 0.85rem; color: var(--text-secondary); }\n";
  pr
    ".swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px;\n\
    \  margin-right: 0.4rem; vertical-align: baseline; }\n";
  pr "table { border-collapse: collapse; font-size: 0.85rem; }\n";
  pr
    "th, td { text-align: right; padding: 0.25rem 0.75rem; border-bottom: 1px solid var(--grid);\n\
    \  font-variant-numeric: tabular-nums; color: var(--text-primary); }\n";
  pr "th { color: var(--text-muted); font-weight: 500; }\n";
  pr "th:first-child, td:first-child { text-align: left; }\n";
  pr ".cards { display: flex; flex-wrap: wrap; gap: 1rem; }\n";
  pr
    ".card { border: 1px solid var(--grid); border-radius: 6px; padding: 0.5rem 0.75rem;\n\
    \  min-width: 17rem; }\n";
  pr ".card .name { font-size: 0.8rem; color: var(--text-secondary); }\n";
  pr ".spark polyline { fill: none; stroke-width: 2; }\n";
  pr ".spark .baseline { stroke: var(--baseline); stroke-width: 1; }\n";
  pr ".spark .hit { fill: transparent; }\n";
  pr "details { margin-top: 0.4rem; font-size: 0.8rem; color: var(--text-secondary); }\n";
  pr "summary { cursor: pointer; }\n";
  pr "footer { margin-top: 2rem; font-size: 0.75rem; color: var(--text-muted); }\n";
  pr "</style>\n";
  Buffer.contents buf

let variant_color i =
  if i < Array.length palette_light then Printf.sprintf "var(--series-%d)" (i + 1)
  else "var(--text-muted)"

(* One sparkline card: an inline SVG polyline on the shared [lo, hi] scale,
   per-point hover targets with native tooltips, and a data table behind a
   disclosure. *)
let html_spark buf ~color ~lo ~hi (view : Series.view) =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let w = 260.0 and h = 56.0 and pad = 4.0 in
  match view.Series.v_points with
  | [] -> pr "<p class=\"sub\">no samples</p>\n"
  | pts ->
      let t0 = fst (List.hd pts) in
      let t1 = fst (List.nth pts (List.length pts - 1)) in
      let x t = if t1 = t0 then w /. 2.0 else pad +. ((t -. t0) /. (t1 -. t0) *. (w -. (2.0 *. pad))) in
      let y v =
        let range = hi -. lo in
        let frac = if range <= 0.0 then 0.5 else (v -. lo) /. range in
        h -. pad -. (frac *. (h -. (2.0 *. pad)))
      in
      pr "<svg class=\"spark\" viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\" role=\"img\">\n" w h w h;
      pr "<line class=\"baseline\" x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\"/>\n" pad (y lo)
        (w -. pad) (y lo);
      pr "<polyline stroke=\"%s\" points=\"" color;
      List.iter (fun (t, v) -> pr "%.1f,%.1f " (x t) (y v)) pts;
      pr "\"/>\n";
      List.iter
        (fun (t, v) ->
          pr "<circle class=\"hit\" cx=\"%.1f\" cy=\"%.1f\" r=\"6\"><title>t=%s: %s</title></circle>\n"
            (x t) (y v) (fg t) (fg v))
        pts;
      pr "</svg>\n";
      let dropped =
        if view.Series.v_dropped > 0 then Printf.sprintf ", %d dropped" view.Series.v_dropped
        else ""
      in
      pr "<div class=\"sub\">%d pts, t %s..%s%s</div>\n" (List.length pts) (fg t0) (fg t1) dropped;
      pr "<details><summary>data</summary><table><tr><th>t</th><th>value</th></tr>\n";
      List.iter (fun (t, v) -> pr "<tr><td>%s</td><td>%s</td></tr>\n" (fg t) (fg v)) pts;
      pr "</table></details>\n"

let render_html r =
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let variants = r.r_variants in
  let slot = List.mapi (fun i v -> (v.v_name, i)) variants in
  let color_of name = variant_color (List.assoc name slot) in
  pr "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n";
  pr "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\"/>\n";
  pr "<title>%s</title>\n" (esc r.r_title);
  Buffer.add_string buf (style_block (List.length variants));
  pr "</head>\n<body>\n<div class=\"viz-root\">\n";
  pr "<header><h1>%s</h1>\n" (esc r.r_title);
  if r.r_meta <> [] then
    pr "<p class=\"meta\">%s</p>\n"
      (String.concat " &middot; "
         (List.map (fun (k, v) -> esc k ^ "=" ^ esc v) r.r_meta));
  pr "</header>\n";
  if variants <> [] then begin
    pr "<div class=\"legend\">\n";
    List.iter
      (fun v ->
        let attrs =
          if v.v_attrs = [] then ""
          else
            " ("
            ^ String.concat ", " (List.map (fun (k, x) -> esc k ^ "=" ^ esc x) v.v_attrs)
            ^ ")"
        in
        pr "<span><i class=\"swatch\" style=\"background:%s\"></i>%s%s</span>\n"
          (color_of v.v_name) (esc v.v_name) attrs)
      variants;
    pr "</div>\n"
  end;
  (* Distributions: a comparison table per metric. *)
  let dist_names = row_names (fun v -> v.v_dists) variants in
  if dist_names <> [] then begin
    pr "<section>\n<h2>Distributions</h2>\n";
    List.iter
      (fun n ->
        let err =
          match List.find_map (fun v -> List.assoc_opt n v.v_dists) variants with
          | Some d -> Printf.sprintf " <span class=\"err\">estimates &plusmn;%.1f%%</span>" (100.0 *. d.d_rel_err)
          | None -> ""
        in
        pr "<h3>%s%s</h3>\n<table>\n" (esc n) err;
        pr
          "<tr><th>variant</th><th>n</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th><th>p999</th><th>max</th></tr>\n";
        List.iter
          (fun v ->
            match List.assoc_opt n v.v_dists with
            | None -> ()
            | Some d ->
                pr
                  "<tr><td><i class=\"swatch\" style=\"background:%s\"></i>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
                  (color_of v.v_name) (esc v.v_name) d.d_count (fg (mean d)) (fg d.d_p50)
                  (fg d.d_p90) (fg d.d_p99) (fg d.d_p999) (fg d.d_max))
          variants;
        pr "</table>\n")
      dist_names;
    pr "</section>\n"
  end;
  (* Series: small multiples, one card per variant, shared y scale. *)
  let series_names = row_names (fun v -> v.v_series) variants in
  if series_names <> [] then begin
    pr "<section>\n<h2>Sim-time series</h2>\n";
    List.iter
      (fun n ->
        let lo, hi = series_scale variants n in
        pr "<h3>%s <span class=\"err\">scale %s..%s</span></h3>\n<div class=\"cards\">\n" (esc n)
          (fg lo) (fg hi);
        List.iter
          (fun v ->
            match List.assoc_opt n v.v_series with
            | None -> ()
            | Some view ->
                pr "<div class=\"card\">\n<div class=\"name\"><i class=\"swatch\" style=\"background:%s\"></i>%s</div>\n"
                  (color_of v.v_name) (esc v.v_name);
                html_spark buf ~color:(color_of v.v_name) ~lo ~hi view;
                pr "</div>\n")
          variants;
        pr "</div>\n")
      series_names;
    pr "</section>\n"
  end;
  (* Scalar tables. *)
  let scalar_table title project render_cell =
    let names = row_names project variants in
    if names <> [] then begin
      pr "<section>\n<h2>%s</h2>\n<table>\n<tr><th></th>" title;
      List.iter (fun v -> pr "<th>%s</th>" (esc v.v_name)) variants;
      pr "</tr>\n";
      List.iter
        (fun n ->
          pr "<tr><td>%s</td>" (esc n);
          List.iter
            (fun v ->
              match List.assoc_opt n (project v) with
              | Some x -> pr "<td>%s</td>" (render_cell x)
              | None -> pr "<td>-</td>")
            variants;
          pr "</tr>\n")
        names;
      pr "</table>\n</section>\n"
    end
  in
  scalar_table "Counters" (fun v -> v.v_counts) string_of_int;
  scalar_table "Values" (fun v -> v.v_values) fg;
  pr "<footer>report schema v%g</footer>\n" schema_version;
  pr "</div>\n</body>\n</html>\n";
  Buffer.contents buf
