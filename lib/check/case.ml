module Json = Smrp_obs.Json
module Graph = Smrp_graph.Graph
module Failure = Smrp_core.Failure

type protocol = Spf | Smrp | Smrp_query

type event =
  | Join of int
  | Leave of int
  | Fail of { links : int list; nodes : int list }
  | Reshape

type t = {
  n : int;
  edges : (int * int * float) list;
  source : int;
  protocol : protocol;
  d_thresh : float;
  events : event list;
}

let graph t =
  let g = Graph.create t.n in
  List.iter (fun (u, v, delay) -> ignore (Graph.add_edge g u v delay)) t.edges;
  g

let failure = function
  | Fail { links = []; nodes = [] } | Join _ | Leave _ | Reshape -> None
  | Fail { links; nodes } ->
      Some
        (Failure.compose
           (List.map (fun e -> Failure.Link e) links @ List.map (fun v -> Failure.Node v) nodes))

let event_count t = List.length t.events

let protocol_name = function Spf -> "spf" | Smrp -> "smrp" | Smrp_query -> "smrp-query"

let format_tag = "smrp-fuzz-repro"

let json_of_event e =
  let ilist l = Json.List (List.map (fun i -> Json.Num (float_of_int i)) l) in
  match e with
  | Join v -> Json.Obj [ ("op", Json.Str "join"); ("node", Json.Num (float_of_int v)) ]
  | Leave v -> Json.Obj [ ("op", Json.Str "leave"); ("node", Json.Num (float_of_int v)) ]
  | Fail { links; nodes } ->
      Json.Obj [ ("op", Json.Str "fail"); ("links", ilist links); ("nodes", ilist nodes) ]
  | Reshape -> Json.Obj [ ("op", Json.Str "reshape") ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Str format_tag);
      ("version", Json.Num 1.0);
      ( "topology",
        Json.Obj
          [
            ("nodes", Json.Num (float_of_int t.n));
            ("source", Json.Num (float_of_int t.source));
            ( "edges",
              Json.List
                (List.map
                   (fun (u, v, d) ->
                     Json.List
                       [ Json.Num (float_of_int u); Json.Num (float_of_int v); Json.Num d ])
                   t.edges) );
          ] );
      ( "protocol",
        Json.Obj
          [ ("name", Json.Str (protocol_name t.protocol)); ("d_thresh", Json.Num t.d_thresh) ]
      );
      ("events", Json.List (List.map json_of_event t.events));
    ]

(* -- Parsing (with range validation) ----------------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get what f j = match f j with Some x -> x | None -> fail "%s: wrong type or missing" what

let int_of what j =
  let x = get what Json.to_num j in
  let i = int_of_float x in
  if float_of_int i <> x then fail "%s: not an integer" what;
  i

let member what k j = match Json.member k j with Some v -> v | None -> fail "%s: missing %S" what k

let node_in_range what n v = if v < 0 || v >= n then fail "%s: node %d out of range" what v

let of_json j =
  try
    (match Json.member "format" j with
    | Some (Json.Str s) when s = format_tag -> ()
    | _ -> fail "not a %s file" format_tag);
    let topo = member "case" "topology" j in
    let n = int_of "nodes" (member "topology" "nodes" topo) in
    if n < 1 then fail "topology: needs at least one node";
    if n > Graph.node_limit then
      fail "topology: %d nodes exceeds the limit of %d" n Graph.node_limit;
    let source = int_of "source" (member "topology" "source" topo) in
    node_in_range "source" n source;
    let edges =
      match member "topology" "edges" topo with
      | Json.List es ->
          List.map
            (fun e ->
              match e with
              | Json.List [ u; v; d ] ->
                  let u = int_of "edge endpoint" u and v = int_of "edge endpoint" v in
                  node_in_range "edge" n u;
                  node_in_range "edge" n v;
                  if u = v then fail "edge: self-loop at %d" u;
                  let d = get "edge delay" Json.to_num d in
                  if not (d > 0.0) then fail "edge: non-positive delay";
                  if not (Float.is_finite d) then fail "edge: non-finite delay";
                  (u, v, d)
              | _ -> fail "edge: expected [u, v, delay]")
            es
      | _ -> fail "topology: edges must be a list"
    in
    let ecount = List.length edges in
    let protocol, d_thresh =
      let p = member "case" "protocol" j in
      let name = get "protocol name" Json.to_str (member "protocol" "name" p) in
      let d = get "d_thresh" Json.to_num (member "protocol" "d_thresh" p) in
      if not (Float.is_finite d) then fail "protocol: non-finite d_thresh";
      if d < 0.0 then fail "protocol: negative d_thresh";
      ( (match name with
        | "spf" -> Spf
        | "smrp" -> Smrp
        | "smrp-query" -> Smrp_query
        | other -> fail "protocol: unknown name %S" other),
        d )
    in
    let ints what j =
      match j with
      | Json.List l -> List.map (int_of what) l
      | _ -> fail "%s: expected a list" what
    in
    let events =
      match member "case" "events" j with
      | Json.List es ->
          List.map
            (fun e ->
              match Json.member "op" e with
              | Some (Json.Str "join") ->
                  let v = int_of "join node" (member "join" "node" e) in
                  node_in_range "join" n v;
                  Join v
              | Some (Json.Str "leave") ->
                  let v = int_of "leave node" (member "leave" "node" e) in
                  node_in_range "leave" n v;
                  Leave v
              | Some (Json.Str "fail") ->
                  let links = ints "fail links" (member "fail" "links" e) in
                  List.iter
                    (fun l -> if l < 0 || l >= ecount then fail "fail: edge %d out of range" l)
                    links;
                  let nodes = ints "fail nodes" (member "fail" "nodes" e) in
                  List.iter (node_in_range "fail" n) nodes;
                  Fail { links; nodes }
              | Some (Json.Str "reshape") -> Reshape
              | _ -> fail "event: missing or unknown op")
            es
      | _ -> fail "events: expected a list"
    in
    (* Duplicate edges would make Graph.create raise at replay time. *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (u, v, _) ->
        let k = (min u v, max u v) in
        if Hashtbl.mem seen k then fail "edge: duplicate %d--%d" u v;
        Hashtbl.add seen k ())
      edges;
    Ok { n; edges; source; protocol; d_thresh; events }
  with
  | Bad msg -> Error msg
  | Json.Parse_error msg -> Error msg

let save file t =
  let oc = open_out file in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      (match Json.parse s with
      | exception Json.Parse_error msg -> Error msg
      | j -> of_json j)

let pp_event ppf = function
  | Join v -> Format.fprintf ppf "join %d" v
  | Leave v -> Format.fprintf ppf "leave %d" v
  | Fail { links; nodes } ->
      Format.fprintf ppf "fail";
      List.iter (Format.fprintf ppf " link:%d") links;
      List.iter (Format.fprintf ppf " node:%d") nodes
  | Reshape -> Format.fprintf ppf "reshape"

let pp ppf t =
  Format.fprintf ppf "@[<v>case: %d nodes, %d edges, source %d, %s (D_thresh %g), %d events"
    t.n (List.length t.edges) t.source (protocol_name t.protocol) t.d_thresh
    (List.length t.events);
  List.iteri (fun i e -> Format.fprintf ppf "@,  %2d: %a" i pp_event e) t.events;
  Format.fprintf ppf "@]"
