module Engine = Smrp_sim.Engine
module Protocol = Smrp_sim.Protocol
module Table = Smrp_metrics.Table

type side = {
  protocol : string;
  hello : int;
  query : int;
  join_req : int;
  refresh : int;
  prune : int;
  data : int;
  join_req_per_member : float;
}

type result = {
  seed : int;
  members : int;
  sim_time : float;
  smrp : side;
  pim : side;
  smrp_query : side;
  smrp_reshaped : side;
}

let run_side ~graph ~source ~member_list ~sim_time ~name config =
  let engine = Engine.create () in
  let proto = Protocol.create ~config engine graph ~source in
  Protocol.start proto;
  List.iteri
    (fun i m -> Engine.schedule engine ~delay:(0.5 +. float_of_int i) (fun () -> Protocol.join proto m))
    member_list;
  Engine.run ~until:sim_time engine;
  let find key = List.assoc key (Protocol.message_breakdown proto) in
  {
    protocol = name;
    hello = find "hello";
    query = find "query";
    join_req = find "join_req";
    refresh = find "refresh";
    prune = find "prune";
    data = find "data";
    join_req_per_member = float_of_int (find "join_req") /. float_of_int (List.length member_list);
  }

(* The scenario seed every overhead comparison draws its instance from. *)
let seed = 41

let run ?(members = 30) ?(sim_time = 120.0) () =
  let graph, source, member_list =
    Scenario.instance
      { Scenario.default with Scenario.seed; group_size = members; link_delay = `Euclidean }
  in
  let base strategy = { Protocol.default_config with Protocol.strategy } in
  {
    seed;
    members;
    sim_time;
    smrp = run_side ~graph ~source ~member_list ~sim_time ~name:"SMRP" (base Protocol.Local);
    pim = run_side ~graph ~source ~member_list ~sim_time ~name:"PIM/SPF" (base Protocol.Global);
    smrp_query =
      run_side ~graph ~source ~member_list ~sim_time ~name:"SMRP + query (3.3.1)"
        { (base Protocol.Local) with Protocol.join_mode = Protocol.Query_scheme };
    smrp_reshaped =
      run_side ~graph ~source ~member_list ~sim_time ~name:"SMRP + reshape (3.2.3)"
        { (base Protocol.Local) with Protocol.reshape_period = Some 20.0 };
  }

let render r =
  let t =
    Table.create
      ~columns:[ "protocol"; "hello"; "query"; "join_req"; "refresh"; "prune"; "data"; "join_req/member" ]
  in
  let row s =
    Table.add_row t
      [
        s.protocol;
        string_of_int s.hello;
        string_of_int s.query;
        string_of_int s.join_req;
        string_of_int s.refresh;
        string_of_int s.prune;
        string_of_int s.data;
        Printf.sprintf "%.1f" s.join_req_per_member;
      ]
  in
  row r.smrp;
  row r.pim;
  row r.smrp_query;
  row r.smrp_reshaped;
  Printf.sprintf
    "Protocol overhead (3.3.2): %d members over %.0f sim-seconds, no failures\n%s\n\
     (both protocols pay the same hello/refresh baseline; SMRP's extra signalling is the\n\
     slightly longer join paths — the SHR bookkeeping itself rides on these messages)\n"
    r.members r.sim_time (Table.render t)
