(* Output digests at the default seed (1) and run length (30 s), per
   workload, as (seconds, digest).  A run at that seed and length must
   reproduce them, traced or not: the digests cover every repair and
   member report, so any behaviour change in the library shows here.
   - failover: every session event of both kinds (joins, failures, each
     repair's strategy, merge, recovery distance and path, lost members);
   - campaign_churn: Campaign.digest of the report;
   - packet_restore: engine event counts, net counters, message breakdown,
     per-member reports and recovery episodes of both sides. *)
let digests =
  [
    ("failover", (30, "28c1071f43ee7ff476804f87755a41ae"));
    ("campaign_churn", (30, "2c06a5ab5d3749dc9bec405a59a76013"));
    ("packet_restore", (30, "baf81e4aa818f5f8639f05f6707fd839"));
  ]
