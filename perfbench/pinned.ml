(* Record-stream digests of the two sweeps: MD5 of the
   Report.record_json lines, one per case in grid order, each followed
   by a newline, with the wall-clock "audit_s" value replaced by "_".
   They equal the digests of the record lines [ucp experiment
   --sweep-out] writes for the grid the benchmark prints. *)
let digests =
  [
    ("sweep-lru", "9b5f1b4747f8ebd1bd9df1d81180b77a");
    ("sweep-policies-audited", "eb76233fc7709f681ceb55518f214e5c");
  ]
