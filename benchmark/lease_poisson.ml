(* lease-poisson: the long-lived renaming service under open-loop Poisson
   arrivals, through [Service.Workload.run] on the native backend.  One
   call runs [rounds] logical rounds; a cycle is [calls_per_cycle] calls
   with seeds drawn from the benchmark seed.

   The number of rounds per call is part of the workload's definition:
   the workload driver scans every session ever admitted on every round,
   so the cost per session grows with the run length.  A call of
   [long_rounds] rounds, as long as a service run where the driver's
   cost is the larger part, runs only in the traced run. *)

module W = Exsel_service.Workload
module Core = Exsel_service.Core
module Churn = Exsel_service.Churn
module Json = Exsel_obs.Json
module Metrics = Exsel_obs.Metrics
module Rng = Exsel_sim.Rng

let shards = 4
let cap = 32
let rate = 8
let hold = 4
let rounds = 100
let long_rounds = 3000
(* The acquire tail depends on a call's arrivals: the few calls with the
   largest rounds set it, so a cycle averages over many calls. *)
let calls_per_cycle = 48

let config ~domains ~rounds ~seed =
  {
    W.default with
    shards;
    cap;
    entry = Core.Efficient;
    rounds;
    rate;
    hold;
    patterns = [ W.Poisson ];
    seeds = [ seed ];
    backend = Churn.Native { domains };
  }

let make_inputs ~seed =
  let rng = Rng.create_v2 ~seed:((seed * 104_729) + cap) in
  Array.init calls_per_cycle (fun _ -> 1 + Rng.int rng 1_000_000_000)

(* The service's own set-up, as a one-round call: the router, the
   registry and the shard cores, and one round of arrivals. *)
let setup_call seed =
  let report = W.run (config ~domains:1 ~rounds:1 ~seed) in
  match (List.hd report.W.wr_cells).W.w_violations with
  | [] -> ()
  | v :: _ -> failwith ("one-round call: " ^ v)

type hist = { buckets : (int * int) list; sum_ns : int }

type result = {
  cell : W.cell;
  rounds : int;
  wall_ns : int;
  hist : string -> hist;  (** [exsel_workload_<op>_latency_ns] *)
}

let hists_of metrics =
  let hists =
    match Json.member "histograms" (Metrics.to_json metrics) with
    | Some (Json.List l) -> l
    | _ -> []
  in
  fun name ->
    let want = Printf.sprintf "exsel_workload_%s_latency_ns" name in
    let found =
      List.find_map
        (fun h ->
          match (Json.member "name" h, Json.member "buckets" h, Json.member "sum" h) with
          | Some (Json.String n), Some (Json.List bs), Some (Json.Int sum_ns)
            when n = want ->
              let buckets =
                List.filter_map
                  (function
                    | Json.List [ Json.Int le; Json.Int c ] -> Some (le, c)
                    | _ -> None)
                  bs
              in
              Some { buckets; sum_ns }
          | _ -> None)
        hists
    in
    Option.value found ~default:{ buckets = []; sum_ns = 0 }

let run_call ?(domains = 1) ?(rounds = rounds) ~req seed =
  Spans.with_span ~req "service.workload_run" @@ fun _ ->
  let t0 = Spans.now_ns () in
  let report = W.run (config ~domains ~rounds ~seed) in
  let wall_ns = Spans.now_ns () - t0 in
  let cell = List.hd report.W.wr_cells in
  { cell; rounds; wall_ns; hist = hists_of cell.W.w_metrics }

(* The service invariants a call must keep: no violation reported, the
   arrival funnel, and every global name inside the shard partition. *)
let check r =
  let c = r.cell in
  if c.W.w_violations <> [] then Error (List.hd c.W.w_violations)
  else if c.W.w_rounds <> r.rounds then Error "rounds: call stopped early"
  else if
    not
      (c.W.w_arrivals = c.W.w_admitted + c.W.w_rejected
      && c.W.w_admitted >= c.W.w_joins
      && c.W.w_joins >= c.W.w_acquires
      && c.W.w_acquires >= c.W.w_releases)
  then
    Error
      (Printf.sprintf "funnel: arrivals=%d admitted=%d refused=%d joins=%d acquires=%d releases=%d"
         c.W.w_arrivals c.W.w_admitted c.W.w_rejected c.W.w_joins c.W.w_acquires
         c.W.w_releases)
  else if c.W.w_releases <= 0 then Error "no session released"
  else if
    c.W.w_max_name < 0
    || c.W.w_max_name >= shards * Core.width_for Core.Efficient ~cap
  then Error (Printf.sprintf "name bound: global name %d" c.W.w_max_name)
  else Ok ()

let fingerprint r =
  let c = r.cell in
  Printf.sprintf
    "arrivals=%d admitted=%d refused=%d joins=%d acquires=%d releases=%d recycles=%d spills=%d max_name=%d"
    c.W.w_arrivals c.W.w_admitted c.W.w_rejected c.W.w_joins c.W.w_acquires
    c.W.w_releases c.W.w_recycles c.W.w_spills c.W.w_max_name
