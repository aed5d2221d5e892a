(* Layer probes for the traced run: each calls one layer's public
   functions from outside, with fixed inputs derived from the benchmark
   seed, and times or counts it.  Every probe is wrapped in a span. *)

module B = Exsel_native.Backend
module P = Exsel_native.Probe_backend.Make (B)
module EffP = Exsel_renaming.Efficient_rename.Make (P)
module CoreN = Exsel_service.Core.Native
module CoreP = Exsel_service.Core.Make (P)
module SnapN = Exsel_snapshot.Snapshot.Make (B)
module SnapP = Exsel_snapshot.Snapshot.Make (P)
module EffN = Exsel_renaming.Efficient_rename.Make (B)
module Router = Exsel_service.Router
module Rng = Exsel_sim.Rng

let now = Spans.now_ns
let req = -1

(* Median wall time of [reps] calls of [f i], each from a compacted heap. *)
let time_median_ns ~reps f =
  let samples =
    Array.init reps (fun i ->
        Gc.compact ();
        let t0 = now () in
        ignore (Sys.opaque_identity (f i));
        float_of_int (now () - t0))
  in
  Stats.median samples

let build_instance_ms (groups : Rename_oneshot.group array) =
  Spans.with_span ~req "probe.build.instance" @@ fun _ ->
  time_median_ns ~reps:5 (fun i ->
      Rename_oneshot.build ~seed:groups.(i).Rename_oneshot.g_seed (B.create ()))
  /. 1e6

let build_core_ms ~seed =
  Spans.with_span ~req "probe.build.core" @@ fun _ ->
  time_median_ns ~reps:5 (fun i ->
      CoreN.create ~algo:Exsel_service.Core.Efficient
        ~rng:(Rng.create_v2 ~seed:((seed * 89) + i))
        (B.create ()) ~name:"shard" ~cap:Lease_poisson.cap)
  /. 1e6

(* The expander-certification cliff between k = 48 and k = 64. *)
let build_k64_ms ~seed =
  Spans.with_span ~req "probe.build.k64" @@ fun _ ->
  Gc.compact ();
  let t0 = now () in
  ignore
    (Sys.opaque_identity
       (EffN.create ~rng:(Rng.create ~seed) (B.create ()) ~name:"ef" ~k:64));
  float_of_int (now () - t0) /. 1e6

(* Phase step totals of one seeded k = 48 instance on the simulator,
   uniformly random schedule, from the algorithm's own phase spans. *)
let renaming_steps (g : Rename_oneshot.group) =
  Spans.with_span ~req "probe.renaming.sim" @@ fun _ ->
  let module Sim = Exsel_sim in
  let module Span = Exsel_obs.Span in
  let mem = Sim.Memory.create () in
  let rt = Sim.Runtime.create mem in
  let sink = Span.attach rt in
  let inst =
    Exsel_renaming.Efficient_rename.create ~rng:(Rng.create ~seed:g.g_seed) mem
      ~name:"ef" ~k:Rename_oneshot.k
  in
  Array.iteri
    (fun i id ->
      ignore
        (Sim.Runtime.spawn rt ~name:Rename_oneshot.task_names.(i) (fun () ->
             ignore (Exsel_renaming.Efficient_rename.rename inst ~me:id))))
    g.g_ids;
  Sim.Scheduler.run rt (Sim.Scheduler.random (Rng.create ~seed:g.g_seed));
  let aggs = Span.aggregate sink in
  Span.detach sink;
  let steps label =
    match List.find_opt (fun a -> a.Span.agg_label = label) aggs with
    | Some a -> a.Span.steps_total
    | None -> 0
  in
  ( steps "efficient:phase=ma",
    steps "efficient:phase=polylog",
    steps "efficient:phase=final",
    Sim.Runtime.max_steps rt )

let total_ops mem = List.fold_left (fun s (_, r, w) -> s + r + w) 0 (P.counts mem)
let total_reads mem = List.fold_left (fun s (_, r, _) -> s + r) 0 (P.counts mem)

(* Solo scan/update cost of an [n]-component snapshot whose components
   have all been written once; reads per scan from the probed backend. *)
let snapshot ~n =
  Spans.with_span ~req (Printf.sprintf "probe.snapshot.n%d" n) @@ fun _ ->
  let s = SnapN.create (B.create ()) ~name:"snap" ~n ~init:0 in
  for i = 0 to n - 1 do
    SnapN.update s ~me:i i
  done;
  let per_op f =
    let reps = 2000 in
    Stats.median
      (Array.init 5 (fun _ ->
           let t0 = now () in
           for i = 1 to reps do
             f i
           done;
           float_of_int (now () - t0) /. float_of_int reps))
  in
  let scan_ns = per_op (fun _ -> ignore (Sys.opaque_identity (SnapN.scan s ~me:0))) in
  let update_ns = per_op (fun i -> SnapN.update s ~me:0 i) in
  let mem = P.wrap (B.create ()) in
  let sp = SnapP.create mem ~name:"snap" ~n ~init:0 in
  for i = 0 to n - 1 do
    SnapP.update sp ~me:i i
  done;
  let r0 = total_reads mem in
  ignore (SnapP.scan sp ~me:0);
  (scan_ns /. 1e3, update_ns /. 1e3, total_reads mem - r0)

(* Register operations per rename (one k = 48 group, processes run one
   after another as on one engine domain) and per acquire / release on a
   cap-32 core; registers allocated by the instance. *)
let backend_counts (g : Rename_oneshot.group) ~seed =
  Spans.with_span ~req "probe.backend" @@ fun _ ->
  let mem = P.wrap (B.create ()) in
  let inst =
    EffP.create ~rng:(Rng.create ~seed:g.g_seed) mem ~name:"ef" ~k:Rename_oneshot.k
  in
  Array.iter (fun id -> ignore (EffP.rename inst ~me:id)) g.g_ids;
  let rename_ops = total_ops mem in
  let registers = P.registers mem in
  let cap = Lease_poisson.cap in
  let cmem = P.wrap (B.create ()) in
  let core =
    CoreP.create ~algo:Exsel_service.Core.Efficient
      ~rng:(Rng.create_v2 ~seed:(seed * 89)) cmem ~name:"shard" ~cap
  in
  let slots = Array.init cap (fun i -> Option.get (CoreP.join core ~client:(1000 + (7 * i)))) in
  let c0 = total_ops cmem in
  let leases = Array.map (fun slot -> fst (CoreP.acquire core ~slot)) slots in
  let c1 = total_ops cmem in
  Array.iteri (fun i slot -> CoreP.release core ~slot ~name:leases.(i)) slots;
  let c2 = total_ops cmem in
  ( (rename_ops, Rename_oneshot.k),
    (c1 - c0, cap),
    (c2 - c1, cap),
    registers )

(* route / admit / depart at 4 shards × cap 32, with the oldest session
   departing once 48 are live; worn, quiescent shards are recycled when
   every shard refuses. *)
let router_route_ns () =
  Spans.with_span ~req "probe.router" @@ fun _ ->
  let iters = 200_000 in
  Stats.median
    (Array.init 5 (fun _ ->
         let r = Router.create ~shards:Lease_poisson.shards ~cap:Lease_poisson.cap in
         let live = Queue.create () in
         let t0 = now () in
         for _ = 1 to iters do
           match Router.route r with
           | Some sh ->
               Router.admit r sh;
               Queue.push sh live;
               if Queue.length live > 48 then Router.depart r (Queue.pop live)
           | None ->
               Queue.iter (Router.depart r) live;
               Queue.clear live;
               for i = 0 to Router.shards r - 1 do
                 if Router.needs_recycle r i then Router.recycled r i
               done
         done;
         float_of_int (now () - t0) /. float_of_int iters))
