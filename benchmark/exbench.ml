(* exsel benchmark driver.

     exbench --workload W --seed N --seconds S --trace 0|1

   Runs one workload (rename-oneshot, lease-poisson, sim-campaign) for S
   seconds and at least one cycle (S = 0 runs exactly one), and prints,
   as the last line of standard output, one JSON object {correct,
   attempted, failed, metrics}.  With --trace 0 the metrics are the
   end-to-end ones, measured with tracing off; with --trace 1 they are the
   per-layer ones, from a run whose cycles alternate between untraced and
   traced, one traced cycle of each other workload and the layer probes;
   the spans are written to .bench_out/ at exit.  Times are scaled to the
   reference speed ({!Calib}).  run.py adds the run's peak RSS.

   Exit codes: 0 when every output checked correct, 1 on a correctness
   failure (the JSON line is still printed), 2 on a usage error or an
   exception. *)

module RO = Rename_oneshot
module LP = Lease_poisson
module SC = Sim_campaign

let now = Spans.now_ns

(* ------------------------------------------------------------------ *)
(* Workloads as cycles of units                                        *)
(* ------------------------------------------------------------------ *)

(* One unit of measured work: a rename pass, a workload call or a
   campaign call.  Units repeat in a fixed cycle of [cycle] slots, each
   slot with its own inputs, so every unit's exact outputs can be
   compared with the first cycle's, and every timing has repetitions of
   identical work. *)
type raw =
  | Rename of RO.result array
  | Lease of LP.result
  | Sim of SC.result
  | Dropped  (** not kept: neither in the first cycle nor traced *)

type unit_result = {
  u_slot : int;
  u_traced : bool;
  u_setup_ns : float;  (** the slot's timed set-up repetition before the unit *)
  u_items : (int * float) array;  (** (work done, wall ns) per timed item *)
  u_lat : float array;  (** latency figures in ns, the same positions per slot *)
  u_hist : (int * int) list;  (** latency histogram (unscaled ns buckets), if any *)
  u_fp : string;  (** the unit's exact outputs *)
  u_check : (unit, string) result;
  u_attempted : int;
  u_failed : int;
  u_raw : raw;
  u_scale : float;  (** reference time ÷ the reference loop's time around the unit *)
}

(* The typical repetition of each slot (see [typical_of]). *)
type typical = {
  b_setup_ns : float;
  b_items : (int * float) array;
  b_lat : float array;
  b_first : unit_result;  (** the slot's first repetition *)
  b_reps : int;
}

type kind = {
  name : string;
  cycle : int;
  work : string;
  inputs : seed:int -> unit;
  setup_rep : int -> unit -> unit;
      (** set-up of one slot; returns what releases it, run untimed *)
  setup_reps : int;  (** timed set-up repetitions before each unit *)
  domains : int;  (** domains the workload runs on *)
  verify : unit_result -> (unit, string) result;
      (** untimed checks of a first-cycle unit beyond its own *)
  run_unit : traced:bool -> req:int -> int -> unit_result;
  latency : typical list -> unit_result list -> float * float * string;
      (** p50 and tail latency (ns) from the typical repetition of each
          slot or from all units, and how the tail was taken *)
}

let line fmt = Printf.printf (fmt ^^ "\n%!")

let lease_of u = match u.u_raw with Lease r -> r | _ -> assert false
let sim_of u = match u.u_raw with Sim r -> r | _ -> assert false

let first_error checks =
  match List.find_opt Result.is_error checks with Some e -> e | None -> Ok ()

let result ~slot ~traced ~items ~lat ~fp ~check ~attempted ~failed raw =
  {
    u_slot = slot;
    u_traced = traced;
    u_setup_ns = nan;
    u_items = items;
    u_lat = lat;
    u_hist = [];
    u_fp = fp;
    u_check = check;
    u_attempted = attempted;
    u_failed = failed;
    u_raw = raw;
    u_scale = 1.0;
  }

let rename_kind () =
  let bench_seed = ref 0 and inputs = ref [||] in
  let run_unit ~traced ~req slot =
    let rs = Array.mapi (fun i g -> RO.run_group ~req:((req * 1000) + i) g) !inputs in
    let named = Array.fold_left (fun s r -> s + r.RO.named) 0 rs in
    let names = Buffer.create 4096 in
    Array.iter
      (fun r ->
        Array.iter
          (function
            | Some x -> Buffer.add_string names (string_of_int x ^ ",")
            | None -> Buffer.add_string names "-,")
          r.RO.names)
      rs;
    result ~slot ~traced
      ~items:(Array.map (fun r -> (r.RO.named, float_of_int r.RO.wall_ns)) rs)
      ~lat:(Array.concat (Array.to_list (Array.map (fun r -> Array.map float_of_int r.RO.latency_ns) rs)))
      ~fp:
        (Printf.sprintf "groups=%d named=%d name_max=%d names=%s" (Array.length rs) named
           (Array.fold_left (fun m r -> max m r.RO.max_name) (-1) rs)
           (Digest.to_hex (Digest.string (Buffer.contents names))))
      ~check:(first_error (Array.to_list (Array.map (fun r -> r.RO.check) rs)))
      ~attempted:(Array.length rs * RO.k)
      ~failed:
        (Array.fold_left
           (fun s r -> s + if Result.is_error r.RO.check then RO.k else RO.k - r.RO.named)
           0 rs)
      (Rename rs)
  in
  ( {
      name = "rename-oneshot";
      cycle = 1;
      work = "processes named";
      domains = 1;
      verify = (fun _ -> Ok ());
      setup_reps = 1;
      inputs =
        (fun ~seed ->
          bench_seed := seed;
          inputs := RO.make_inputs ~seed);
      setup_rep =
        (fun _ ->
          (* the pass's inputs, then two warm-up groups *)
          inputs := RO.make_inputs ~seed:!bench_seed;
          for i = 0 to 1 do
            match (RO.run_group ~req:(-2) !inputs.(i)).RO.check with
            | Ok () -> ()
            | Error e -> failwith ("warm-up group: " ^ e)
          done;
          ignore);
      run_unit;
      latency =
        (fun typs _ ->
          let lat = Array.concat (List.map (fun b -> b.b_lat) typs) in
          let n = Array.length lat in
          let q, p = Stats.tail n in
          ( Stats.quantile lat 0.5,
            Stats.quantile lat q,
            Printf.sprintf "%s of %d per-process latencies, %d beyond" p n (Stats.beyond n q) ));
    },
    fun () -> !inputs )

let lease_kind () =
  let seeds = ref [||] in
  let run_unit ~traced ~req slot =
    let module W = Exsel_service.Workload in
    let r = LP.run_call ~req !seeds.(slot) in
    let c = r.LP.cell in
    let check = LP.check r in
    let acq = (r.LP.hist "acquire").LP.buckets in
    {
      (result ~slot ~traced
         ~items:[| (c.W.w_releases, float_of_int r.LP.wall_ns) |]
         ~lat:[||] ~fp:(LP.fingerprint r) ~check ~attempted:c.W.w_arrivals
         ~failed:(if Result.is_error check then max 1 (List.length c.W.w_violations) else 0)
         (Lease r))
      with
      u_hist = acq;
    }
  in
  ( {
      name = "lease-poisson";
      cycle = LP.calls_per_cycle;
      work = "sessions released";
      domains = 1;
      verify = (fun _ -> Ok ());
      setup_reps = 1;
      inputs = (fun ~seed -> seeds := LP.make_inputs ~seed);
      setup_rep = (fun slot -> LP.setup_call !seeds.(slot); ignore);
      run_unit;
      latency =
        (fun typs units ->
          (* the repetitions of a slot repeat the same acquires *)
          let groups =
            List.map
              (fun b ->
                List.filter_map
                  (fun u -> if u.u_slot = b.b_first.u_slot then Some (u.u_hist, u.u_scale) else None)
                  units)
              typs
          in
          let distinct =
            List.fold_left
              (fun a b -> a + (lease_of b.b_first).LP.cell.Exsel_service.Workload.w_acquires)
              0 typs
          in
          let q, p = Stats.tail distinct in
          ( Stats.mixture_quantile groups 0.5,
            Stats.mixture_quantile groups q,
            Printf.sprintf
              "%s of the %d distinct acquires of a cycle (%d beyond): each slot's distribution the \
               median of its repetitions', over %d calls"
              p distinct (Stats.beyond distinct q) (List.length units) ));
    },
    fun () -> !seeds )

let sim_kind () =
  let seeds = ref [||] in
  let run_unit ~traced ~req slot =
    let r = SC.run_call ~traced ~req !seeds.(slot) in
    result ~slot ~traced
      ~items:[| (SC.commits r, float_of_int r.SC.wall_ns) |]
      ~lat:
        (Array.of_list
           (List.mapi
              (fun i c -> float_of_int r.SC.cell_ns.(i) /. float_of_int c.Exsel_conformance.Campaign.c_commits)
              r.SC.report.Exsel_conformance.Campaign.r_cells))
      ~fp:(SC.fingerprint r) ~check:(SC.check r)
      ~attempted:(SC.runs r) ~failed:r.SC.report.Exsel_conformance.Campaign.r_violations (Sim r)
  in
  ( {
      name = "sim-campaign";
      cycle = SC.calls_per_cycle;
      work = "simulated commits";
      domains = SC.jobs;
      verify = (fun u -> SC.check_setup ~seed:!seeds.(u.u_slot) (sim_of u));
      (* a call takes about 40 set-ups' time: three per call keep the
         set-up repetitions about as many as the other workloads' *)
      setup_reps = 3;
      inputs = (fun ~seed -> seeds := SC.make_inputs ~seed);
      setup_rep =
        (fun slot ->
          let specs = SC.build_specs ~seed:!seeds.(slot) in
          fun () -> SC.release_specs specs);
      run_unit;
      latency =
        (fun typs _ ->
          let lat = Array.concat (List.map (fun b -> b.b_lat) typs) in
          let n = Array.length lat in
          let q, p = Stats.tail n in
          ( Stats.quantile lat 0.5,
            Stats.quantile lat q,
            Printf.sprintf "%s over %d cells of the cell's wall time per simulated commit, %d beyond"
              p n (Stats.beyond n q) ));
    },
    fun () -> !seeds )

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Run units until [seconds] have passed and at least [min_cycles]
   cycles are complete.  Before every unit the slot's set-up runs again
   [setup_reps] times, each from a compacted heap (the least is kept), so
   set-up repetitions are spread over the whole run like the units.  The
   reference loop runs between the set-up and the unit and after the
   unit; every time is scaled to the reference speed ({!Calib}).  With
   [alternate], whole cycles alternate between untraced (even) and traced
   (odd). *)
let measure k ~seconds ~min_cycles ~alternate =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i >= min_cycles * k.cycle && now () >= deadline then List.rev acc
    else begin
      let slot = i mod k.cycle in
      let setup_ns =
        List.fold_left Float.min infinity
          (List.init k.setup_reps (fun _ ->
               Gc.compact ();
               let t0 = now () in
               let release = k.setup_rep slot in
               let t = float_of_int (now () - t0) in
               release ();
               t))
      in
      let traced = alternate && i / k.cycle mod 2 = 1 in
      let c0 = Calib.run ~domains:k.domains in
      Spans.enabled := traced;
      let u = k.run_unit ~traced ~req:i slot in
      Spans.enabled := false;
      let c1 = Calib.run ~domains:k.domains in
      let scale = Calib.scale ((c0 +. c1) /. 2.0) in
      go (i + 1)
        ({
           u with
           u_setup_ns = setup_ns *. Calib.scale c0;
           u_items = Array.map (fun (w, ns) -> (w, ns *. scale)) u.u_items;
           u_lat = Array.map (fun ns -> ns *. scale) u.u_lat;
           u_scale = scale;
           (* keep the raw results only where they are read, so that the
              heap does not grow with the number of units *)
           u_raw = (if i < k.cycle || traced then u.u_raw else Dropped);
         }
        :: acc)
    end
  in
  go 0 []

let first_cycle k units = List.filteri (fun i _ -> i < k.cycle) units

(* Every unit must reproduce its slot's first-cycle outputs exactly. *)
let determinism k units =
  let fp = Array.make k.cycle "" in
  List.iter (fun u -> fp.(u.u_slot) <- u.u_fp) (first_cycle k units);
  first_error
    (List.map
       (fun u ->
         if u.u_fp = fp.(u.u_slot) then Ok ()
         else
           Error
             (Printf.sprintf "nondeterminism: slot %d gave %s, first cycle %s" u.u_slot u.u_fp
                fp.(u.u_slot)))
       units)

(* The typical repetition of each slot, element by element: the median
   over the slot's repetitions of the (scaled) set-up time, of the wall
   time of every item and of every latency figure. *)
let typical_of k units =
  List.filter_map
    (fun slot ->
      match List.filter (fun u -> u.u_slot = slot) units with
      | [] -> None
      | u0 :: _ as us ->
          let med f = Stats.median_l (List.map f us) in
          Some
            {
              b_setup_ns = med (fun u -> u.u_setup_ns);
              b_items = Array.mapi (fun i (w, _) -> (w, med (fun u -> snd u.u_items.(i)))) u0.u_items;
              b_lat = Array.mapi (fun i _ -> med (fun u -> u.u_lat.(i))) u0.u_lat;
              b_first = u0;
              b_reps = List.length us;
            })
    (List.init k.cycle Fun.id)

let work_per_s_of typs =
  let work = ref 0 and ns = ref 0.0 in
  List.iter (fun b -> Array.iter (fun (w, t) -> work := !work + w; ns := !ns +. t) b.b_items) typs;
  float_of_int !work /. (!ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metric_json (name, value, unit) =
  if Float.is_finite value then Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name value unit
  else failwith (Printf.sprintf "metric %s is not a finite number" name)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat "," (List.map metric_json metrics))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let median_over f l = Stats.median_l (List.map f l)
let sumf f l = List.fold_left (fun s x -> s +. f x) 0.0 l
let ratio name num den = line "ratio %s = %.6g / %.6g" name num den; num /. den

(* The exact end-to-end figures of a first cycle: the largest local
   steps, the largest name, and (refused, arrivals). *)
type exact = { steps_max : int option; name_max : int option; refused : (int * int) option }

let exact units =
  let module W = Exsel_service.Workload in
  match units with
  | { u_raw = Rename _; _ } :: _ ->
      let rs = List.concat_map (fun u -> match u.u_raw with Rename rs -> Array.to_list rs | _ -> []) units in
      { steps_max = None; name_max = Some (List.fold_left (fun m r -> max m r.RO.max_name) (-1) rs); refused = None }
  | { u_raw = Lease _; _ } :: _ ->
      let cs = List.filter_map (fun u -> match u.u_raw with Lease r -> Some r.LP.cell | _ -> None) units in
      let sum f = List.fold_left (fun s c -> s + f c) 0 cs in
      {
        steps_max = None;
        name_max = Some (List.fold_left (fun m c -> max m c.W.w_max_name) (-1) cs);
        refused = Some (sum (fun c -> c.W.w_rejected), sum (fun c -> c.W.w_arrivals));
      }
  | _ ->
      let rs = List.filter_map (fun u -> match u.u_raw with Sim r -> Some r | _ -> None) units in
      { steps_max = Some (List.fold_left (fun m r -> max m (SC.steps_max r)) 0 rs); name_max = None; refused = None }

(* The workload driver's time in a call: the call's wall time less the
   engine's and the recycles' core builds. *)
let driver_ns ~core_ms (r : LP.result) =
  let c = r.LP.cell in
  float_of_int r.LP.wall_ns
  -. float_of_int c.Exsel_service.Workload.w_wall_ns
  -. (float_of_int c.Exsel_service.Workload.w_recycles *. core_ms *. 1e6)

let lease_layers ~core_ms ~cycle1 ~traced ~long =
  let long_driver = driver_ns ~core_ms long in
  let module W = Exsel_service.Workload in
  let c1 = List.map (fun u -> (lease_of u).LP.cell) cycle1 in
  let calls = float_of_int (List.length c1) in
  let per_call name f = ratio name (sumf (fun c -> float_of_int (f c)) c1) calls in
  let tr = List.map lease_of traced in
  let q op p name =
    (name, median_over (fun r -> Stats.hist_quantile (r.LP.hist op).LP.buckets p /. 1e3) tr, "us")
  in
  [
    ("core.recycles", per_call "core.recycles" (fun c -> c.W.w_recycles), "count");
    q "join" 0.5 "core.join_us.p50";
    q "join" 0.99 "core.join_us.p99";
    q "acquire" 0.5 "core.acquire_us.p50";
    q "acquire" 0.99 "core.acquire_us.p99";
    q "release" 0.5 "core.release_us.p50";
    q "release" 0.99 "core.release_us.p99";
    ("router.spills", per_call "router.spills" (fun c -> c.W.w_spills), "count");
    ("router.rejects", per_call "router.rejects" (fun c -> c.W.w_rejected), "count");
    ("workload.driver_s", median_over (driver_ns ~core_ms) tr /. 1e9, "s");
    ( "workload.driver_pct",
      100.0 *. median_over (fun r -> driver_ns ~core_ms r /. float_of_int r.LP.wall_ns) tr,
      "%" );
    ("workload.driver_s.r3000", long_driver /. 1e9, "s");
    ( "workload.driver_pct.r3000",
      100.0 *. ratio "workload.driver_pct.r3000/100" long_driver (float_of_int long.LP.wall_ns),
      "%" );
    ("engine.runs", per_call "engine.runs" (fun c -> c.W.w_rounds), "count");
    ( "engine.overhead_us",
      median_over
        (fun r ->
          let c = r.LP.cell in
          let busy = List.fold_left (fun s op -> s + (r.LP.hist op).LP.sum_ns) 0 [ "join"; "acquire"; "release" ] in
          float_of_int (c.W.w_wall_ns - busy) /. float_of_int c.W.w_rounds /. 1e3)
        tr,
      "us" );
  ]

let sim_layers ~cycle1 ~traced =
  let c1 = List.map sim_of cycle1 in
  let tr = List.map sim_of traced in
  let t = SC.totals () in
  let f = float_of_int in
  let commits_tr = f (List.fold_left (fun s r -> s + SC.commits r) 0 tr) in
  let max_of g = f (List.fold_left (fun m r -> max m (g r)) 0 c1) in
  [
    ("sim.steps_max.efficient", max_of (SC.steps_max ~algo:"efficient"), "count");
    ("sim.steps_max.adaptive", max_of (SC.steps_max ~algo:"adaptive"), "count");
    ( "sim.commits",
      ratio "sim.commits"
        (f (List.fold_left (fun s r -> s + SC.commits r) 0 c1))
        (f (List.fold_left (fun s r -> s + SC.runs r) 0 c1)),
      "count" );
    ( "sim.commit_ns",
      ratio "sim.commit_ns" (f (t.drive_ns - t.init_ns - t.check_ns - t.decide_ns)) commits_tr,
      "ns" );
    ("adversary.decide_ns", ratio "adversary.decide_ns" (f t.decide_ns) (f t.decisions), "ns");
    ("conformance.init_ms", ratio "conformance.init_ms*1e6" (f t.init_ns) (f t.inits) /. 1e6, "ms");
    ("conformance.check_ms", ratio "conformance.check_ms*1e6" (f t.check_ns) (f t.checks) /. 1e6, "ms");
    ( "pool.utilization",
      ratio "pool.utilization"
        (sumf (fun r -> Array.fold_left (fun s x -> s +. f x) 0.0 r.SC.cell_ns) tr)
        (sumf (fun r -> f r.SC.wall_ns *. f SC.jobs) tr),
      "ratio" );
  ]

(* The exact figures of the three workloads' first cycles. *)
let exact_layers ~rename ~lease ~sim =
  let get what = function Some v -> float_of_int v | None -> invalid_arg what in
  let rej, arr = Option.get lease.refused in
  [
    ("exact.steps_max", get "steps_max" sim.steps_max, "count");
    ("exact.name_max.rename", get "name_max" rename.name_max, "count");
    ("exact.name_max.lease", get "name_max" lease.name_max, "count");
    ("exact.refused_pct", 100.0 *. ratio "exact.refused_pct/100" (float_of_int rej) (float_of_int arr), "%");
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: exbench --workload {rename-oneshot|lease-poisson|sim-campaign} --seed N \
     --seconds S --trace {0|1}";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_arg v); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec >= 0 && (t = 0 || t = 1) && s >= 0 ->
      (w, s, sec, t = 1)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  let out = ".bench_out" in
  let rename, rename_inputs = rename_kind () in
  let lease, lease_inputs = lease_kind () in
  let sim, _ = sim_kind () in
  let k =
    match List.find_opt (fun k -> k.name = workload) [ rename; lease; sim ] with
    | Some k -> k
    | None -> usage ()
  in
  line "exbench %s seed=%d seconds=%d trace=%d" k.name seed seconds (Bool.to_int trace);
  k.inputs ~seed;
  let units =
    measure k ~seconds:(float_of_int seconds) ~min_cycles:(if trace then 2 else 1) ~alternate:trace
  in
  let cycle1 = first_cycle k units in
  List.iter (fun u -> line "fingerprint %s seed=%d slot=%d %s" k.name seed u.u_slot u.u_fp) cycle1;
  let checks =
    ref (k.verify (List.hd cycle1) :: determinism k units :: List.map (fun u -> u.u_check) units)
  in
  let attempted = List.fold_left (fun s u -> s + u.u_attempted) 0 units in
  let failed = List.fold_left (fun s u -> s + u.u_failed) 0 units in
  let untraced = List.filter (fun u -> not u.u_traced) units in
  let traced = List.filter (fun u -> u.u_traced) units in
  let typs = typical_of k untraced in
  let setup_s = sumf (fun b -> b.b_setup_ns) typs /. 1e9 in
  let work_per_s = work_per_s_of typs in
  let p50_ns, tail_ns, tail_note = k.latency typs untraced in
  line "units: %d untraced, %d traced; %d per cycle; repetitions per slot: %s" (List.length untraced)
    (List.length traced) k.cycle
    (String.concat " " (List.map (fun b -> string_of_int b.b_reps) typs));
  let ex = exact cycle1 in
  let show = function Some v -> string_of_int v | None -> "n/a" in
  let refused =
    match ex.refused with
    | Some (rej, arr) ->
        Printf.sprintf "%.4f %% (%d of %d arrivals)" (100.0 *. float_of_int rej /. float_of_int arr) rej arr
    | None -> "n/a"
  in
  line "unscaled %s: work_per_s %.2f 1/s (median over units); reference loop %.3f ms (median; %.3f ms at the reference speed)"
    k.name
    (Stats.median_l
       (List.map
          (fun u ->
            let w, ns = Array.fold_left (fun (w, t) (w', t') -> (w + w', t +. t')) (0, 0.0) u.u_items in
            float_of_int w /. (ns /. u.u_scale /. 1e9))
          untraced))
    (Stats.median_l (List.map (fun u -> Calib.reference_ns /. u.u_scale /. 1e6) untraced))
    (Calib.reference_ns /. 1e6);
  line "summary %s: setup_s %.6f s (median of %d+ repetitions per slot, summed over %d slots; scaled to the reference speed)" k.name setup_s
    (List.fold_left (fun m b -> min m b.b_reps) max_int typs) k.cycle;
  line "summary %s: work_per_s %.2f 1/s (%s per second; median scaled wall time of each item)" k.name work_per_s k.work;
  line "summary %s: latency_p50_us %.3f us, latency_tail_us %.3f us (%s; each figure the median of its repetitions, scaled)"
    k.name (p50_ns /. 1e3) (tail_ns /. 1e3) tail_note;
  line "summary %s: steps_max %s, name_max %s, refused_pct %s (exact, first cycle)" k.name
    (show ex.steps_max) (show ex.name_max) refused;
  let correct () = List.for_all Result.is_ok !checks in
  let report_errors () =
    List.iter (function Error e -> line "CHECK FAILED: %s" e | Ok () -> ()) !checks
  in
  if not trace then begin
    report_errors ();
    print_result ~correct:(correct ()) ~attempted ~failed
      [
        ("setup_s", setup_s, "s");
        ("work_per_s", work_per_s, "1/s");
        ("latency_p50_us", p50_ns /. 1e3, "us");
        ("latency_tail_us", tail_ns /. 1e3, "us");
      ];
    exit (if correct () then 0 else 1)
  end;
  (* traced run: one traced cycle of every other workload, then probes *)
  let slice other =
    if other == k then (cycle1, traced)
    else begin
      other.inputs ~seed;
      let us =
        List.init other.cycle (fun i ->
            Gc.compact ();
            other.setup_rep i ();
            Spans.enabled := true;
            let u = other.run_unit ~traced:true ~req:(1_000_000 + i) i in
            Spans.enabled := false;
            u)
      in
      checks :=
        other.verify (List.hd us) :: determinism other us :: List.map (fun u -> u.u_check) us
        @ !checks;
      (us, us)
    end
  in
  let overhead =
    ratio "trace.overhead_pct/100+1" work_per_s (work_per_s_of (typical_of k traced))
  in
  let r1, _ = slice rename in
  let l1, ltr = slice lease in
  let s1, str = slice sim in
  Spans.enabled := true;
  let groups = rename_inputs () in
  let instance_ms = Layers.build_instance_ms groups in
  let core_ms = Layers.build_core_ms ~seed:(lease_inputs ()).(0) in
  let k64_ms = Layers.build_k64_ms ~seed:groups.(0).RO.g_seed in
  let st_ma, st_plog, st_final, st_max = Layers.renaming_steps groups.(0) in
  line "ratio renaming.steps_max_per_process = %d (k=%d sim instance, seed %d)" st_max RO.k
    groups.(0).RO.g_seed;
  let final_n =
    RO.Eff.intermediate_names (RO.build ~seed:groups.(0).RO.g_seed (RO.B.create ()))
  in
  let cap_n = (2 * LP.cap) - 1 in
  line "snapshot sizes: final48 = %d components (k=%d final stage), cap32 = %d (2*cap-1)" final_n RO.k cap_n;
  let scan_f, upd_f, reads_f = Layers.snapshot ~n:final_n in
  let scan_c, upd_c, reads_c = Layers.snapshot ~n:cap_n in
  let (ren_ops, ren_n), (acq_ops, acq_n), (rel_ops, rel_n), registers =
    Layers.backend_counts groups.(0) ~seed
  in
  let route_ns = Layers.router_route_ns () in
  Spans.enabled := false;
  (* two engine domains: one rename pass and one lease call *)
  let d2 = Array.map (fun g -> RO.run_group ~domains:2 ~req:(-3) g) groups in
  checks := Array.to_list (Array.map (fun r -> r.RO.check) d2) @ !checks;
  let tl_med f = Stats.median (Array.map (fun r -> f r.RO.telemetry) d2) in
  let lease_d2 = LP.run_call ~domains:2 ~req:(-3) (lease_inputs ()).(0) in
  checks := LP.check lease_d2 :: !checks;
  (* one call as long as a service run where the driver's cost dominates *)
  let lease_long = LP.run_call ~rounds:LP.long_rounds ~req:(-4) (lease_inputs ()).(0) in
  checks := LP.check lease_long :: !checks;
  let f = float_of_int in
  let ns_us x = f (Exsel_native.Harness.ns_to_int x) /. 1e3 in
  let metrics =
    [
      ("build.instance_ms", instance_ms, "ms");
      ("build.core_ms", core_ms, "ms");
      ("build.k64_ms", k64_ms, "ms");
      ("renaming.steps_ma", f st_ma, "count");
      ("renaming.steps_polylog", f st_plog, "count");
      ("renaming.steps_final", f st_final, "count");
      ("snapshot.scan_us.final48", scan_f, "us");
      ("snapshot.update_us.final48", upd_f, "us");
      ("snapshot.reads_per_scan.final48", f reads_f, "count");
      ("snapshot.scan_us.cap32", scan_c, "us");
      ("snapshot.update_us.cap32", upd_c, "us");
      ("snapshot.reads_per_scan.cap32", f reads_c, "count");
      ("backend.ops_per_rename", ratio "backend.ops_per_rename" (f ren_ops) (f ren_n), "count");
      ("backend.ops_per_acquire", ratio "backend.ops_per_acquire" (f acq_ops) (f acq_n), "count");
      ("backend.ops_per_release", ratio "backend.ops_per_release" (f rel_ops) (f rel_n), "count");
      ("backend.registers", f registers, "count");
      ("router.route_ns", route_ns, "ns");
    ]
    @ lease_layers ~core_ms ~cycle1:(first_cycle lease l1) ~traced:ltr ~long:lease_long
    @ sim_layers ~cycle1:(first_cycle sim s1) ~traced:str
    @ exact_layers ~rename:(exact r1) ~lease:(exact (first_cycle lease l1)) ~sim:(exact (first_cycle sim s1))
    @ [
        ("trace.overhead_pct", 100.0 *. (overhead -. 1.0), "%");
        ("engine.spawn_us.d2", tl_med (fun tl -> ns_us tl.Exsel_native.Engine.tl_spawn_ns), "us");
        ("engine.join_us.d2", tl_med (fun tl -> ns_us tl.Exsel_native.Engine.tl_join_ns), "us");
        ("engine.utilization.d2", tl_med Exsel_native.Engine.utilization, "ratio");
        ( "rename.work_per_s.d2",
          ratio "rename.work_per_s.d2"
            (f (Array.fold_left (fun s r -> s + r.RO.named) 0 d2))
            (f (Array.fold_left (fun s r -> s + r.RO.wall_ns) 0 d2) /. 1e9),
          "1/s" );
        ( "lease.work_per_s.d2",
          ratio "lease.work_per_s.d2"
            (f lease_d2.LP.cell.Exsel_service.Workload.w_releases)
            (f lease_d2.LP.wall_ns /. 1e9),
          "1/s" );
      ]
  in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path = Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" k.name seed) in
  let n = Spans.write ~path ~workload:k.name ~seed in
  line "spans: %d written to %s" n path;
  report_errors ();
  print_result ~correct:(correct ()) ~attempted ~failed metrics;
  exit (if correct () then 0 else 1)
