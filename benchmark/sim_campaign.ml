(* sim-campaign: conformance campaigns for Efficient- and
   Adaptive-Rename at k = 32 over the five stock fault regimes, on the
   simulator with two pool domains.  One call is one campaign at one
   seed (10 cells); a cycle is [calls_per_cycle] calls.  No native,
   service or engine code runs; step counts are the paper's, exactly. *)

module Campaign = Exsel_conformance.Campaign
module Adapter = Exsel_conformance.Adapter
module Regime = Exsel_conformance.Regime
module Runner = Exsel_conformance.Runner
module Rng = Exsel_sim.Rng

let k = 32
let jobs = 2
let calls_per_cycle = 4
let algo_ids = [ "efficient"; "adaptive" ]
let algos = List.map (fun id -> Option.get (Adapter.find id)) algo_ids
let cells = List.length algo_ids * List.length Regime.all

let make_inputs ~seed =
  let rng = Rng.create_v2 ~seed:((seed * 15_485_863) + k) in
  Array.init calls_per_cycle (fun _ -> 1 + Rng.int rng 1_000_000_000)

(* What a call builds before any commit: one spec, instance and driver
   per cell at the call's seed, in matrix order, as [Campaign.run_cell]
   builds them with [Campaign.default]'s step multiple ([Runner.drive]
   inits the instance).  This is a copy: no public hook separates the
   campaign's own set-up from its run.  [check_setup] fails the run if
   the copy stops matching what a call does. *)
let build_specs ~seed =
  List.concat_map
    (fun (a : Adapter.t) ->
      List.map
        (fun (r : Regime.t) ->
          let spec =
            a.Adapter.make ~seed ~k ~steps_multiple:Campaign.default.Campaign.steps_multiple
          in
          (spec, spec.Runner.init (), r.Regime.make ~seed ~k))
        Regime.all)
    algos

(* An instance's processes are suspended fibers; one that is dropped
   without being run keeps its stack outside the heap.  Crash them all
   (this discontinues the fibers) before the instances are dropped. *)
let release_specs specs =
  List.iter
    (fun (_, inst, _) ->
      let rt = inst.Runner.runtime in
      List.iter (Exsel_sim.Runtime.crash rt) (Exsel_sim.Runtime.procs rt))
    specs

(* Per-domain accumulators of the traced wrappers below; registered once
   per domain and summed after the pool joins. *)
type acc = {
  mutable decide_ns : int;
  mutable decisions : int;
  mutable init_ns : int;
  mutable inits : int;
  mutable check_ns : int;
  mutable checks : int;
  mutable drive_ns : int;
  mutable run_start : int;
  mutable run_span : int;
  mutable cell_span : int;
  mutable req : int;
}

let accs : acc list ref = ref []
let accs_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a =
        {
          decide_ns = 0;
          decisions = 0;
          init_ns = 0;
          inits = 0;
          check_ns = 0;
          checks = 0;
          drive_ns = 0;
          run_start = 0;
          run_span = 0;
          cell_span = 0;
          req = 0;
        }
      in
      Mutex.lock accs_lock;
      accs := a :: !accs;
      Mutex.unlock accs_lock;
      a)

let totals () =
  Mutex.lock accs_lock;
  let l = !accs in
  Mutex.unlock accs_lock;
  let sum f = List.fold_left (fun s a -> s + f a) 0 l in
  {
    decide_ns = sum (fun a -> a.decide_ns);
    decisions = sum (fun a -> a.decisions);
    init_ns = sum (fun a -> a.init_ns);
    inits = sum (fun a -> a.inits);
    check_ns = sum (fun a -> a.check_ns);
    checks = sum (fun a -> a.checks);
    drive_ns = sum (fun a -> a.drive_ns);
    run_start = 0;
    run_span = 0;
    cell_span = 0;
    req = 0;
  }

(* Traced adapters: time [spec.init] and [instance.check], and take the
   span of one [Runner.drive] from the start of its init to the end of
   its check. *)
let traced_adapter (a : Adapter.t) =
  {
    a with
    Adapter.make =
      (fun ~seed ~k ~steps_multiple ->
        let spec = a.Adapter.make ~seed ~k ~steps_multiple in
        {
          spec with
          Runner.init =
            (fun () ->
              let acc = Domain.DLS.get acc_key in
              let t0 = Spans.now_ns () in
              acc.run_span <- Spans.fresh_id ();
              let inst = spec.Runner.init () in
              let t1 = Spans.now_ns () in
              acc.run_start <- t0;
              acc.init_ns <- acc.init_ns + (t1 - t0);
              acc.inits <- acc.inits + 1;
              Spans.record ~id:(Spans.fresh_id ()) ~name:"conformance.init"
                ~start_ns:t0 ~stop_ns:t1 ~parent:acc.run_span ~req:acc.req;
              {
                inst with
                Runner.check =
                  (fun () ->
                    let t2 = Spans.now_ns () in
                    let r = inst.Runner.check () in
                    let t3 = Spans.now_ns () in
                    acc.check_ns <- acc.check_ns + (t3 - t2);
                    acc.checks <- acc.checks + 1;
                    acc.drive_ns <- acc.drive_ns + (t3 - acc.run_start);
                    Spans.record ~id:(Spans.fresh_id ()) ~name:"conformance.check"
                      ~start_ns:t2 ~stop_ns:t3 ~parent:acc.run_span ~req:acc.req;
                    Spans.record ~id:acc.run_span ~name:"conformance.drive"
                      ~start_ns:acc.run_start ~stop_ns:t3 ~parent:acc.cell_span
                      ~req:acc.req;
                    r);
              });
        });
  }

(* Traced regimes: time every scheduling decision of the compiled
   adversary driver that [Runner.drive] calls. *)
let traced_regime (r : Regime.t) =
  {
    r with
    Regime.make =
      (fun ~seed ~k ->
        let driver = r.Regime.make ~seed ~k in
        fun rt ->
          let acc = Domain.DLS.get acc_key in
          let t0 = Spans.now_ns () in
          let d = driver rt in
          acc.decide_ns <- acc.decide_ns + (Spans.now_ns () - t0);
          acc.decisions <- acc.decisions + 1;
          d);
  }

type result = {
  report : Campaign.report;
  wall_ns : int;
  cell_ns : int array;  (** wall time of each cell, matrix order *)
}

let run_call ~traced ~req seed =
  Spans.with_span ~req "conformance.campaign" @@ fun cid ->
  let cfg =
    {
      Campaign.default with
      algos = (if traced then List.map traced_adapter algos else algos);
      regimes = (if traced then List.map traced_regime Regime.all else Regime.all);
      seeds = [ seed ];
      k;
    }
  in
  let starts = Array.make cells 0 and cell_ns = Array.make cells 0 in
  let on_event = function
    | Campaign.Cell_started { index; _ } ->
        starts.(index) <- Spans.now_ns ();
        if traced then begin
          let acc = Domain.DLS.get acc_key in
          acc.cell_span <- Spans.fresh_id ();
          acc.req <- req
        end
    | Campaign.Cell_finished { index; _ } ->
        let stop = Spans.now_ns () in
        cell_ns.(index) <- stop - starts.(index);
        if traced then
          Spans.record ~id:(Domain.DLS.get acc_key).cell_span
            ~name:"conformance.cell" ~start_ns:starts.(index) ~stop_ns:stop
            ~parent:cid ~req
    | Campaign.Cell_violated _ -> ()
  in
  let t0 = Spans.now_ns () in
  let report = Campaign.run ~jobs ~on_event cfg in
  { report; wall_ns = Spans.now_ns () - t0; cell_ns }

let commits r =
  List.fold_left (fun s c -> s + c.Campaign.c_commits) 0 r.report.Campaign.r_cells

let runs r =
  List.fold_left (fun s c -> s + c.Campaign.c_seeds_run) 0 r.report.Campaign.r_cells

let steps_max ?algo r =
  List.fold_left
    (fun m c ->
      if algo = None || algo = Some c.Campaign.c_algo then max m c.Campaign.c_max_steps
      else m)
    0 r.report.Campaign.r_cells

let check r =
  let rep = r.report in
  if rep.Campaign.r_violations <> 0 then
    let c =
      List.find (fun c -> c.Campaign.c_violation <> None) rep.Campaign.r_cells
    in
    Error
      (Printf.sprintf "%s/%s: %s" c.Campaign.c_algo c.Campaign.c_regime
         (Option.get c.Campaign.c_violation).Campaign.v_failure)
  else if List.length rep.Campaign.r_cells <> cells then Error "cell count"
  else if runs r <> cells then Error "runs: a cell skipped its seed"
  else Ok ()

let fingerprint r =
  String.concat " "
    (List.map
       (fun c ->
         Printf.sprintf "%s/%s:%d/%d" c.Campaign.c_algo c.Campaign.c_regime
           c.Campaign.c_commits c.Campaign.c_max_steps)
       r.report.Campaign.r_cells)

(* Drive the set-up copy's instances as a campaign would: each cell must
   give the call's commits and maximum local steps. *)
let check_setup ~seed r =
  let specs = build_specs ~seed in
  let got =
    List.map
      (fun (spec, inst, driver) ->
        let o =
          Runner.drive ~max_commits:Campaign.default.Campaign.max_commits
            { spec with Runner.init = (fun () -> inst) }
            ~driver
        in
        (o.Runner.commits, o.Runner.max_steps))
      specs
  in
  release_specs specs;
  let want =
    List.map (fun c -> (c.Campaign.c_commits, c.Campaign.c_max_steps)) r.report.Campaign.r_cells
  in
  if got = want then Ok ()
  else Error "set-up copy: its instances do not run as the campaign's cells did"
