(* rename-oneshot: the paper's one-shot use.  A closed loop with one
   client runs a seeded sequence of groups; each group builds a fresh
   Efficient-Rename instance for [k] contenders on the native backend,
   renames every contender on the engine and checks the decision log with
   [Harness.check].  k = 48 sits below the k = 64 expander-certification
   cliff, so renaming, not the build, dominates a group. *)

module B = Exsel_native.Backend
module Engine = Exsel_native.Engine
module Harness = Exsel_native.Harness
module Eff = Exsel_renaming.Efficient_rename.Make (B)
module Rng = Exsel_sim.Rng

let k = 48

(* One pass is [groups_per_pass] groups: 24 × 48 = 1152 per-process
   latencies, so the pass p99 has 11 samples beyond it. *)
let groups_per_pass = 24

type group = { g_seed : int; g_ids : int array }

(* Distinct arbitrary identifiers: the algorithm only compares them. *)
let make_inputs ~seed =
  let rng = Rng.create_v2 ~seed:((seed * 7919) + k) in
  Array.init groups_per_pass (fun _ ->
      let g_seed = 1 + Rng.int rng 1_000_000_000 in
      let seen = Hashtbl.create k in
      let ids = Array.make k 0 in
      let i = ref 0 in
      while !i < k do
        let id = Rng.int rng (1 lsl 30) in
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          ids.(!i) <- id;
          incr i
        end
      done;
      { g_seed; g_ids = ids })

let task_names = Array.init k (Printf.sprintf "p%d")

let build ~seed mem = Eff.create ~rng:(Rng.create ~seed) mem ~name:"ef" ~k

type result = {
  wall_ns : int;  (** the whole group: build, renames and check *)
  named : int;
  max_name : int;
  names : int option array;
  latency_ns : int array;
  check : (unit, string) Stdlib.result;
  telemetry : Engine.telemetry;
}

(* One group, build included.  [req] tags the group's spans. *)
let run_group ?(domains = 1) ~req g =
  Spans.with_span ~req "rename.group" @@ fun gid ->
  let start = Spans.now_ns () in
  let mem = B.create () in
  let inst =
    Spans.with_span ~parent:gid ~req "renaming.build" (fun _ ->
        build ~seed:g.g_seed mem)
  in
  let names = Array.make k None in
  let latency = Array.make k 0L in
  let engine = Engine.create () in
  let eid = Spans.fresh_id () in
  Array.iteri
    (fun i id ->
      Engine.spawn engine ~name:task_names.(i) (fun () ->
          let t0 = Monotonic_clock.now () in
          let r =
            Spans.with_span ~parent:eid ~req "renaming.rename" (fun _ ->
                Eff.rename inst ~me:id)
          in
          let t1 = Monotonic_clock.now () in
          names.(i) <- r;
          latency.(i) <- Int64.sub t1 t0))
    g.g_ids;
  let t0 = Spans.now_ns () in
  Engine.run engine ~domains;
  if !Spans.enabled then
    Spans.record ~id:eid ~name:"engine.run" ~start_ns:t0
      ~stop_ns:(Spans.now_ns ()) ~parent:gid ~req;
  let tl = Option.get (Engine.telemetry engine) in
  let run =
    {
      Harness.algo = "efficient";
      n = k;
      domains;
      seed = g.g_seed;
      ids = g.g_ids;
      names;
      latency_ns = latency;
      wall_ns = Engine.wall_ns tl;
      bound = Eff.names inst;
      registers = B.registers mem;
      telemetry = tl;
      warmup = 0;
      warmup_ns = 0L;
      reg_stats = [];
    }
  in
  let check =
    Spans.with_span ~parent:gid ~req "native.check" (fun _ -> Harness.check run)
  in
  {
    wall_ns = Spans.now_ns () - start;
    named = Harness.decided run;
    max_name =
      Array.fold_left (fun m o -> match o with Some x -> max m x | None -> m) (-1) names;
    names;
    latency_ns = Array.map Harness.ns_to_int latency;
    check;
    telemetry = tl;
  }
