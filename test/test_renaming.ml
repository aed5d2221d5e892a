(* Tests for the paper's renaming algorithms and their building blocks. *)

open Exsel_sim
open Exsel_renaming

(* Run [bodies] as concurrent processes under the given scheduling seed and
   return their results. *)
let run_concurrent ?(seed = 1) ?(crash_at = []) bodies =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let results = Array.make (List.length bodies) None in
  List.iteri
    (fun i body ->
      ignore
        (Runtime.spawn rt ~name:(Printf.sprintf "p%d" i) (fun () ->
             results.(i) <- Some (body ()))))
    bodies;
  let policy = Scheduler.random (Rng.create ~seed) in
  let policy =
    if crash_at = [] then policy else Scheduler.with_crashes ~crash_at policy
  in
  Scheduler.run ~max_commits:10_000_000 rt policy;
  (rt, results)

let distinct_somes results =
  let vals = Array.to_list results |> List.filter_map (fun r -> Option.join r) in
  List.length vals = List.length (List.sort_uniq compare vals)

(* ------------------------------------------------------------------ *)
(* Compete-For-Register (Lemma 1)                                      *)
(* ------------------------------------------------------------------ *)

let test_compete_solo_wins () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let c = Compete.create mem ~name:"c" in
  let won = ref false in
  let p = Runtime.spawn rt ~name:"solo" (fun () -> won := Compete.compete c ~me:3) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check bool) "solo contender wins" true !won;
  Alcotest.(check bool) "within step bound" true (Runtime.steps p <= Compete.steps_bound)

let test_compete_exclusive_under_schedules () =
  (* property: over many schedules and contender counts, never two winners *)
  for seed = 1 to 200 do
    let contenders = 2 + (seed mod 5) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let c = Compete.create mem ~name:"c" in
    let wins = Array.make contenders false in
    for i = 0 to contenders - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             wins.(i) <- Compete.compete c ~me:i))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    let winners = Array.to_list wins |> List.filter Fun.id |> List.length in
    if winners > 1 then Alcotest.failf "seed %d: %d winners" seed winners
  done

let test_compete_exclusive_with_crashes () =
  for seed = 1 to 100 do
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let c = Compete.create mem ~name:"c" in
    let wins = Array.make 4 false in
    for i = 0 to 3 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             wins.(i) <- Compete.compete c ~me:i))
    done;
    let rng = Rng.create ~seed in
    Scheduler.run rt
      (Scheduler.random_crashes rng ~victims:[ 0; 1 ] ~prob:0.1
         (Scheduler.random (Rng.create ~seed:(seed + 77))));
    let winners = Array.to_list wins |> List.filter Fun.id |> List.length in
    if winners > 1 then Alcotest.failf "seed %d: %d winners" seed winners
  done

let test_compete_single_use_registers () =
  let mem = Memory.create () in
  let _c = Compete.create mem ~name:"c" in
  Alcotest.(check int) "2 registers" Compete.registers_per_instance (Memory.registers mem)

(* ------------------------------------------------------------------ *)
(* Splitter and Moir-Anderson grid                                     *)
(* ------------------------------------------------------------------ *)

let test_splitter_solo_stops () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let s = Splitter.create mem ~name:"s" in
  let out = ref Splitter.Right in
  let _p = Runtime.spawn rt ~name:"p" (fun () -> out := Splitter.enter s ~me:1) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check bool) "solo stops" true (!out = Splitter.Stop)

let test_splitter_properties () =
  (* at most one Stop; never all Right; never all Down *)
  for seed = 1 to 300 do
    let contenders = 2 + (seed mod 4) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let s = Splitter.create mem ~name:"s" in
    let outs = Array.make contenders None in
    for i = 0 to contenders - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             outs.(i) <- Some (Splitter.enter s ~me:i)))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    let count o = Array.to_list outs |> List.filter (fun x -> x = Some o) |> List.length in
    if count Splitter.Stop > 1 then Alcotest.failf "seed %d: two stops" seed;
    if count Splitter.Right = contenders then Alcotest.failf "seed %d: all right" seed;
    if count Splitter.Down = contenders then Alcotest.failf "seed %d: all down" seed
  done

let test_ma_names_distinct_and_bounded () =
  for seed = 1 to 60 do
    let k = 2 + (seed mod 7) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let ma = Moir_anderson.create mem ~name:"ma" ~side:k in
    let names = Array.make k None in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Moir_anderson.rename ma ~me:(100 + i)))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    Array.iteri
      (fun i n ->
        match n with
        | None -> Alcotest.failf "seed %d: process %d walked off a big-enough grid" seed i
        | Some name ->
            if name < 0 || name >= Moir_anderson.max_name_bound ~contenders:k then
              Alcotest.failf "seed %d: name %d out of adaptive bound %d" seed name
                (Moir_anderson.max_name_bound ~contenders:k))
      names;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicate names" seed
  done

let test_ma_adaptive_names_small_under_low_contention () =
  (* big grid, few contenders: names stay within the contention bound *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let ma = Moir_anderson.create mem ~name:"ma" ~side:16 in
  let k = 3 in
  let names = Array.make k None in
  for i = 0 to k - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           names.(i) <- Moir_anderson.rename ma ~me:i))
  done;
  Scheduler.run rt (Scheduler.random (Rng.create ~seed:5));
  Array.iter
    (fun n ->
      match n with
      | Some name ->
          Alcotest.(check bool) "adaptive bound" true
            (name < Moir_anderson.max_name_bound ~contenders:k)
      | None -> Alcotest.fail "walked off")
    names

let test_ma_overflow_detection () =
  (* more contenders than the grid side: someone may overflow, and all
     assigned names remain distinct *)
  let overflowed = ref false in
  for seed = 1 to 40 do
    let side = 2 in
    let k = 6 in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let ma = Moir_anderson.create mem ~name:"ma" ~side in
    let names = Array.make k None in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Moir_anderson.rename ma ~me:i))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    if Array.exists (fun n -> n = None) names then overflowed := true;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> List.length vals then
      Alcotest.failf "seed %d: duplicate names under overflow" seed
  done;
  Alcotest.(check bool) "overflow observed at least once" true !overflowed

let test_ma_name_numbering () =
  Alcotest.(check int) "(0,0)" 0 (Moir_anderson.name_of_position ~r:0 ~c:0);
  Alcotest.(check int) "(0,1) on diag 1" 1 (Moir_anderson.name_of_position ~r:0 ~c:1);
  Alcotest.(check int) "(1,0) on diag 1" 2 (Moir_anderson.name_of_position ~r:1 ~c:0);
  Alcotest.(check int) "(2,0) on diag 2" 5 (Moir_anderson.name_of_position ~r:2 ~c:0)

(* ------------------------------------------------------------------ *)
(* Snapshot-based (2k-1)-renaming                                      *)
(* ------------------------------------------------------------------ *)

let test_attiya_solo () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let a = Attiya_renaming.create mem ~name:"a" ~slots:8 () in
  let name = ref None in
  let _p = Runtime.spawn rt ~name:"p" (fun () -> name := Attiya_renaming.rename a ~slot:5) in
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check (option int)) "solo gets smallest name" (Some 0) !name

let test_attiya_names_bounded_and_distinct () =
  for seed = 1 to 40 do
    let k = 2 + (seed mod 5) in
    let slots = 3 * k in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let a = Attiya_renaming.create mem ~name:"a" ~slots () in
    let names = Array.make k None in
    (* occupy k arbitrary distinct slots *)
    let slot_of i = (i * 3) mod slots in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Attiya_renaming.rename a ~slot:(slot_of i)))
    done;
    Scheduler.run ~max_commits:2_000_000 rt (Scheduler.random (Rng.create ~seed));
    Array.iter
      (fun n ->
        match n with
        | None -> Alcotest.failf "seed %d: no name without cap" seed
        | Some v ->
            if v < 0 || v >= Attiya_renaming.name_bound ~contenders:k then
              Alcotest.failf "seed %d: name %d outside [0,%d)" seed v
                (Attiya_renaming.name_bound ~contenders:k))
      names;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicates" seed
  done

let test_attiya_crash_tolerance () =
  (* crash one participant mid-protocol; the others still decide *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let a = Attiya_renaming.create mem ~name:"a" ~slots:4 () in
  let names = Array.make 3 None in
  let procs =
    List.init 3 (fun i ->
        Runtime.spawn rt ~name:(string_of_int i) (fun () ->
            names.(i) <- Attiya_renaming.rename a ~slot:i))
  in
  (* let everyone advance a little, crash process 0, finish the rest *)
  let p0 = List.nth procs 0 in
  for _ = 1 to 5 do
    List.iter
      (fun p -> if Runtime.status p = Runtime.Runnable then Runtime.commit rt p)
      procs
  done;
  Runtime.crash rt p0;
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check bool) "p1 decided" true (names.(1) <> None);
  Alcotest.(check bool) "p2 decided" true (names.(2) <> None);
  Alcotest.(check bool) "distinct" true (names.(1) <> names.(2))

let test_attiya_cap_withdrawal () =
  (* cap 0 with two contenders: at most one can decide name 0, the other
     must withdraw rather than exceed the cap *)
  let decided = ref 0 and withdrawn = ref 0 in
  for seed = 1 to 30 do
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let a = Attiya_renaming.create mem ~name:"a" ~slots:2 ~cap:0 () in
    let names = Array.make 2 None in
    for i = 0 to 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Attiya_renaming.rename a ~slot:i))
    done;
    Scheduler.run ~max_commits:100_000 rt (Scheduler.random (Rng.create ~seed));
    Array.iter
      (fun n ->
        match n with
        | Some 0 -> incr decided
        | Some v -> Alcotest.failf "seed %d: name %d above cap" seed v
        | None -> incr withdrawn)
      names;
    if names.(0) = Some 0 && names.(1) = Some 0 then
      Alcotest.failf "seed %d: duplicate capped name" seed
  done;
  Alcotest.(check bool) "withdrawals happened" true (!withdrawn > 0);
  Alcotest.(check bool) "decisions happened" true (!decided > 0)

(* ------------------------------------------------------------------ *)
(* Majority / Basic / PolyLog                                          *)
(* ------------------------------------------------------------------ *)

let pick_distinct rng ~bound ~count =
  let all = Array.init bound (fun i -> i) in
  Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 count)

let test_majority_at_least_half_win () =
  for seed = 1 to 25 do
    let l = 2 + (seed mod 6) in
    let inputs = 128 in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let m =
      Majority.create ~rng:(Rng.create ~seed:(seed * 13)) mem ~name:"maj" ~l ~inputs
    in
    let ids = pick_distinct (Rng.create ~seed:(seed + 500)) ~bound:inputs ~count:l in
    let names = Array.make l None in
    List.iteri
      (fun i me ->
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Majority.rename m ~me)))
      ids;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    let winners = Array.to_list names |> List.filter_map Fun.id in
    if 2 * List.length winners < l then
      Alcotest.failf "seed %d: only %d of %d won" seed (List.length winners) l;
    if List.length (List.sort_uniq compare winners) <> List.length winners then
      Alcotest.failf "seed %d: duplicate names" seed;
    List.iter
      (fun w ->
        if w < 0 || w >= Majority.names m then
          Alcotest.failf "seed %d: name %d out of range %d" seed w (Majority.names m))
      winners
  done

let test_majority_steps_bound () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let m = Majority.create ~rng:(Rng.create ~seed:3) mem ~name:"maj" ~l:4 ~inputs:256 in
  let procs =
    List.init 4 (fun i ->
        Runtime.spawn rt ~name:(string_of_int i) (fun () ->
            ignore (Majority.rename m ~me:(i * 50))))
  in
  Scheduler.run rt (Scheduler.random (Rng.create ~seed:9));
  List.iter
    (fun p ->
      Alcotest.(check bool) "steps within 5*degree" true
        (Runtime.steps p <= Majority.steps_bound m))
    procs

let test_basic_rename_all_named () =
  for seed = 1 to 15 do
    let k = 2 + (seed mod 6) in
    let inputs = 256 in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let b =
      Basic_rename.create ~rng:(Rng.create ~seed:(seed * 7)) mem ~name:"b" ~k ~inputs
    in
    let ids = pick_distinct (Rng.create ~seed:(seed + 900)) ~bound:inputs ~count:k in
    let names = Array.make k None in
    List.iteri
      (fun i me ->
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Basic_rename.rename b ~me)))
      ids;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    Array.iter
      (fun n ->
        match n with
        | None -> Alcotest.failf "seed %d: a process failed all stages" seed
        | Some v ->
            if v < 0 || v >= Basic_rename.names b then
              Alcotest.failf "seed %d: name out of range" seed)
      names;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicates" seed
  done

let test_basic_rename_stage_budgets () =
  let mem = Memory.create () in
  let b = Basic_rename.create ~rng:(Rng.create ~seed:1) mem ~name:"b" ~k:8 ~inputs:512 in
  Alcotest.(check (list int)) "budgets halve" [ 8; 4; 2; 1 ] (Basic_rename.stage_budgets b);
  Alcotest.(check int) "names match plan" (Basic_rename.plan_names ~k:8 ~inputs:512 ())
    (Basic_rename.names b)

let test_polylog_contracts_and_names () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let k = 4 in
  let inputs = 4096 in
  let p = Polylog_rename.create ~rng:(Rng.create ~seed:2) mem ~name:"plog" ~k ~inputs in
  let ranges = Polylog_rename.epoch_ranges p in
  Alcotest.(check bool) "at least one epoch for big N" true (Polylog_rename.epochs p >= 1);
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ranges strictly contract" true (decreasing ranges);
  Alcotest.(check bool) "final range much smaller than N" true
    (Polylog_rename.names p * 4 < inputs);
  let ids = pick_distinct (Rng.create ~seed:77) ~bound:inputs ~count:k in
  let names = Array.make k None in
  List.iteri
    (fun i me ->
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Polylog_rename.rename p ~me)))
    ids;
  Scheduler.run rt (Scheduler.random (Rng.create ~seed:4));
  Array.iter
    (fun n ->
      match n with
      | None -> Alcotest.fail "an epoch failed"
      | Some v ->
          Alcotest.(check bool) "within M" true (v >= 0 && v < Polylog_rename.names p))
    names;
  Alcotest.(check bool) "distinct" true
    (let vals = Array.to_list names |> List.filter_map Fun.id in
     List.length (List.sort_uniq compare vals) = k)

let test_polylog_identity_when_tiny () =
  let mem = Memory.create () in
  let p = Polylog_rename.create ~rng:(Rng.create ~seed:2) mem ~name:"plog" ~k:4 ~inputs:8 in
  Alcotest.(check int) "no epochs" 0 (Polylog_rename.epochs p);
  Alcotest.(check int) "identity range" 8 (Polylog_rename.names p);
  Alcotest.(check int) "no registers" 0 (Memory.registers mem)

(* ------------------------------------------------------------------ *)
(* Efficient / Almost-Adaptive / Adaptive                              *)
(* ------------------------------------------------------------------ *)

let test_efficient_names_optimal_range () =
  for seed = 1 to 8 do
    let k = 2 + (seed mod 5) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let e = Efficient_rename.create ~rng:(Rng.create ~seed:(seed * 3)) mem ~name:"eff" ~k in
    let names = Array.make k None in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Efficient_rename.rename e ~me:(1000 + (i * 37))))
    done;
    Scheduler.run ~max_commits:5_000_000 rt (Scheduler.random (Rng.create ~seed));
    Array.iter
      (fun n ->
        match n with
        | None -> Alcotest.failf "seed %d: failed within design contention" seed
        | Some v ->
            if v < 0 || v > (2 * k) - 2 then
              Alcotest.failf "seed %d: name %d outside [0,2k-2]" seed v)
      names;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicates" seed
  done

let test_efficient_overflow_reports_none () =
  (* contention above k: overflow must be reported, names stay exclusive *)
  let saw_none = ref false in
  for seed = 1 to 10 do
    let k = 2 in
    let procs = 5 in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let e = Efficient_rename.create ~rng:(Rng.create ~seed:(seed * 3)) mem ~name:"eff" ~k in
    let names = Array.make procs None in
    for i = 0 to procs - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Efficient_rename.rename e ~me:i))
    done;
    Scheduler.run ~max_commits:5_000_000 rt (Scheduler.random (Rng.create ~seed));
    if Array.exists (fun n -> n = None) names then saw_none := true;
    Array.iter
      (fun n ->
        match n with
        | Some v when v < 0 || v > (2 * k) - 2 ->
            Alcotest.failf "seed %d: name %d escaped the capped range" seed v
        | Some _ | None -> ())
      names;
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> List.length vals then
      Alcotest.failf "seed %d: duplicates under overflow" seed
  done;
  Alcotest.(check bool) "overflow observed" true !saw_none

let test_almost_adaptive_bound_tracks_contention () =
  for seed = 1 to 6 do
    let n = 16 in
    let inputs = 256 in
    let k = 1 + (seed mod 5) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let a =
      Almost_adaptive.create ~rng:(Rng.create ~seed:(seed * 11)) mem ~name:"aa" ~n ~inputs
    in
    let ids = pick_distinct (Rng.create ~seed:(seed + 321)) ~bound:inputs ~count:k in
    let names = Array.make k 0 in
    List.iteri
      (fun i me ->
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Almost_adaptive.rename a ~me)))
      ids;
    Scheduler.run ~max_commits:5_000_000 rt (Scheduler.random (Rng.create ~seed));
    let bound = Almost_adaptive.name_bound_for_contention a ~k in
    Array.iter
      (fun v ->
        if v < 0 || v >= bound then
          Alcotest.failf "seed %d: name %d exceeds adaptive bound %d (k=%d)" seed v bound k)
      names;
    Alcotest.(check int) "reserve untouched" 0 (Almost_adaptive.reserve_uses a);
    let vals = Array.to_list names in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicates" seed
  done

let test_adaptive_rename_paper_bound () =
  for seed = 1 to 6 do
    let n = 16 in
    let k = 1 + (seed mod 6) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let a = Adaptive_rename.create ~rng:(Rng.create ~seed:(seed * 5)) mem ~name:"ad" ~n in
    let names = Array.make k 0 in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Adaptive_rename.rename a ~me:(5000 + (i * 101))))
    done;
    Scheduler.run ~max_commits:5_000_000 rt (Scheduler.random (Rng.create ~seed));
    let bound = Adaptive_rename.name_bound_for_contention ~k in
    Array.iter
      (fun v ->
        if v < 0 || v >= bound then
          Alcotest.failf "seed %d: name %d exceeds 8k-lgk-1=%d (k=%d)" seed v bound k)
      names;
    Alcotest.(check int) "reserve untouched" 0 (Adaptive_rename.reserve_uses a);
    let vals = Array.to_list names in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicates" seed
  done

let test_adaptive_rename_with_crashes () =
  (* crashed processes must not block survivors, names stay exclusive *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let a = Adaptive_rename.create ~rng:(Rng.create ~seed:31) mem ~name:"ad" ~n:8 in
  let k = 5 in
  let names = Array.make k None in
  for i = 0 to k - 1 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
           names.(i) <- Some (Adaptive_rename.rename a ~me:i)))
  done;
  Scheduler.run ~max_commits:5_000_000 rt
    (Scheduler.with_crashes
       ~crash_at:[ (20, 0); (45, 1) ]
       (Scheduler.random (Rng.create ~seed:8)));
  (* survivors finished *)
  for i = 2 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "p%d named" i) true (names.(i) <> None)
  done;
  Alcotest.(check bool) "exclusive" true
    (let vals = Array.to_list names |> List.filter_map Fun.id in
     List.length (List.sort_uniq compare vals) = List.length vals)

(* ------------------------------------------------------------------ *)
(* Property-based tests (qcheck)                                       *)
(* ------------------------------------------------------------------ *)

let prop_compete_exclusive =
  QCheck.Test.make ~name:"compete: never two winners (any seed, 2-6 contenders)"
    ~count:300
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, contenders) ->
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let c = Compete.create mem ~name:"c" in
      let wins = Array.make contenders false in
      for i = 0 to contenders - 1 do
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               wins.(i) <- Compete.compete c ~me:i))
      done;
      Scheduler.run rt (Scheduler.random (Rng.create ~seed));
      Array.to_list wins |> List.filter Fun.id |> List.length <= 1)

let prop_ma_names_adaptive =
  QCheck.Test.make ~name:"MA: distinct names within the adaptive bound" ~count:150
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, k) ->
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let ma = Moir_anderson.create mem ~name:"ma" ~side:12 in
      let names = Array.make k None in
      for i = 0 to k - 1 do
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Moir_anderson.rename ma ~me:(i * 31)))
      done;
      Scheduler.run rt (Scheduler.random (Rng.create ~seed));
      let vals = Array.to_list names |> List.filter_map Fun.id in
      List.length vals = k
      && List.length (List.sort_uniq compare vals) = k
      && List.for_all (fun v -> v < Moir_anderson.max_name_bound ~contenders:k) vals)

let prop_attiya_optimal_range =
  QCheck.Test.make ~name:"snapshot renaming: names within 2k-1, distinct" ~count:60
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, k) ->
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let a = Attiya_renaming.create mem ~name:"a" ~slots:(4 * k) () in
      let names = Array.make k None in
      for i = 0 to k - 1 do
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Attiya_renaming.rename a ~slot:(i * 3)))
      done;
      Scheduler.run ~max_commits:500_000 rt (Scheduler.random (Rng.create ~seed));
      let vals = Array.to_list names |> List.filter_map Fun.id in
      List.length vals = k
      && List.length (List.sort_uniq compare vals) = k
      && List.for_all (fun v -> v >= 0 && v < Attiya_renaming.name_bound ~contenders:k) vals)

let prop_chain_exclusive =
  QCheck.Test.make ~name:"chain: exclusive names under any schedule" ~count:150
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, k) ->
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let c = Chain_rename.create mem ~name:"ch" ~m:((2 * k) - 1) in
      let names = Array.make k None in
      for i = 0 to k - 1 do
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Chain_rename.rename c ~me:i))
      done;
      Scheduler.run rt (Scheduler.random (Rng.create ~seed));
      let vals = Array.to_list names |> List.filter_map Fun.id in
      List.length (List.sort_uniq compare vals) = List.length vals)

let prop_polylog_exclusive_random_dims =
  QCheck.Test.make ~name:"polylog: exclusive in-range names over random (k, N, seed)"
    ~count:25
    QCheck.(triple small_int (int_range 2 8) (int_range 6 11))
    (fun (seed, k, log_n) ->
      let inputs = 1 lsl log_n in
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let p =
        Polylog_rename.create ~rng:(Rng.create ~seed:(seed + 1)) mem ~name:"pl" ~k
          ~inputs
      in
      let ids = pick_distinct (Rng.create ~seed:(seed + 2)) ~bound:inputs ~count:k in
      let names = Array.make k None in
      List.iteri
        (fun i me ->
          ignore
            (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
                 names.(i) <- Polylog_rename.rename p ~me)))
        ids;
      Scheduler.run ~max_commits:2_000_000 rt (Scheduler.random (Rng.create ~seed));
      let vals = Array.to_list names |> List.filter_map Fun.id in
      List.length vals = k
      && List.length (List.sort_uniq compare vals) = k
      && List.for_all (fun v -> v >= 0 && v < Polylog_rename.names p) vals)

let prop_adaptive_bound_random =
  QCheck.Test.make ~name:"adaptive: names within 8k-lgk-1 over random contention"
    ~count:12
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, k) ->
      let mem = Memory.create () in
      let rt = Runtime.create mem in
      let a = Adaptive_rename.create ~rng:(Rng.create ~seed:(seed + 5)) mem ~name:"ad" ~n:8 in
      let names = Array.make k 0 in
      for i = 0 to k - 1 do
        ignore
          (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
               names.(i) <- Adaptive_rename.rename a ~me:(i * 1000)))
      done;
      Scheduler.run ~max_commits:5_000_000 rt (Scheduler.random (Rng.create ~seed));
      let bound = Adaptive_rename.name_bound_for_contention ~k in
      Array.for_all (fun v -> v >= 0 && v < bound) names
      && List.length (List.sort_uniq compare (Array.to_list names)) = k)

let prop_spec_monotone =
  QCheck.Test.make ~name:"spec bounds are monotone in k and N" ~count:200
    QCheck.(pair (int_range 2 100) (int_range 2 100))
    (fun (k, extra) ->
      let n_names = 1024 * extra in
      Spec.polylog_steps ~k:(k + 1) ~n_names >= Spec.polylog_steps ~k ~n_names
      && Spec.polylog_steps ~k ~n_names:(2 * n_names) >= Spec.polylog_steps ~k ~n_names
      && Spec.efficient_names ~k:(k + 1) > Spec.efficient_names ~k
      && Spec.adaptive_names ~k:(k + 1) > Spec.adaptive_names ~k)

let prop_name_range_disjoint =
  QCheck.Test.make ~name:"name ranges are pairwise disjoint and contiguous" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 10) (int_range 0 50))
    (fun sizes ->
      let a = Name_range.allocator () in
      let ranges = List.map (Name_range.take a) sizes in
      let cover = List.concat_map (fun r -> List.init r.Name_range.size (Name_range.global r)) ranges in
      List.length cover = List.length (List.sort_uniq compare cover)
      && Name_range.used a = List.fold_left ( + ) 0 sizes)

(* ------------------------------------------------------------------ *)
(* Additional unit tests                                               *)
(* ------------------------------------------------------------------ *)

let test_basic_budgets_non_power_of_two () =
  let mem = Memory.create () in
  let b = Basic_rename.create ~rng:(Rng.create ~seed:1) mem ~name:"b" ~k:11 ~inputs:256 in
  Alcotest.(check (list int)) "11 -> 6 -> 3 -> 2 -> 1" [ 11; 6; 3; 2; 1 ]
    (Basic_rename.stage_budgets b)

let test_efficient_register_accounting () =
  (* the formula counts every register [create] allocates, the final
     snapshot's touched flags included *)
  List.iter
    (fun k ->
      let mem = Memory.create () in
      let e = Efficient_rename.create ~rng:(Rng.create ~seed:k) mem ~name:"eff" ~k in
      Alcotest.(check int)
        (Printf.sprintf "k=%d" k)
        (Memory.registers mem) (Efficient_rename.registers e))
    [ 4; 16; 48 ]

let test_efficient_rejects_bad_k () =
  let mem = Memory.create () in
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Efficient_rename.create ~rng:(Rng.create ~seed:1) mem ~name:"e" ~k:0);
       false
     with Invalid_argument _ -> true)

let test_majority_rejects_out_of_range_input () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let m = Majority.create ~rng:(Rng.create ~seed:1) mem ~name:"m" ~l:2 ~inputs:16 in
  let saw = ref false in
  ignore
    (Runtime.spawn rt ~name:"p" (fun () ->
         try ignore (Majority.rename m ~me:99)
         with Invalid_argument _ -> saw := true));
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check bool) "rejected" true !saw

let test_attiya_sequential_rank_spacing () =
  (* Sequential callers: each sees all earlier (still-published) proposals
     and proposes its rank-th free name, giving 0, 2, 4, 6 — the classic
     2k-1 pattern where the last of k sequential arrivals takes 2k-2. *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let a = Attiya_renaming.create mem ~name:"a" ~slots:8 () in
  let names = Array.make 4 None in
  for slot = 0 to 3 do
    ignore
      (Runtime.spawn rt ~name:(string_of_int slot) (fun () ->
           names.(slot) <- Attiya_renaming.rename a ~slot))
  done;
  (* sequential policy: each runs to completion in turn *)
  Scheduler.run rt (Scheduler.sequential ());
  Alcotest.(check (array (option int)))
    "rank spacing" [| Some 0; Some 2; Some 4; Some 6 |] names

let test_polylog_threading_order () =
  (* the name fed to epoch j+1 is the name won in epoch j: check the
     final name is within the last epoch's range even for max input *)
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let p = Polylog_rename.create ~rng:(Rng.create ~seed:6) mem ~name:"pl" ~k:2 ~inputs:2048 in
  QCheck.assume (Polylog_rename.epochs p >= 1);
  let got = ref None in
  ignore
    (Runtime.spawn rt ~name:"p" (fun () -> got := Polylog_rename.rename p ~me:2047));
  Scheduler.run rt (Scheduler.round_robin ());
  match !got with
  | Some v ->
      Alcotest.(check bool) "within final range" true (v < Polylog_rename.names p)
  | None -> Alcotest.fail "solo process must be renamed"

let test_moir_anderson_solo_takes_origin () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let ma = Moir_anderson.create mem ~name:"ma" ~side:4 in
  let got = ref None in
  ignore (Runtime.spawn rt ~name:"p" (fun () -> got := Moir_anderson.rename ma ~me:5));
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check (option int)) "solo stops at the origin" (Some 0) !got

(* ------------------------------------------------------------------ *)
(* Immediate-snapshot renaming                                         *)
(* ------------------------------------------------------------------ *)

let test_is_rename_solo () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let ir = Is_rename.create mem ~name:"ir" ~n:4 in
  let got = ref (-1) in
  ignore (Runtime.spawn rt ~name:"p" (fun () -> got := Is_rename.rename ir ~slot:2));
  Scheduler.run rt (Scheduler.round_robin ());
  Alcotest.(check int) "solo gets the smallest name" 0 !got

let test_is_rename_adaptive_bound () =
  for seed = 1 to 40 do
    let n = 6 in
    let k = 1 + (seed mod n) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let ir = Is_rename.create mem ~name:"ir" ~n in
    let names = Array.make k (-1) in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Is_rename.rename ir ~slot:i))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    let vals = Array.to_list names in
    if List.length (List.sort_uniq compare vals) <> k then
      Alcotest.failf "seed %d: duplicate names" seed;
    List.iter
      (fun v ->
        if v < 0 || v >= Is_rename.name_bound ~contenders:k then
          Alcotest.failf "seed %d: name %d outside k(k+1)/2=%d" seed v
            (Is_rename.name_bound ~contenders:k))
      vals
  done

(* ------------------------------------------------------------------ *)
(* Randomized loose renaming                                           *)
(* ------------------------------------------------------------------ *)

let test_randomized_solo () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let rr = Randomized_rename.create mem ~name:"rr" ~seed:4 ~k:4 ~epsilon:1.0 in
  let got = ref None in
  let p = Runtime.spawn rt ~name:"p" (fun () -> got := Randomized_rename.rename rr ~me:9) in
  Scheduler.run rt (Scheduler.round_robin ());
  (match !got with
  | Some s -> Alcotest.(check bool) "slot in table" true (s >= 0 && s < Randomized_rename.slots rr)
  | None -> Alcotest.fail "solo probe failed");
  Alcotest.(check bool) "few steps" true (Runtime.steps p <= Compete.steps_bound)

let test_randomized_exclusive_and_live () =
  let none_count = ref 0 in
  for seed = 1 to 40 do
    let k = 2 + (seed mod 6) in
    let mem = Memory.create () in
    let rt = Runtime.create mem in
    let rr =
      Randomized_rename.create mem ~name:"rr" ~seed:(seed * 17) ~k ~epsilon:1.0
    in
    let names = Array.make k None in
    for i = 0 to k - 1 do
      ignore
        (Runtime.spawn rt ~name:(string_of_int i) (fun () ->
             names.(i) <- Randomized_rename.rename rr ~me:i))
    done;
    Scheduler.run rt (Scheduler.random (Rng.create ~seed));
    let vals = Array.to_list names |> List.filter_map Fun.id in
    if List.length (List.sort_uniq compare vals) <> List.length vals then
      Alcotest.failf "seed %d: duplicate slots" seed;
    none_count := !none_count + (k - List.length vals)
  done;
  (* with a 2x-oversized table failures should be rare *)
  Alcotest.(check bool) "at most a couple of misses over 40 runs" true (!none_count <= 2)

let test_randomized_private_coins_deterministic () =
  let mem = Memory.create () in
  let rr1 = Randomized_rename.create mem ~name:"a" ~seed:5 ~k:4 ~epsilon:0.5 in
  let rr2 = Randomized_rename.create mem ~name:"b" ~seed:5 ~k:4 ~epsilon:0.5 in
  Alcotest.(check int) "same table size" (Randomized_rename.slots rr1)
    (Randomized_rename.slots rr2);
  Alcotest.(check bool) "validation" true
    (try ignore (Randomized_rename.create mem ~name:"c" ~seed:1 ~k:0 ~epsilon:1.0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Name ranges and spec formulas                                       *)
(* ------------------------------------------------------------------ *)

let test_name_range_alloc () =
  let a = Name_range.allocator ~base:10 () in
  let r1 = Name_range.take a 5 in
  let r2 = Name_range.take a 3 in
  Alcotest.(check int) "r1 base" 10 r1.Name_range.base;
  Alcotest.(check int) "r2 base" 15 r2.Name_range.base;
  Alcotest.(check int) "used" 8 (Name_range.used a);
  Alcotest.(check bool) "contains" true (Name_range.contains r1 12);
  Alcotest.(check bool) "not contains" false (Name_range.contains r1 15);
  Alcotest.(check int) "global" 16 (Name_range.global r2 1);
  Alcotest.(check bool) "global out of range rejected" true
    (try ignore (Name_range.global r2 3); false with Invalid_argument _ -> true)

let test_spec_formulas () =
  Alcotest.(check int) "efficient names" 15 (Spec.efficient_names ~k:8);
  Alcotest.(check int) "adaptive names" (64 - 3 - 1) (Spec.adaptive_names ~k:8);
  Alcotest.(check bool) "lower bound at least 1" true
    (Spec.lower_bound_steps ~k:8 ~n_names:1024 ~m:16 ~r:64 >= 1);
  Alcotest.(check int) "lower bound capped by k-2" 2
    (Spec.lower_bound_steps ~k:4 ~n_names:max_int ~m:8 ~r:4 - 1);
  Alcotest.(check bool) "polylog steps grows with N" true
    (Spec.polylog_steps ~k:8 ~n_names:1_000_000 > Spec.polylog_steps ~k:8 ~n_names:1024)

let () =
  ignore run_concurrent;
  ignore distinct_somes;
  Alcotest.run "exsel_renaming"
    [
      ( "compete",
        [
          Alcotest.test_case "solo wins" `Quick test_compete_solo_wins;
          Alcotest.test_case "exclusive (200 schedules)" `Quick test_compete_exclusive_under_schedules;
          Alcotest.test_case "exclusive with crashes" `Quick test_compete_exclusive_with_crashes;
          Alcotest.test_case "register accounting" `Quick test_compete_single_use_registers;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "solo stops" `Quick test_splitter_solo_stops;
          Alcotest.test_case "properties (300 schedules)" `Quick test_splitter_properties;
        ] );
      ( "moir-anderson",
        [
          Alcotest.test_case "distinct bounded names" `Quick test_ma_names_distinct_and_bounded;
          Alcotest.test_case "adaptive small names" `Quick test_ma_adaptive_names_small_under_low_contention;
          Alcotest.test_case "overflow detection" `Quick test_ma_overflow_detection;
          Alcotest.test_case "name numbering" `Quick test_ma_name_numbering;
        ] );
      ( "attiya",
        [
          Alcotest.test_case "solo" `Quick test_attiya_solo;
          Alcotest.test_case "bounded distinct names" `Quick test_attiya_names_bounded_and_distinct;
          Alcotest.test_case "crash tolerance" `Quick test_attiya_crash_tolerance;
          Alcotest.test_case "cap withdrawal" `Quick test_attiya_cap_withdrawal;
        ] );
      ( "majority",
        [
          Alcotest.test_case "at least half win" `Quick test_majority_at_least_half_win;
          Alcotest.test_case "steps bound" `Quick test_majority_steps_bound;
        ] );
      ( "basic-rename",
        [
          Alcotest.test_case "all named" `Quick test_basic_rename_all_named;
          Alcotest.test_case "stage budgets" `Quick test_basic_rename_stage_budgets;
        ] );
      ( "polylog-rename",
        [
          Alcotest.test_case "contracts and names" `Quick test_polylog_contracts_and_names;
          Alcotest.test_case "identity when tiny" `Quick test_polylog_identity_when_tiny;
        ] );
      ( "efficient-rename",
        [
          Alcotest.test_case "optimal range" `Quick test_efficient_names_optimal_range;
          Alcotest.test_case "overflow reports" `Quick test_efficient_overflow_reports_none;
          Alcotest.test_case "register accounting" `Quick test_efficient_register_accounting;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "almost-adaptive bound" `Quick test_almost_adaptive_bound_tracks_contention;
          Alcotest.test_case "adaptive paper bound" `Quick test_adaptive_rename_paper_bound;
          Alcotest.test_case "adaptive with crashes" `Quick test_adaptive_rename_with_crashes;
        ] );
      ( "ranges-and-spec",
        [
          Alcotest.test_case "name ranges" `Quick test_name_range_alloc;
          Alcotest.test_case "spec formulas" `Quick test_spec_formulas;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_compete_exclusive;
          QCheck_alcotest.to_alcotest prop_ma_names_adaptive;
          QCheck_alcotest.to_alcotest prop_attiya_optimal_range;
          QCheck_alcotest.to_alcotest prop_chain_exclusive;
          QCheck_alcotest.to_alcotest prop_polylog_exclusive_random_dims;
          QCheck_alcotest.to_alcotest prop_adaptive_bound_random;
          QCheck_alcotest.to_alcotest prop_spec_monotone;
          QCheck_alcotest.to_alcotest prop_name_range_disjoint;
        ] );
      ( "is-rename",
        [
          Alcotest.test_case "solo name zero" `Quick test_is_rename_solo;
          Alcotest.test_case "adaptive triangular bound" `Quick test_is_rename_adaptive_bound;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "solo" `Quick test_randomized_solo;
          Alcotest.test_case "exclusive and live" `Quick test_randomized_exclusive_and_live;
          Alcotest.test_case "coins deterministic" `Quick test_randomized_private_coins_deterministic;
        ] );
      ( "edges",
        [
          Alcotest.test_case "basic budgets non-power-of-2" `Quick test_basic_budgets_non_power_of_two;
          Alcotest.test_case "efficient rejects k=0" `Quick test_efficient_rejects_bad_k;
          Alcotest.test_case "majority rejects bad input" `Quick test_majority_rejects_out_of_range_input;
          Alcotest.test_case "attiya sequential rank spacing" `Quick test_attiya_sequential_rank_spacing;
          Alcotest.test_case "polylog threading" `Quick test_polylog_threading_order;
          Alcotest.test_case "MA solo takes origin" `Quick test_moir_anderson_solo_takes_origin;
        ] );
    ]
