(* Reference loop: a fixed computation that shares no code with exsel,
   run before and after every measured unit to follow how fast the
   machine runs at that moment.

   On a shared host the other tenants' load changes the speed of a core
   by up to a half, in stretches from a fraction of a second to minutes;
   a best or median time over ten seconds still moves with it.  The loop
   does what the measured code mostly does, double collects of a
   snapshot held in atomic registers, so it slows down with it.  It
   allocates nothing: it collects into two arrays allocated once, and
   every run starts from a finished major cycle, so it never pays for
   the measured code's garbage and does not slow down when exsel's heap
   grows.  Every time the benchmark reports is scaled to the reference
   speed, at which one run of the loop takes [reference_ns]:
   [t * reference_ns / loop_ns], with [loop_ns] measured around [t].  A
   change to exsel moves the scaled figures; a change in the machine's
   speed moves the loop too and cancels.  The loop must never change: it
   defines the unit of every reported time. *)

let reference_ns = 2e6
let n = 1024

type bank = {
  registers : (int * int) option Atomic.t array;
  a : (int * int) option array;
  b : (int * int) option array;
}

let loop { registers; a; b } =
  let t0 = Spans.now_ns () in
  let same = ref 0 in
  for r = 1 to 100 do
    for i = 0 to n - 1 do
      a.(i) <- Atomic.get registers.(i)
    done;
    for i = 0 to n - 1 do
      b.(i) <- Atomic.get registers.(i)
    done;
    let j = r land (n - 1) in
    if a.(j) == b.(j) then incr same;
    Atomic.set registers.(j) a.((j + !same) land (n - 1))
  done;
  float_of_int (Spans.now_ns () - t0)

let fresh () =
  {
    registers = Array.init n (fun i -> Atomic.make (Some (i, 0)));
    a = Array.make n None;
    b = Array.make n None;
  }

(* One bank per domain the workloads use, allocated once. *)
let banks = Array.init 2 (fun _ -> fresh ())

(* The loop's time now: on [domains] cores at once (the calling domain
   and [domains - 1] helpers, each with its own bank, as a workload with
   that many domains uses them), the mean of [reps] runs on each core,
   and the mean over the cores.  A core's speed flips between two levels
   a factor of two apart, for stretches from a millisecond to seconds;
   the mean over several runs estimates the share of fast time around
   the unit.  A full major cycle runs first, untimed. *)
let reps = 5

let mean_run bank =
  let t = ref 0.0 in
  for _ = 1 to reps do
    t := !t +. loop bank
  done;
  !t /. float_of_int reps

let run ~domains =
  Gc.full_major ();
  let helpers =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> mean_run banks.(i + 1)))
  in
  let mine = mean_run banks.(0) in
  let all = mine :: List.map Domain.join helpers in
  List.fold_left ( +. ) 0.0 all /. float_of_int domains

let scale loop_ns = reference_ns /. loop_ns
