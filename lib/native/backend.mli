(** The native substrate: shared registers are [Atomic.t] cells (OCaml's
    atomics are sequentially consistent, which subsumes the paper's
    atomic read/write registers), processes are {!Engine} tasks on real
    domains.

    The memory only counts allocations: there is no register file to
    index (a register {e is} its atomic cell) and allocation names are
    dropped; wrap the memory in {!Probe_backend} to label and count
    accesses per register.  [peek] is a plain
    [Atomic.get]: unlike the simulator there is no out-of-execution
    vantage point, so tests must peek only at quiescence (after
    {!Engine.run} returns). *)

include
  Exsel_backend.Intf.S
    with type 'a reg = 'a Atomic.t
     and type runner = Engine.t

val create : unit -> memory
(** A fresh register-accounting scope.  Build the algorithm (allocating
    all registers) on one domain before running the engine. *)
