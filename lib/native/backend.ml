let backend = "native"

(* Registers are allocated while the memory is built on one domain,
   before the engine starts any worker, so a plain mutable counter
   suffices.  Names are not kept: a register is its bare Atomic.t cell,
   and {!Probe_backend} labels allocations when telemetry wants them. *)
type memory = { mutable count : int }

type 'a reg = 'a Atomic.t

type runner = Engine.t

let create () = { count = 0 }

let alloc mem ~name:_ init =
  mem.count <- mem.count + 1;
  Atomic.make init

let read = Atomic.get
let write = Atomic.set
let peek = Atomic.get
let registers mem = mem.count
let spawn eng ~name body = Engine.spawn eng ~name body
let yield () = Domain.cpu_relax ()
