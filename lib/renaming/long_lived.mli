(** Long-lived renaming: acquire and release names repeatedly.

    Extension beyond the paper's one-shot setting (its §1 surveys
    long-lived renaming as the natural generalisation [2, 24, 25, 41, 42]).
    The snapshot-based renaming adapts directly: a process {e holds} a name
    by keeping it published in its snapshot component and {e releases} it
    by clearing the component, after which the name may be reused.

    Guarantees:
    - {e exclusive holds}: two processes never hold the same name at
      overlapping times;
    - {e adaptive range}: a successful acquire returns a name below
      [2k̂ − 1] where [k̂] is the number of processes concurrently holding
      or contending during the acquire (point contention);
    - {e wait-free}: an acquire completes regardless of other processes'
      speeds; a crash while holding pins that name forever (the paper's
      crash model — a crashed holder is indistinguishable from a slow
      one).

    Uses one [n]-component snapshot object
    ({!Exsel_snapshot.Snapshot.registers}[ ~n] registers); its scans read
    only the components that were ever written, and a round's decision
    ({!Attiya_renaming.decide}) works on that sparse view.

    This is the exclusive-selection core of the long-lived service layer
    ({!Exsel_service.Core} holds one instance per shard and layers
    generation counters on top — DESIGN.md §14); the simulator
    instantiation below doubles as the service's reference oracle in the
    cross-validation tests. *)

(** The algorithm over any {!Exsel_backend.Intf.S} substrate. *)
module type S = sig
  type memory
  type t

  val create : memory -> name:string -> n:int -> t

  val n : t -> int

  val acquire : t -> me:int -> int
  (** Acquire a name exclusively.  [me] is the caller's slot in [0 .. n−1];
      the caller must not already hold a name.  Must run inside a backend
      process. *)

  val release : t -> me:int -> unit
  (** Release the held name (one snapshot update: a scan plus one write).
      Call only while holding. *)

  val holder_view : t -> int option array
  (** Currently published names per slot (test inspection, non-atomic). *)
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
