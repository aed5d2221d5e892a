(** Snapshot-based wait-free (2k−1)-renaming (Attiya et al. [14, 21]).

    Processes publish name proposals in an atomic snapshot; a process whose
    proposal is unique in its scan decides, otherwise it re-proposes the
    [rank]-th integer not proposed by others, where [rank] is the rank of
    its identifier among participants it sees.  With [k] concurrent
    participants, decided names lie in [0 .. 2k−2] and decisions are
    exclusive.

    This module is the substitute for the paper's AF(k,N) compression
    stage (Attiya–Fouren [16]) — same interface and the same name bound
    M = 2k−1 — see DESIGN.md, Substitution 2.  It is only ever applied to
    ranges of size O(k).

    The [cap] option supports the paper's Theorem 4 doubling: a process
    whose next proposal would exceed [cap] {e withdraws} (clears its
    component and reports failure), so an overloaded instance never emits
    a name outside its reserved interval. *)

type cell = { id : int; proposal : int option }
(** A participant's published component: its slot, and its current
    proposal ([None] before the first). *)

type step =
  | Decided of int  (** the proposal is unique in the view: keep it *)
  | Propose of int  (** propose this name next *)

val decide :
  me:int -> int option -> cell option Exsel_snapshot.Snapshot.touched -> step
(** [decide ~me proposal view] is one round's verdict for slot [me] after
    publishing [proposal] and scanning [view]: keep a proposal no other
    participant holds, otherwise propose the [r]-th name no other
    participant proposes, [r] being one plus the number of participants
    with a smaller slot.  Shared with {!Long_lived}. *)

(** The protocol over any {!Exsel_backend.Intf.S} substrate (it only needs
    the atomic snapshot, itself a functor over the backend). *)
module type S = sig
  type memory
  type t

  val create : memory -> name:string -> slots:int -> ?cap:int -> unit -> t
  (** [create mem ~name ~slots ?cap ()] allocates the snapshot object.
      [slots] bounds the number of distinct participants; each caller must
      use a distinct [slot] in [0 .. slots−1] (composed algorithms use the
      exclusive name of the previous stage).  [cap], if given, is the
      largest name (inclusive) the instance may assign. *)

  val slots : t -> int

  val rename : t -> slot:int -> int option
  (** Run the protocol in the given slot (which also serves as the process
      identifier for ranking).  [Some name] on decision; [None] after a
      withdrawal (only possible when [cap] is set).  Must be called from
      inside a backend process, once per slot. *)
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)

val name_bound : contenders:int -> int
(** Exclusive upper bound on decided names with [contenders] concurrent
    participants: [2·contenders − 1]. *)
