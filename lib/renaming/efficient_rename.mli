(** Efficient-Rename(k): MA → PolyLog → (2k−1)-compression (Theorem 2).

    Works for {e any} range of original names (they are only used as
    identifiers, never as indices): Moir–Anderson first maps contenders
    into [k(k+1)/2] names, PolyLog-Rename contracts that to [O(k)] when
    contraction is possible, and the snapshot-based stage compresses to
    the optimal [M = 2k−1].

    Bounds (paper): O(k) local steps, M = 2k−1, r = O(k²).

    Overflow: with more than [k] contenders the MA grid rejects the
    excess, and the final stage withdraws instead of exceeding its cap, so
    [rename] returns [None] — the detector Theorem 4's doubling needs.
    Names are exclusive under any contention. *)

(** The composition over any {!Exsel_backend.Intf.S} substrate. *)
module type S = sig
  type memory
  type t

  val create :
    ?params:Exsel_expander.Params.t ->
    rng:Exsel_sim.Rng.t ->
    memory ->
    name:string ->
    k:int ->
    t

  val k : t -> int

  val names : t -> int
  (** Bound on final names: [2k − 1]. *)

  val intermediate_names : t -> int
  (** Size of the range entering the final compression stage (the paper's
      M′), for the register-accounting experiments. *)

  val rename : t -> me:int -> int option
  (** [me] is any integer identifier, unique per process. *)

  val steps_bound : t -> int

  val registers : t -> int
  (** Registers the instance allocates: the Moir–Anderson grid, the
      PolyLog epochs and the final snapshot ({!Exsel_snapshot.Snapshot.registers},
      touched flags included). *)
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
