(** Wait-free single-writer atomic snapshot from read/write registers.

    The object holds [n] components; component [i] is written only by the
    process occupying slot [i] and read by all.  [scan] returns a view of
    all components that is linearizable with every [update] — the atomic
    snapshot object of Afek, Attiya, Dolev, Gafni, Merritt and Shavit
    (JACM 1993), which the paper's Section 5 assumes as object [W].

    Implementation: unbounded sequence numbers with double collects; an
    updater embeds the view of a scan it performs before writing, and a
    scanner that observes the same component advance twice borrows that
    embedded view.

    Collects are adaptive.  A tree of monotone "touched" flags with
    fan-out {!fan} sits over the components; a slot's first [update]
    raises the flags on its leaf-to-root path before it writes its cell,
    and a collect descends only into raised flags.  A flag read as
    [false] proves that every component below it still held its initial
    value at that read, so the double-collect and helping arguments are
    unchanged.  With [t] components ever written, a collect reads
    O(t·fan·log_fan(n/t)) registers, at most [t·fan] of them cells; a
    never-written snapshot costs one read (the root flag) per collect.
    A scan takes O(t) collects, so it commits O(t²·fan·log_fan(n/t))
    reads; an update one scan plus, on a slot's first update, one write
    per tree level, plus one write.

    All operations must be called from inside a backend process
    ({!Exsel_sim.Runtime} on the simulator, an engine task natively). *)

val fan : int
(** Children per flag in the touched tree. *)

val registers : n:int -> int
(** Registers used by an [n]-component snapshot: [n] cells plus the flag
    tree's [⌈n/fan⌉ + ⌈n/fan²⌉ + … + 1] flags, about [n·fan/(fan−1)]. *)

type 'a touched = { idx : int array; vals : 'a array }
(** A sparse view: component [idx.(k)] holds [vals.(k)]; [idx] is
    strictly increasing, and every component absent from it holds the
    initial value. *)

(** The snapshot over any {!Exsel_backend.Intf.S} substrate.  The
    single-writer discipline and the helping argument only need atomic
    registers, so the functor is sound on both backends. *)
module type S = sig
  type memory
  type 'a t

  val create : memory -> name:string -> n:int -> init:'a -> 'a t
  (** [create mem ~name ~n ~init] allocates an [n]-component snapshot whose
      components all start as [init].  Uses {!registers}[ ~n] shared
      registers. *)

  val size : 'a t -> int

  val update : 'a t -> me:int -> 'a -> unit
  (** [update t ~me v] sets component [me] to [v].  Only one process may
      ever act as writer of a given slot (single-writer discipline is the
      caller's responsibility). *)

  val scan : 'a t -> me:int -> 'a array
  (** [scan t ~me] returns an atomic view of all [n] components. *)

  val scan_touched : 'a t -> me:int -> 'a touched
  (** [scan t ~me] without the dense array: the same atomic view, listing
      only the components written at least once by its linearization
      point (a component written back to the initial value is listed). *)

  val peek : 'a t -> 'a array
  (** Current component values, outside of any execution (test inspection
      only; not linearizable). *)
end

module Make (B : Exsel_backend.Intf.S) : S with type memory = B.memory

include S with type memory = Exsel_sim.Memory.t
(** The simulator instantiation. *)
