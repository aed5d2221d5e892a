module Rng = Exsel_sim.Rng

type entry_algo = Efficient | Adaptive

let entry_algo_to_string = function
  | Efficient -> "efficient"
  | Adaptive -> "adaptive"

let entry_algo_of_string = function
  | "efficient" -> Some Efficient
  | "adaptive" -> Some Adaptive
  | _ -> None

let slots_for algo ~cap =
  match algo with
  | Efficient -> (2 * cap) - 1
  | Adaptive -> Exsel_renaming.Adaptive_rename.name_bound_for_contention ~k:cap

let width_for algo ~cap = (2 * slots_for algo ~cap) - 1

module type S = sig
  type memory
  type t

  val create :
    ?algo:entry_algo ->
    ?gen0:int array ->
    rng:Rng.t ->
    memory ->
    name:string ->
    cap:int ->
    t

  val cap : t -> int
  val slots : t -> int
  val width : t -> int
  val algo : t -> entry_algo
  val join : t -> client:int -> int option
  val acquire : t -> slot:int -> int * int
  val release : t -> slot:int -> name:int -> unit
  val holder_view : t -> int option array
  val generations : t -> int array
end

module Make (B : Exsel_backend.Intf.S) = struct
  module LL = Exsel_renaming.Long_lived.Make (B)
  module Eff = Exsel_renaming.Efficient_rename.Make (B)
  module Ada = Exsel_renaming.Adaptive_rename.Make (B)

  type memory = B.memory

  type entry = E of Eff.t | A of Ada.t

  type t = {
    cap : int;  (** admissions per incarnation (entry slots) *)
    slots : int;  (** dense slot space = long-lived components *)
    width : int;  (** local name-space width = [2·slots − 1] *)
    algo : entry_algo;
    entry : entry;
    hold : LL.t;
    gens : int B.reg array;  (** per local name, generation counter *)
  }

  let create ?(algo = Efficient) ?gen0 ~rng mem ~name ~cap =
    if cap <= 0 then invalid_arg "Core.create: cap must be positive";
    let slots = slots_for algo ~cap in
    let width = (2 * slots) - 1 in
    let entry =
      match algo with
      | Efficient -> E (Eff.create ~rng mem ~name:(name ^ ".entry") ~k:cap)
      | Adaptive -> A (Ada.create ~rng mem ~name:(name ^ ".entry") ~n:cap)
    in
    let hold = LL.create mem ~name:(name ^ ".hold") ~n:slots in
    let gen0 =
      match gen0 with
      | Some g ->
          if Array.length g <> width then
            invalid_arg "Core.create: gen0 width mismatch";
          g
      | None -> Array.make width 0
    in
    let gens =
      Array.init width (fun i ->
          B.alloc mem ~name:(name ^ ".gen[" ^ string_of_int i ^ "]") gen0.(i))
    in
    { cap; slots; width; algo; entry; hold; gens }

  let cap t = t.cap
  let slots t = t.slots
  let width t = t.width
  let algo t = t.algo

  (* The one-shot entry renamer assigns the session a dense component
     slot in the long-lived snapshot core; slots are never recycled
     within an incarnation (the router recycles the whole core once it
     is quiescent and worn out).  The reserve-lane guard keeps a
     defensive [None] on any slot beyond the core (never taken in
     certified runs). *)
  let join t ~client =
    let slot =
      match t.entry with
      | E e -> Eff.rename e ~me:client
      | A a -> Some (Ada.rename a ~me:client)
    in
    match slot with Some s when s < t.slots -> Some s | _ -> None

  (* Generation-counter soundness (DESIGN.md §14): [gens.(x)] is read
     while the caller holds [x] exclusively, and written only by a
     releasing holder before it clears the hold — so increments are
     serialized in hold order and every (name, generation) lease is
     issued at most once. *)
  let acquire t ~slot =
    let name = LL.acquire t.hold ~me:slot in
    let gen = B.read t.gens.(name) in
    (name, gen)

  let release t ~slot ~name =
    B.write t.gens.(name) (B.read t.gens.(name) + 1);
    LL.release t.hold ~me:slot

  let holder_view t = LL.holder_view t.hold
  let generations t = Array.map B.peek t.gens
end

include Make (Exsel_sim.Backend)
module Native = Make (Exsel_native.Backend)
