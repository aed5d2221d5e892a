module type S = sig
  type memory
  type t

  val create : memory -> name:string -> n:int -> t
  val n : t -> int
  val acquire : t -> me:int -> int
  val release : t -> me:int -> unit
  val holder_view : t -> int option array
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Snapshot = Exsel_snapshot.Snapshot.Make (B)

  type memory = B.memory

  type t = { n : int; snap : Attiya_renaming.cell option Snapshot.t }

  let create mem ~name ~n =
    if n <= 0 then invalid_arg "Long_lived.create: n must be positive";
    { n; snap = Snapshot.create mem ~name ~n ~init:None }

  let n t = t.n

  (* Same proposal loop as the one-shot algorithm; the difference is in the
     lifecycle — a decided name stays published until [release], and the
     component can be reused for the next acquire. *)
  let acquire t ~me =
    if me < 0 || me >= t.n then invalid_arg "Long_lived.acquire: bad slot";
    let rec round proposal =
      Snapshot.update t.snap ~me (Some { Attiya_renaming.id = me; proposal });
      match Attiya_renaming.decide ~me proposal (Snapshot.scan_touched t.snap ~me) with
      | Decided name -> name
      | Propose next -> round (Some next)
    in
    round None

  let release t ~me = Snapshot.update t.snap ~me None

  let holder_view t =
    Array.map
      (function Some { Attiya_renaming.proposal; _ } -> proposal | None -> None)
      (Snapshot.peek t.snap)
end

include Make (Exsel_sim.Backend)
