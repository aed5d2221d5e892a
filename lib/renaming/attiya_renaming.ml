(* A participant's published state: joined with no proposal yet, or
   proposing a concrete name.  [None] in a component means absent
   (never joined, or withdrawn). *)
type cell = { id : int; proposal : int option }

(* The [rank]-th (1-based) natural number not present in [taken]. *)
let nth_free taken rank =
  let taken = List.sort_uniq compare taken in
  let rec go candidate remaining taken =
    match taken with
    | next :: rest when next = candidate -> go (candidate + 1) remaining rest
    | _ ->
        if remaining = 1 then candidate
        else go (candidate + 1) (remaining - 1) taken
  in
  go 0 rank taken

type step = Decided of int | Propose of int

let decide ~me proposal (view : cell option Exsel_snapshot.Snapshot.touched) =
  let taken = ref [] and below = ref 0 in
  Array.iter
    (function
      | Some c when c.id <> me ->
          if c.id < me then incr below;
          Option.iter (fun p -> taken := p :: !taken) c.proposal
      | Some _ | None -> ())
    view.vals;
  match proposal with
  | Some name when not (List.mem name !taken) -> Decided name
  | Some _ | None -> Propose (nth_free !taken (!below + 1))

module type S = sig
  type memory
  type t

  val create : memory -> name:string -> slots:int -> ?cap:int -> unit -> t
  val slots : t -> int
  val rename : t -> slot:int -> int option
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Snapshot = Exsel_snapshot.Snapshot.Make (B)

  type memory = B.memory

  type t = {
    slots : int;
    cap : int option;
    snap : cell option Snapshot.t;
  }

  let create mem ~name ~slots ?cap () =
    if slots <= 0 then invalid_arg "Attiya_renaming.create: slots must be positive";
    { slots; cap; snap = Snapshot.create mem ~name ~n:slots ~init:None }

  let slots t = t.slots

  let rename t ~slot =
    if slot < 0 || slot >= t.slots then
      invalid_arg "Attiya_renaming.rename: slot out of range";
    let rec round proposal =
      Snapshot.update t.snap ~me:slot (Some { id = slot; proposal });
      match decide ~me:slot proposal (Snapshot.scan_touched t.snap ~me:slot) with
      | Decided name -> Some name
      | Propose next -> (
          match t.cap with
          | Some cap when next > cap ->
              Snapshot.update t.snap ~me:slot None;
              None
          | Some _ | None -> round (Some next))
    in
    round None
end

include Make (Exsel_sim.Backend)

let name_bound ~contenders = (2 * contenders) - 1
