let name_of_position ~r ~c =
  let d = r + c in
  (d * (d + 1) / 2) + r

module type S = sig
  type memory
  type t

  val create : memory -> name:string -> side:int -> t
  val side : t -> int
  val capacity : t -> int
  val rename : t -> me:int -> int option
end

module Make (B : Exsel_backend.Intf.S) = struct
  module Sp = Splitter.Make (B)

  type memory = B.memory

  type t = {
    side : int;
    grid : Sp.t array array;  (* grid.(r).(c) for r + c < side *)
  }

  let create mem ~name ~side =
    if side <= 0 then invalid_arg "Moir_anderson.create: side must be positive";
    let grid =
      Array.init side (fun r ->
          Array.init (side - r) (fun c ->
              Sp.create mem
                ~name:(name ^ "(" ^ string_of_int r ^ "," ^ string_of_int c ^ ")")))
    in
    { side; grid }

  let side t = t.side
  let capacity t = t.side * (t.side + 1) / 2

  let rename t ~me =
    let rec walk r c =
      if r + c >= t.side then None
      else
        match Sp.enter t.grid.(r).(c) ~me with
        | Splitter.Stop -> Some (name_of_position ~r ~c)
        | Splitter.Right -> walk r (c + 1)
        | Splitter.Down -> walk (r + 1) c
    in
    walk 0 0
end

include Make (Exsel_sim.Backend)

let max_name_bound ~contenders = contenders * (contenders + 1) / 2
let steps_bound ~side = 4 * side
