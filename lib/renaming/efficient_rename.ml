module Span = Exsel_obs.Span

let span_ma = "efficient:phase=ma"
let span_polylog = "efficient:phase=polylog"
let span_final = "efficient:phase=final"

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
  val intermediate_names : t -> int
  val rename : t -> me:int -> int option
  val steps_bound : t -> int
  val registers : t -> int
end

module Make (B : Exsel_backend.Intf.S) = struct
  module MA = Moir_anderson.Make (B)
  module Polylog = Polylog_rename.Make (B)
  module Attiya = Attiya_renaming.Make (B)

  type memory = B.memory

  type t = {
    k : int;
    ma : MA.t;
    polylog : Polylog.t;
    final : Attiya.t;
  }

  let create ?params ~rng mem ~name ~k =
    if k <= 0 then invalid_arg "Efficient_rename.create: k must be positive";
    let ma = MA.create mem ~name:(name ^ ".ma") ~side:k in
    let polylog =
      Polylog.create ?params ~rng mem ~name:(name ^ ".plog") ~k
        ~inputs:(MA.capacity ma)
    in
    let final =
      Attiya.create mem ~name:(name ^ ".final")
        ~slots:(Polylog.names polylog)
        ~cap:((2 * k) - 2)
        ()
    in
    { k; ma; polylog; final }

  let k t = t.k
  let names t = (2 * t.k) - 1
  let intermediate_names t = Polylog.names t.polylog

  let rename t ~me =
    match Span.wrap span_ma (fun () -> MA.rename t.ma ~me) with
    | None -> None
    | Some ma_name -> (
        match Span.wrap span_polylog (fun () -> Polylog.rename t.polylog ~me:ma_name) with
        | None -> None
        | Some mid -> Span.wrap span_final (fun () -> Attiya.rename t.final ~slot:mid))

  let steps_bound t =
    (* The final stage's step count is data dependent; we report the
       structural part plus one representative round per contender, matching
       how EXPERIMENTS.md discusses the substituted stage. *)
    Moir_anderson.steps_bound ~side:t.k
    + Polylog.steps_bound t.polylog
    + (4 * t.k * Polylog.names t.polylog)

  let registers t =
    (t.k * (t.k + 1))
    + Polylog.registers t.polylog
    + Exsel_snapshot.Snapshot.registers ~n:(Polylog.names t.polylog)
end

include Make (Exsel_sim.Backend)
