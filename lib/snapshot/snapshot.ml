type 'a touched = { idx : int array; vals : 'a array }

(* [view] is the embedded scan of the update that wrote the cell, kept
   sparse (only the components written by its linearization point). *)
type 'a cell = { value : 'a; seq : int; view : 'a touched }

(* Children per flag; one constant, picked by measuring the k = 48 final
   stage and the cap-32 service snapshot on native atomics. *)
let fan = 4

(* Flag-tree level sizes, leaves first: level 0 has one flag per [fan]
   consecutive components, each level above one flag per [fan] flags
   below, up to a single root. *)
let levels ~n =
  let rec go width acc =
    let up = (width + fan - 1) / fan in
    if up = 1 then List.rev (1 :: acc) else go up (up :: acc)
  in
  go n []

let registers ~n = List.fold_left ( + ) n (levels ~n)

module type S = sig
  type memory
  type 'a t

  val create : memory -> name:string -> n:int -> init:'a -> 'a t
  val size : 'a t -> int
  val update : 'a t -> me:int -> 'a -> unit
  val scan : 'a t -> me:int -> 'a array
  val scan_touched : 'a t -> me:int -> 'a touched
  val peek : 'a t -> 'a array
end

(* Written once against the BACKEND interface (DESIGN.md §12): the
   double-collect-with-helping argument only needs atomic registers, so
   the same source is linearizable on the simulator and on native
   Atomic.t cells. *)
module Make (B : Exsel_backend.Intf.S) = struct
  type memory = B.memory

  type 'a t = {
    n : int;
    init : 'a;
    cells : 'a cell B.reg array;
    flags : bool B.reg array array;  (* [flags.(l)] is level [l]; the last is the root *)
    next_seq : int array;  (* owner-local sequence counters, one per slot *)
  }

  let create mem ~name ~n ~init =
    if n <= 0 then invalid_arg "Snapshot.create: n must be positive";
    let empty = { value = init; seq = 0; view = { idx = [||]; vals = [||] } } in
    let cells =
      Array.init n (fun i -> B.alloc mem ~name:(name ^ "[" ^ string_of_int i ^ "]") empty)
    in
    let flags =
      Array.of_list
        (List.mapi
           (fun l width ->
             let prefix = name ^ ".touched" ^ string_of_int l ^ "[" in
             Array.init width (fun j ->
                 B.alloc mem ~name:(prefix ^ string_of_int j ^ "]") false))
           (levels ~n))
    in
    { n; init; cells; flags; next_seq = Array.make n 0 }

  let size t = t.n

  (* The written components of one collect, highest index first. *)
  type 'a collected = Nil | Cons of int * 'a cell * 'a collected

  (* Visit the children of flag [j] of [level], known set.  A child flag
     read as [false] proves every component below it held its initial
     value at that read, so skipping the subtree is a valid read of each
     of those components at that instant.  The loops are top-level
     functions so that a collect allocates nothing but its result. *)
  let rec visit t level j acc =
    if level = 0 then cells t (j * fan) (min t.n ((j * fan) + fan)) acc
    else
      let below = t.flags.(level - 1) in
      kids t level below (j * fan) (min (Array.length below) ((j * fan) + fan)) acc

  and cells t i hi acc =
    if i >= hi then acc
    else
      let c = B.read t.cells.(i) in
      cells t (i + 1) hi (if c.seq > 0 then Cons (i, c, acc) else acc)

  and kids t level below c hi acc =
    if c >= hi then acc
    else
      kids t level below (c + 1) hi
        (if B.read below.(c) then visit t (level - 1) c acc else acc)

  let collect t =
    let top = Array.length t.flags - 1 in
    if B.read t.flags.(top).(0) then visit t top 0 Nil else Nil

  let rec same a b =
    match (a, b) with
    | Nil, Nil -> true
    | Cons (i, c, a), Cons (j, d, b) -> i = j && c.seq = d.seq && same a b
    | Nil, Cons _ | Cons _, Nil -> false

  let to_touched col =
    let rec length acc = function Nil -> acc | Cons (_, _, r) -> length (acc + 1) r in
    match col with
    | Nil -> { idx = [||]; vals = [||] }
    | Cons (_, c0, _) ->
        let m = length 0 col in
        let idx = Array.make m 0 and vals = Array.make m c0.value in
        let rec fill k = function
          | Nil -> ()
          | Cons (i, c, r) ->
              idx.(k) <- i;
              vals.(k) <- c.value;
              fill (k - 1) r
        in
        fill (m - 1) col;
        { idx; vals }

  (* Compare a fresh collect against the previous one (both highest index
     first; every component in [prev] is also in [cur], because flags and
     sequence numbers only grow).  A component that moves for the second
     time within this scan lends its embedded view; [once] holds the
     components that have moved once so far. *)
  let rec moves cur prev once =
    match cur with
    | Nil -> Error once
    | Cons (i, c, cur') -> (
        let moved, prev' =
          match prev with
          | Cons (j, d, p) when j = i -> (d.seq <> c.seq, p)
          | _ -> (true, prev)
        in
        if not moved then moves cur' prev' once
        else if List.mem i once then Ok c.view
        else moves cur' prev' (i :: once))

  (* Double collect with embedded-view helping.  A scanner that sees the
     same component advance in two distinct collect rounds knows that
     component's owner completed a full update — including its embedded
     scan — entirely within this scan's interval, so the embedded view is
     a valid linearization point. *)
  let scan_touched t ~me:_ =
    let rec attempt prev once =
      let cur = collect t in
      if same cur prev then to_touched cur
      else
        match moves cur prev once with
        | Ok view -> view
        | Error once -> attempt cur once
    in
    attempt (collect t) []

  let scan t ~me =
    let { idx; vals } = scan_touched t ~me in
    let view = Array.make t.n t.init in
    Array.iteri (fun k i -> view.(i) <- vals.(k)) idx;
    view

  (* A slot's first update raises its leaf-to-root flags before its cell
     is written, so a written cell always sits under raised flags. *)
  let raise_flags t me =
    let j = ref (me / fan) in
    Array.iter
      (fun level ->
        B.write level.(!j) true;
        j := !j / fan)
      t.flags

  let update t ~me v =
    if me < 0 || me >= t.n then invalid_arg "Snapshot.update: slot out of range";
    let view = scan_touched t ~me in
    let seq = t.next_seq.(me) + 1 in
    t.next_seq.(me) <- seq;
    if seq = 1 then raise_flags t me;
    B.write t.cells.(me) { value = v; seq; view }

  let peek t = Array.map (fun r -> (B.peek r).value) t.cells
end

include Make (Exsel_sim.Backend)
