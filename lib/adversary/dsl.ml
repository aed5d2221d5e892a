(* Adversary DSL: composable scheduling/fault terms compiled to drivers.

   Compilation threads an *eligibility* predicate down the term: every
   base scheduler draws uniformly over the runnable processes no
   surrounding combinator has excluded (frozen victims, capped
   processes), and makes *no* RNG draw when that set is empty.  That
   discipline is what makes the legacy-regime terms draw-for-draw
   identical to the historical closures in lib/conformance/regime.ml:
   with an all-pass predicate each base consumes exactly one draw per
   decision from exactly the legacy stream. *)

module Runtime = Exsel_sim.Runtime
module Rng = Exsel_sim.Rng
module Freeze = Exsel_lowerbound.Freeze

type victims = Half of int | Pids of int list

type window = Legacy | Window of int * int

type expr =
  | Uniform
  | Lockstep
  | First
  | Halt
  | Crash_points of victims * expr
  | Crash_on_write of victims * expr
  | Freeze of victims * window * expr
  | Cap of int * expr
  | Budget of int * expr
  | Seq of int * expr * expr

let legacy_random = Uniform
let legacy_crash_half = Crash_points (Half 0, Uniform)
let legacy_crash_on_write = Crash_on_write (Half 0, Uniform)
let legacy_freeze = Freeze (Half 2, Legacy, Uniform)
let legacy_lockstep = Lockstep

(* ------------------------------------------------------------------ *)
(* Text form                                                           *)
(* ------------------------------------------------------------------ *)

let victims_to_string = function
  | Half 0 -> "half"
  | Half s -> Printf.sprintf "half+%d" s
  | Pids ps -> "[" ^ String.concat "," (List.map string_of_int ps) ^ "]"

let rec to_string = function
  | Uniform -> "uniform"
  | Lockstep -> "lockstep"
  | First -> "first"
  | Halt -> "halt"
  | Crash_points (v, e) ->
      Printf.sprintf "crash(%s, %s)" (victims_to_string v) (to_string e)
  | Crash_on_write (v, e) ->
      Printf.sprintf "crashw(%s, %s)" (victims_to_string v) (to_string e)
  | Freeze (v, Legacy, e) ->
      Printf.sprintf "freeze(%s, %s)" (victims_to_string v) (to_string e)
  | Freeze (v, Window (a, b), e) ->
      Printf.sprintf "freeze(%s, %d..%d, %s)" (victims_to_string v) a b
        (to_string e)
  | Cap (c, e) -> Printf.sprintf "cap(%d, %s)" c (to_string e)
  | Budget (b, e) -> Printf.sprintf "budget(%d, %s)" b (to_string e)
  | Seq (n, e1, Halt) -> Printf.sprintf "phase(%d, %s)" n (to_string e1)
  | Seq (n, e1, e2) ->
      Printf.sprintf "phase(%d, %s) >> %s" n (to_string e1) (to_string e2)

let rec crash_free = function
  | Uniform | Lockstep | First | Halt -> true
  | Crash_points _ | Crash_on_write _ -> false
  | Freeze (_, _, e) | Cap (_, e) | Budget (_, e) -> crash_free e
  | Seq (_, e1, e2) -> crash_free e1 && crash_free e2

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type tok =
  | Id of string
  | Num of int
  | LPar
  | RPar
  | LBrk
  | RBrk
  | Comma
  | Plus
  | Arrow  (* >> *)
  | DotDot

exception Bad of string

let lex s =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' -> emit LPar; incr i
    | ')' -> emit RPar; incr i
    | '[' -> emit LBrk; incr i
    | ']' -> emit RBrk; incr i
    | ',' -> emit Comma; incr i
    | '+' -> emit Plus; incr i
    | '>' ->
        if !i + 1 < n && s.[!i + 1] = '>' then begin
          emit Arrow;
          i := !i + 2
        end
        else raise (Bad (Printf.sprintf "stray '>' at offset %d" !i))
    | '.' ->
        if !i + 1 < n && s.[!i + 1] = '.' then begin
          emit DotDot;
          i := !i + 2
        end
        else raise (Bad (Printf.sprintf "stray '.' at offset %d" !i))
    | '0' .. '9' ->
        let j = ref !i in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        emit (Num (int_of_string (String.sub s !i (!j - !i))));
        i := !j
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref !i in
        let word c =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
        in
        while !j < n && word s.[!j] do
          incr j
        done;
        emit (Id (String.lowercase_ascii (String.sub s !i (!j - !i))));
        i := !j
    | c -> raise (Bad (Printf.sprintf "unexpected character %C at offset %d" c !i)));
  done;
  List.rev !toks

let tok_name = function
  | Id s -> Printf.sprintf "%S" s
  | Num n -> string_of_int n
  | LPar -> "'('"
  | RPar -> "')'"
  | LBrk -> "'['"
  | RBrk -> "']'"
  | Comma -> "','"
  | Plus -> "'+'"
  | Arrow -> "'>>'"
  | DotDot -> "'..'"

let expect t = function
  | t' :: rest when t' = t -> rest
  | t' :: _ -> raise (Bad (Printf.sprintf "expected %s, found %s" (tok_name t) (tok_name t')))
  | [] -> raise (Bad (Printf.sprintf "expected %s at end of input" (tok_name t)))

let num = function
  | Num n :: rest -> (n, rest)
  | t :: _ -> raise (Bad (Printf.sprintf "expected a number, found %s" (tok_name t)))
  | [] -> raise (Bad "expected a number at end of input")

let positive what n =
  if n <= 0 then raise (Bad (Printf.sprintf "%s must be positive (got %d)" what n))

let parse_victims = function
  | Id "half" :: Plus :: rest ->
      let s, rest = num rest in
      (Half s, rest)
  | Id "half" :: rest -> (Half 0, rest)
  | LBrk :: RBrk :: rest -> (Pids [], rest)
  | LBrk :: rest ->
      let rec pids acc rest =
        let p, rest = num rest in
        match rest with
        | Comma :: rest -> pids (p :: acc) rest
        | RBrk :: rest -> (Pids (List.rev (p :: acc)), rest)
        | t :: _ ->
            raise (Bad (Printf.sprintf "expected ',' or ']', found %s" (tok_name t)))
        | [] -> raise (Bad "unterminated pid list")
      in
      pids [] rest
  | t :: _ ->
      raise
        (Bad (Printf.sprintf "expected victims (half, half+N or [pids]), found %s" (tok_name t)))
  | [] -> raise (Bad "expected victims at end of input")

(* parse_term returns [`Plain e | `Phased (n, e)]: only a phase(...) item
   may be followed by '>>'. *)
let rec parse_expr toks =
  let item, rest = parse_term toks in
  match (item, rest) with
  | `Phased (n, e), Arrow :: rest ->
      let tail, rest = parse_expr rest in
      (Seq (n, e, tail), rest)
  | `Plain _, Arrow :: _ ->
      raise (Bad "only phase(N, ...) may precede '>>' (the left side needs a decision budget)")
  | `Phased (n, e), rest -> (Seq (n, e, Halt), rest)
  | `Plain e, rest -> (e, rest)

and parse_term = function
  | Id "uniform" :: rest -> (`Plain Uniform, rest)
  | Id "lockstep" :: rest -> (`Plain Lockstep, rest)
  | Id "first" :: rest -> (`Plain First, rest)
  | Id "halt" :: rest -> (`Plain Halt, rest)
  | Id "cap" :: LPar :: rest ->
      let c, rest = num rest in
      positive "cap" c;
      let e, rest = parse_expr (expect Comma rest) in
      (`Plain (Cap (c, e)), expect RPar rest)
  | Id "budget" :: LPar :: rest ->
      let b, rest = num rest in
      positive "budget" b;
      let e, rest = parse_expr (expect Comma rest) in
      (`Plain (Budget (b, e)), expect RPar rest)
  | Id "crash" :: LPar :: rest ->
      let v, rest = parse_victims rest in
      let e, rest = parse_expr (expect Comma rest) in
      (`Plain (Crash_points (v, e)), expect RPar rest)
  | Id "crashw" :: LPar :: rest ->
      let v, rest = parse_victims rest in
      let e, rest = parse_expr (expect Comma rest) in
      (`Plain (Crash_on_write (v, e)), expect RPar rest)
  | Id "freeze" :: LPar :: rest -> (
      let v, rest = parse_victims rest in
      let rest = expect Comma rest in
      match rest with
      | Num a :: DotDot :: rest ->
          let b, rest = num rest in
          if b < a then
            raise (Bad (Printf.sprintf "freeze window %d..%d is inverted" a b));
          let e, rest = parse_expr (expect Comma rest) in
          (`Plain (Freeze (v, Window (a, b), e)), expect RPar rest)
      | rest ->
          let e, rest = parse_expr rest in
          (`Plain (Freeze (v, Legacy, e)), expect RPar rest))
  | Id "phase" :: LPar :: rest ->
      let n, rest = num rest in
      positive "phase" n;
      let e, rest = parse_expr (expect Comma rest) in
      (`Phased (n, e), expect RPar rest)
  | LPar :: rest ->
      let e, rest = parse_expr rest in
      (`Plain e, expect RPar rest)
  | t :: _ -> raise (Bad (Printf.sprintf "unexpected %s" (tok_name t)))
  | [] -> raise (Bad "unexpected end of input")

let parse s =
  match lex s with
  | exception Bad msg -> Error msg
  | toks -> (
      match parse_expr toks with
      | e, [] -> Ok e
      | _, t :: _ -> Error (Printf.sprintf "trailing %s after expression" (tok_name t))
      | exception Bad msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type decision = Commit of Runtime.proc | Crash of Runtime.proc

type driver = Runtime.t -> decision option

(* ⌈k/2⌉ distinct victim pids, uniform over [0, k) — the exact selection
   (seed salt, shuffle, prefix) every crash/freeze regime has used since
   PR 4, so victim sets are unchanged. *)
let pick_victims ~seed ~k =
  let a = Array.init k Fun.id in
  Rng.shuffle (Rng.create ~seed:(seed lxor 0x9e3779b9)) a;
  Array.to_list (Array.sub a 0 ((k + 1) / 2))

let victim_pids ~seed ~k = function
  | Half salt -> pick_victims ~seed:(seed + salt) ~k
  | Pids ps -> List.filter (fun p -> p >= 0 && p < k) ps

(* A compiled node decides over the processes [frozen] has not excluded.
   Base schedulers draw nothing when the eligible set is empty — the
   invariant that keeps wrapped retries (freeze thaw, cap relaxation)
   from perturbing the stream. *)
type cnode = Runtime.t -> frozen:(Runtime.proc -> bool) -> decision option

(* The root's exclusion.  Base schedulers recognise it by physical
   equality and skip the per-process [frozen] tests. *)
let nothing_frozen (_ : Runtime.proc) = false

let compile expr ~seed ~k =
  (* Seed allocation: the first scheduler stream and the first crash
     plan land on the exact legacy seeds (seed, seed + 1); further
     occurrences of either kind — which no legacy regime has — step far
     away so streams stay distinct. *)
  let sched_count = ref 0 and plan_count = ref 0 in
  let sched_seed () =
    let c = !sched_count in
    incr sched_count;
    if c = 0 then seed else seed + (1_000_003 * c)
  in
  let plan_seed () =
    let c = !plan_count in
    incr plan_count;
    if c = 0 then seed + 1 else seed + 1 + (1_000_003 * c) + 499
  in
  let uniform () : cnode =
    let rng = Rng.create ~seed:(sched_seed ()) in
    fun rt ~frozen ->
      if frozen == nothing_frozen then begin
        (* the draw [uniform_avoiding] makes, without its two passes *)
        let eligible = Runtime.num_runnable rt in
        if eligible = 0 then None
        else Some (Commit (Runtime.nth_runnable rt (Rng.int rng eligible)))
      end
      else
        match Freeze.uniform_avoiding ~rng ~frozen rt with
        | Some p -> Some (Commit p)
        | None -> None
  in
  let lockstep () : cnode =
    let rng = Rng.create ~seed:(sched_seed ()) in
    fun rt ~frozen ->
      (* one pass for the least step count and how many share it, one to
         pick the drawn one among them *)
      let min_steps = ref max_int and count = ref 0 in
      Runtime.iter_runnable rt (fun p ->
          if not (frozen p) then begin
            let s = Runtime.steps p in
            if s < !min_steps then begin
              min_steps := s;
              count := 1
            end
            else if s = !min_steps then incr count
          end);
      if !count = 0 then None
      else begin
        let j = Rng.int rng !count in
        let chosen = ref None in
        let i = ref 0 in
        Runtime.iter_runnable rt (fun p ->
            if (not (frozen p)) && Runtime.steps p = !min_steps then begin
              if !i = j then chosen := Some p;
              incr i
            end);
        match !chosen with Some p -> Some (Commit p) | None -> None
      end
  in
  let first () : cnode =
   fun rt ~frozen ->
    let chosen = ref None in
    Runtime.iter_runnable rt (fun p ->
        if !chosen = None && not (frozen p) then chosen := Some p);
    Option.map (fun p -> Commit p) !chosen
  in
  let rec go = function
    | Uniform -> uniform ()
    | Lockstep -> lockstep ()
    | First -> first ()
    | Halt -> fun _ ~frozen:_ -> None
    | Crash_points (v, e) ->
        let plan_rng = Rng.create ~seed:(plan_seed ()) in
        let remaining =
          ref
            (List.mapi
               (fun i pid -> (pid, Rng.int plan_rng (4 * k * (i + 1))))
               (victim_pids ~seed ~k v))
        in
        let inner = go e in
        fun rt ~frozen ->
          let rec due () =
            match
              List.find_opt (fun (_, at) -> Runtime.commits rt >= at) !remaining
            with
            | Some entry ->
                remaining := List.filter (fun e -> e <> entry) !remaining;
                let p = Runtime.proc_by_pid rt (fst entry) in
                (* a due victim that already decided or crashed is
                   skipped, never issued a crash *)
                if Runtime.status p = Runtime.Runnable then Some (Crash p)
                else due ()
            | None -> inner rt ~frozen
          in
          due ()
    | Crash_on_write (v, e) ->
        let remaining = ref (victim_pids ~seed ~k v) in
        let inner = go e in
        let write_pending p =
          Runtime.status p = Runtime.Runnable
          && match Runtime.pending p with
             | Some (Runtime.Write _) -> true
             | Some (Runtime.Read _) | None -> false
        in
        fun rt ~frozen ->
          (* drop victims that already decided or crashed: they can
             never have a pending write again *)
          remaining :=
            List.filter
              (fun pid ->
                Runtime.status (Runtime.proc_by_pid rt pid) = Runtime.Runnable)
              !remaining;
          (match
             List.find_opt
               (fun pid -> write_pending (Runtime.proc_by_pid rt pid))
               !remaining
           with
          | Some pid ->
              remaining := List.filter (fun x -> x <> pid) !remaining;
              Some (Crash (Runtime.proc_by_pid rt pid))
          | None -> inner rt ~frozen)
    | Freeze (v, window, e) ->
        let vs = victim_pids ~seed ~k v in
        let freeze_at, thaw_at =
          match window with
          | Legacy ->
              let f = 4 + (k / 2) in
              (f, f + (32 * k))
          | Window (a, b) -> (a, b)
        in
        if thaw_at < freeze_at then
          invalid_arg "Dsl.compile: freeze window is inverted";
        let thawed_early = ref false in
        let inner = go e in
        fun rt ~frozen ->
          let clock = Runtime.commits rt in
          let in_window =
            (not !thawed_early) && clock >= freeze_at && clock < thaw_at
          in
          if not in_window then inner rt ~frozen
          else begin
            let frozen' p = frozen p || List.mem (Runtime.pid p) vs in
            match inner rt ~frozen:frozen' with
            | Some _ as r -> r
            | None ->
                (* every eligible process is frozen: thaw permanently so
                   the execution completes and liveness stays checkable *)
                thawed_early := true;
                inner rt ~frozen
          end
    | Cap (c, e) ->
        let inner = go e in
        let last = ref (-1) in
        let run = ref 0 in
        let note = function
          | Some (Commit p) as r ->
              let pid = Runtime.pid p in
              if pid = !last then incr run
              else begin
                last := pid;
                run := 1
              end;
              r
          | r -> r
        in
        fun rt ~frozen ->
          let capped p = !run >= c && Runtime.pid p = !last in
          (match inner rt ~frozen:(fun p -> frozen p || capped p) with
          | Some _ as r -> note r
          | None ->
              (* only the capped process remains: relax the cap rather
                 than stall the execution *)
              note (inner rt ~frozen))
    | Budget (b, e) ->
        let inner = go e in
        fun rt ~frozen ->
          (* census of runnable pending writers per register *)
          let counts : (int, int) Hashtbl.t = Hashtbl.create 8 in
          Runtime.iter_runnable rt (fun p ->
              match Runtime.pending p with
              | Some (Runtime.Write r) ->
                  Hashtbl.replace counts r
                    (1 + Option.value (Hashtbl.find_opt counts r) ~default:0)
              | Some (Runtime.Read _) | None -> ());
          let best = ref None in
          Hashtbl.iter
            (fun r c ->
              if c > b then
                match !best with
                | Some (r0, c0) when c0 > c || (c0 = c && r0 < r) -> ()
                | _ -> best := Some (r, c))
            counts;
          (match !best with
          | None -> inner rt ~frozen
          | Some (r, _) ->
              (* over budget: forced drain of the most-contended
                 register's lowest-pid eligible writer *)
              let chosen = ref None in
              Runtime.iter_runnable rt (fun p ->
                  if
                    (not (frozen p))
                    && Runtime.pending p = Some (Runtime.Write r)
                  then
                    match !chosen with
                    | Some q when Runtime.pid q <= Runtime.pid p -> ()
                    | _ -> chosen := Some p);
              (match !chosen with
              | Some p -> Some (Commit p)
              | None -> inner rt ~frozen))
    | Seq (n, e1, e2) ->
        let c1 = go e1 in
        let c2 = go e2 in
        let issued = ref 0 in
        let active = ref true in
        fun rt ~frozen ->
          if !active && !issued < n then (
            match c1 rt ~frozen with
            | Some _ as r ->
                incr issued;
                r
            | None ->
                active := false;
                c2 rt ~frozen)
          else begin
            active := false;
            c2 rt ~frozen
          end
  in
  let root = go expr in
  fun rt -> root rt ~frozen:nothing_frozen
