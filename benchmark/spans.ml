(* In-memory span recorder for the traced run.  A span is (id, name,
   start, end, parent, request id); spans are kept per domain in
   buffers registered once per domain, and written as one JSON document
   when the benchmark exits.  Recording is off unless [enabled] is set,
   so untraced passes pay one boolean test per call site. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;
  req : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let cap = 1_000_000
let next_id = Atomic.make 1
let recorded = Atomic.make 0
let dropped = Atomic.make 0
let lock = Mutex.create ()
let buffers : span list ref list ref = ref []

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.lock lock;
      buffers := b :: !buffers;
      Mutex.unlock lock;
      b)

let fresh_id () = if !enabled then Atomic.fetch_and_add next_id 1 else 0

let record ~id ~name ~start_ns ~stop_ns ~parent ~req =
  if Atomic.fetch_and_add recorded 1 < cap then begin
    let b = Domain.DLS.get buffer in
    b := { id; name; start_ns; stop_ns; parent; req } :: !b
  end
  else Atomic.incr dropped

(* [with_span name ~parent ~req f] runs [f id] and records the span when
   tracing is on; [id] is the new span's identifier, to be passed as the
   [parent] of spans opened inside [f]. *)
let with_span ?(parent = 0) ~req name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let start_ns = now_ns () in
    let r = f id in
    record ~id ~name ~start_ns ~stop_ns:(now_ns ()) ~parent ~req;
    r
  end

let all () =
  Mutex.lock lock;
  let l = List.concat_map (fun b -> !b) !buffers in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) l

let write ~path ~workload ~seed =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"schema\":\"exbench-spans/1\",\"workload\":%S,\"seed\":%d,\"clock\":\"monotonic_ns\",\"dropped\":%d,\"spans\":["
    workload seed (Atomic.get dropped);
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}"
        (if i = 0 then "" else ",")
        s.id s.name (s.start_ns - t0) (s.stop_ns - t0) s.parent s.req)
    spans;
  output_string oc "\n]}\n";
  close_out oc;
  List.length spans
