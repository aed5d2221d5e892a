(* Order statistics: nearest-rank quantiles of samples, medians of
   repetitions, and quantiles and CDFs of rendered histograms. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest rank: the [ceil (q * n)]-th smallest sample. *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5

(* The samples beyond the [q]-quantile of [n] (nearest rank). *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* The tail percentile of [n] samples: the highest of p75, p90, p99,
   p99.9 and p99.99 with at least ten samples beyond it, with its name. *)
let tail n =
  let qs = [ (0.75, "p75"); (0.9, "p90"); (0.99, "p99"); (0.999, "p99.9"); (0.9999, "p99.99") ] in
  List.fold_left (fun best (q, _ as c) -> if beyond n q >= 10 then c else best) (List.hd qs) qs

(* Median of a list of floats (runs, passes): the mean of the two middle
   values for an even count. *)
let median_l l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quantile of an [Exsel_obs.Metrics] histogram from its rendered
   buckets, interpolated linearly inside the bucket that holds the rank.
   [Metrics.hquantile] returns the bucket's upper bound, which steps in
   3% increments; interpolating keeps a time metric continuous.  The
   bucket layout is the registry's documented one: values below 64 are
   exact, above that each octave has 32 buckets of width
   [2^(bitlen - 6)]. *)
let bit_length v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let bucket_lower le = if le < 64 then le else le - (1 lsl (bit_length le - 6)) + 1

let hist_quantile (buckets : (int * int) list) q =
  match List.rev buckets with
  | [] -> nan
  | (_, total) :: _ ->
      let rank = q *. float_of_int total in
      let rec find prev = function
        | [] -> nan
        | (le, cum) :: rest ->
            if float_of_int cum >= rank then
              let lo = float_of_int (bucket_lower le) in
              let width = float_of_int le -. lo +. 1.0 in
              let frac = (rank -. float_of_int prev) /. float_of_int (cum - prev) in
              lo +. (frac *. width)
            else find cum rest
      in
      find 0 buckets


(* The same interpolation, inverted: the share of a rendered histogram's
   values below [x]. *)
let hist_cdf (buckets : (int * int) list) x =
  match List.rev buckets with
  | [] -> nan
  | (_, total) :: _ ->
      let rec walk prev = function
        | [] -> 1.0
        | (le, cum) :: rest ->
            let lo = float_of_int (bucket_lower le) in
            let width = float_of_int le -. lo +. 1.0 in
            if x >= lo +. width then walk cum rest
            else if x < lo then float_of_int prev /. float_of_int total
            else
              (float_of_int prev +. ((x -. lo) /. width *. float_of_int (cum - prev)))
              /. float_of_int total
      in
      walk 0 buckets

(* The [q]-quantile of a mixture of equally weighted groups of
   histograms (each histogram's values multiplied by its scale).  The
   groups are repetitions of the same work; at every value, a group's CDF
   is the median of its histograms' CDFs, so the group's distribution is
   that of the typical repetition: slow operations that show in most
   repetitions (the program's own stalls) stay in it, a disturbance that
   hits a minority of them does not.  The mixture's CDF is the mean over
   the groups. *)
let mixture_quantile (groups : ((int * int) list * float) list list) q =
  let cdf x =
    let per_group g =
      quantile (Array.of_list (List.map (fun (h, scale) -> hist_cdf h (x /. scale)) g)) 0.5
    in
    List.fold_left (fun a g -> a +. per_group g) 0.0 groups /. float_of_int (List.length groups)
  in
  let hi =
    List.fold_left
      (fun m g ->
        List.fold_left
          (fun m (h, scale) ->
            match List.rev h with (le, _) :: _ -> Float.max m (float_of_int (le + 1) *. scale) | [] -> m)
          m g)
      0.0 groups
  in
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      if cdf mid >= q then bisect lo mid (n - 1) else bisect mid hi (n - 1)
  in
  bisect 0.0 hi 50
