type t = {
  count : int;
  min : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
  max : int;
  mean : float;
}

let of_list = function
  | [] -> None
  | samples ->
      let sorted = List.sort Int.compare samples in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      (* nearest-rank: the smallest value with at least p% of the mass
         at or below it *)
      let percentile p =
        let rank = int_of_float (ceil (p *. float_of_int n /. 100.)) in
        arr.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
      in
      let total = List.fold_left ( + ) 0 samples in
      Some
        {
          count = n;
          min = arr.(0);
          p50 = percentile 50.;
          p90 = percentile 90.;
          p95 = percentile 95.;
          p99 = percentile 99.;
          max = arr.(n - 1);
          mean = float_of_int total /. float_of_int n;
        }

module Acc = struct
  module Bucket_map = Map.Make (Int)

  type acc = {
    acc_count : int;
    acc_total : int;
    acc_min : int;
    acc_max : int;
    buckets : int Bucket_map.t;  (* bucket index -> sample count *)
  }

  let empty =
    {
      acc_count = 0;
      acc_total = 0;
      acc_min = max_int;
      acc_max = 0;
      buckets = Bucket_map.empty;
    }

  (* Values 0..63 are their own bucket; v >= 64 lands in one of 32
     sub-buckets of its octave [2^e, 2^(e+1)). *)
  let bucket_of v =
    if v < 64 then v
    else begin
      let e = ref 6 in
      while v lsr (!e + 1) > 0 do
        incr e
      done;
      let sub = (v lsr (!e - 5)) - 32 in
      64 + ((!e - 6) * 32) + sub
    end

  (* Lower bound of the bucket: the smallest value mapping to it. *)
  let bucket_floor idx =
    if idx < 64 then idx
    else
      let e = 6 + ((idx - 64) / 32) in
      let sub = (idx - 64) mod 32 in
      (32 + sub) lsl (e - 5)

  let add acc v =
    if v < 0 then invalid_arg "Stats.Acc.add: negative sample";
    let idx = bucket_of v in
    {
      acc_count = acc.acc_count + 1;
      acc_total = acc.acc_total + v;
      acc_min = Stdlib.min acc.acc_min v;
      acc_max = Stdlib.max acc.acc_max v;
      buckets =
        Bucket_map.update idx
          (function None -> Some 1 | Some c -> Some (c + 1))
          acc.buckets;
    }

  let add_list acc samples = List.fold_left add acc samples

  (* Batch fast path: one pass over the array accumulating per-bucket
     counts in a scratch table, then one map update per distinct
     bucket.  Exactly [Array.fold_left add acc samples] — the domain-
     parallel sweeps lean on that equivalence. *)
  let add_many acc samples =
    if Array.length samples = 0 then acc
    else begin
      let total = ref 0 in
      let mn = ref acc.acc_min and mx = ref acc.acc_max in
      let scratch = Hashtbl.create 64 in
      Array.iter
        (fun v ->
          if v < 0 then invalid_arg "Stats.Acc.add_many: negative sample";
          total := !total + v;
          if v < !mn then mn := v;
          if v > !mx then mx := v;
          let idx = bucket_of v in
          match Hashtbl.find_opt scratch idx with
          | Some cell -> Stdlib.incr cell
          | None -> Hashtbl.add scratch idx (ref 1))
        samples;
      {
        acc_count = acc.acc_count + Array.length samples;
        acc_total = acc.acc_total + !total;
        acc_min = !mn;
        acc_max = !mx;
        buckets =
          Hashtbl.fold
            (fun idx cell buckets ->
              Bucket_map.update idx
                (function None -> Some !cell | Some c -> Some (c + !cell))
                buckets)
            scratch acc.buckets;
      }
    end

  let merge a b =
    if a.acc_count = 0 then b
    else if b.acc_count = 0 then a
    else
      {
        acc_count = a.acc_count + b.acc_count;
        acc_total = a.acc_total + b.acc_total;
        acc_min = Stdlib.min a.acc_min b.acc_min;
        acc_max = Stdlib.max a.acc_max b.acc_max;
        buckets =
          Bucket_map.union (fun _ ca cb -> Some (ca + cb)) a.buckets b.buckets;
      }

  let count acc = acc.acc_count

  let total acc = acc.acc_total

  let to_stats acc =
    if acc.acc_count = 0 then None
    else begin
      let n = acc.acc_count in
      (* nearest-rank over the bucket histogram, as in [of_list] *)
      let percentile p =
        let rank =
          Stdlib.max 1 (int_of_float (ceil (p *. float_of_int n /. 100.)))
        in
        let remaining = ref rank in
        let found = ref acc.acc_max in
        (try
           Bucket_map.iter
             (fun idx c ->
               if !remaining <= c then begin
                 found := bucket_floor idx;
                 raise Exit
               end
               else remaining := !remaining - c)
             acc.buckets
         with Exit -> ());
        Stdlib.max acc.acc_min (Stdlib.min acc.acc_max !found)
      in
      Some
        {
          count = n;
          min = acc.acc_min;
          p50 = percentile 50.;
          p90 = percentile 90.;
          p95 = percentile 95.;
          p99 = percentile 99.;
          max = acc.acc_max;
          mean = float_of_int acc.acc_total /. float_of_int n;
        }
    end
end

let pp_in_t ~unit_t fmt t =
  let in_t v = float_of_int v /. float_of_int (Vtime.to_int unit_t) in
  Format.fprintf fmt
    "n=%-5d min=%.2fT p50=%.2fT p90=%.2fT p95=%.2fT p99=%.2fT max=%.2fT"
    t.count (in_t t.min) (in_t t.p50) (in_t t.p90) (in_t t.p95) (in_t t.p99)
    (in_t t.max)
