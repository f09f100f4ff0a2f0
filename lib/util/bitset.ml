(* A tiny fixed-capacity mutable bitset (63 bits per word), shared by
   the directory's sharer sets and the ROB's slot index. *)

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

type t = int array

let words bits = (bits + bits_per_word - 1) / bits_per_word

let create ~bits =
  if bits < 0 then invalid_arg "Bitset.create: negative capacity";
  Array.make (max 1 (words bits)) 0

let capacity t = Array.length t * bits_per_word

let check t i =
  if i < 0 || i >= capacity t then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  t.(i / bits_per_word) <- t.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  t.(i / bits_per_word) <- t.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let singleton ~bits i =
  let t = create ~bits in
  add t i;
  t

let clear t =
  for w = 0 to Array.length t - 1 do
    t.(w) <- 0
  done

(* Drop every member except (possibly) [i] — the directory's
   "invalidate all remote sharers" step. *)
let retain_only t i =
  let keep = mem t i in
  clear t;
  if keep then add t i

let diff_into t u =
  if Array.length u <> Array.length t then invalid_arg "Bitset.diff_into: capacity mismatch";
  for w = 0 to Array.length t - 1 do
    t.(w) <- t.(w) land lnot u.(w)
  done

let is_empty t = Array.for_all (fun w -> w = 0) t

(* Index of the lowest set bit of a non-zero word, without a branch
   per bit: the isolated bit is a power of two, and the powers 2^0 ..
   2^61 are distinct modulo 67 (2 has order 66 there), so its residue
   indexes a table.  2^62 is the sign bit. *)
let bit_of_residue =
  let t = Array.make 67 0 in
  for b = 0 to 61 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let[@inline] lowest_bit x =
  let b = x land -x in
  if b < 0 then bits_per_word - 1 else Array.unsafe_get bit_of_residue (b mod 67)

(* Both scans are loops over the words from the one holding [i], with
   the bits below [i] masked off the first; they allocate nothing. *)
let next t i =
  let i = if i < 0 then 0 else i in
  let n = Array.length t in
  let w = ref (i / bits_per_word) in
  if !w >= n then -1
  else begin
    let word = ref (t.(!w) land (-1 lsl (i mod bits_per_word))) in
    while !word = 0 && !w + 1 < n do
      incr w;
      word := t.(!w)
    done;
    if !word = 0 then -1 else (!w * bits_per_word) + lowest_bit !word
  end

let next_diff t u i =
  let n = Array.length t in
  if Array.length u <> n then invalid_arg "Bitset.next_diff: capacity mismatch";
  let i = if i < 0 then 0 else i in
  let w = ref (i / bits_per_word) in
  if !w >= n then -1
  else begin
    let word = ref (t.(!w) land lnot u.(!w) land (-1 lsl (i mod bits_per_word))) in
    while !word = 0 && !w + 1 < n do
      incr w;
      word := t.(!w) land lnot u.(!w)
    done;
    if !word = 0 then -1 else (!w * bits_per_word) + lowest_bit !word
  end

let iter t f =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits_per_word - 1 do
          if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
        done)
    t

let fold t f acc =
  let acc = ref acc in
  iter t (fun i -> acc := f !acc i);
  !acc

let members t = List.rev (fold t (fun acc i -> i :: acc) [])

let of_members ~bits l =
  let t = create ~bits in
  List.iter (add t) l;
  t
