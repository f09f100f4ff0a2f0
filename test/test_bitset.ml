(* Bitset: word-boundary behaviour and equivalence with a naive
   sorted-list model.  The 62/63/64/65 capacities straddle the OCaml
   int word size (63 usable bits, 62 in the old single-int mask this
   module replaced), which is where an off-by-one in the word/bit
   split would bite. *)

module Bitset = Fscope_util.Bitset
module Rng = Fscope_util.Rng

let boundary_capacities = [ 62; 63; 64; 65 ]

(* set / clear / mem round-trip at every index of every boundary
   capacity, with neighbours checked for clobbering *)
let test_boundary_roundtrip () =
  List.iter
    (fun bits ->
      let s = Bitset.create ~bits in
      Alcotest.(check bool) "fresh set is empty" true (Bitset.is_empty s);
      for i = 0 to bits - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "bits=%d: %d absent before add" bits i)
          false (Bitset.mem s i);
        Bitset.add s i;
        Alcotest.(check bool)
          (Printf.sprintf "bits=%d: %d present after add" bits i)
          true (Bitset.mem s i);
        (* neighbours untouched *)
        if i + 1 < bits then
          Alcotest.(check bool)
            (Printf.sprintf "bits=%d: add %d left %d clear" bits i (i + 1))
            false
            (Bitset.mem s (i + 1))
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "bits=%d: full membership" bits)
        (List.init bits Fun.id) (Bitset.members s);
      for i = 0 to bits - 1 do
        Bitset.remove s i;
        Alcotest.(check bool)
          (Printf.sprintf "bits=%d: %d absent after remove" bits i)
          false (Bitset.mem s i)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "bits=%d: empty after removing all" bits)
        true (Bitset.is_empty s))
    boundary_capacities

(* the last valid index of each capacity, plus the word-straddling
   index 63 where it exists: add/remove them in isolation *)
let test_boundary_last_bit () =
  List.iter
    (fun bits ->
      let s = Bitset.create ~bits in
      let last = bits - 1 in
      Bitset.add s last;
      Alcotest.(check bool)
        (Printf.sprintf "bits=%d: last bit set" bits)
        true (Bitset.mem s last);
      Alcotest.(check (list int))
        (Printf.sprintf "bits=%d: only last bit" bits)
        [ last ] (Bitset.members s);
      Bitset.remove s last;
      Alcotest.(check bool)
        (Printf.sprintf "bits=%d: last bit cleared" bits)
        false (Bitset.mem s last);
      if bits > 63 then begin
        (* index 63 lives in the second word *)
        Bitset.add s 63;
        Bitset.add s 62;
        Alcotest.(check (list int))
          (Printf.sprintf "bits=%d: straddling pair" bits)
          [ 62; 63 ] (Bitset.members s)
      end)
    boundary_capacities

(* fold must agree with a naive sorted-list model under a random
   add/remove workload, and iter/members must agree with fold *)
let test_fold_vs_naive () =
  let rng = Rng.create 42 in
  List.iter
    (fun bits ->
      let s = Bitset.create ~bits in
      let model = ref [] in
      for _ = 1 to 400 do
        let i = Rng.int rng bits in
        if Rng.bool rng then begin
          Bitset.add s i;
          if not (List.mem i !model) then model := i :: !model
        end
        else begin
          Bitset.remove s i;
          model := List.filter (fun j -> j <> i) !model
        end;
        Alcotest.(check bool)
          "mem agrees with model" (List.mem i !model) (Bitset.mem s i)
      done;
      let expected = List.sort compare !model in
      let folded = List.rev (Bitset.fold s (fun acc i -> i :: acc) []) in
      Alcotest.(check (list int)) "fold order/content vs naive model" expected folded;
      let itered = ref [] in
      Bitset.iter s (fun i -> itered := i :: !itered);
      Alcotest.(check (list int)) "iter agrees with fold" folded (List.rev !itered);
      Alcotest.(check (list int)) "members agrees with fold" folded (Bitset.members s);
      Alcotest.(check bool)
        "is_empty agrees with model" (expected = []) (Bitset.is_empty s);
      (* of_members round-trip *)
      let s' = Bitset.of_members ~bits expected in
      Alcotest.(check (list int)) "of_members round-trip" expected (Bitset.members s'))
    boundary_capacities

let test_retain_only_and_singleton () =
  let s = Bitset.of_members ~bits:65 [ 0; 62; 63; 64 ] in
  Bitset.retain_only s 63;
  Alcotest.(check (list int)) "retain member" [ 63 ] (Bitset.members s);
  Bitset.retain_only s 10;
  Alcotest.(check bool) "retain non-member empties" true (Bitset.is_empty s);
  let one = Bitset.singleton ~bits:64 63 in
  Alcotest.(check (list int)) "singleton at word boundary" [ 63 ] (Bitset.members one);
  Alcotest.(check bool) "capacity covers requested bits" true (Bitset.capacity one >= 64)

(* next / next_diff / diff_into / clear against the naive model, from
   every start index, over random members at sizes that end inside,
   at and past a word boundary *)
let test_next_vs_naive () =
  let rng = Rng.create 7 in
  List.iter
    (fun bits ->
      let random_set () =
        let s = Bitset.create ~bits in
        for i = 0 to bits - 1 do
          if Rng.int rng 3 = 0 then Bitset.add s i
        done;
        s
      in
      let a = random_set () and b = random_set () in
      let first p i =
        let rec go j = if j >= bits then -1 else if p j then j else go (j + 1) in
        go (max i 0)
      in
      for i = -1 to bits + 1 do
        Alcotest.(check int)
          (Printf.sprintf "next %d/%d" i bits)
          (first (Bitset.mem a) i) (Bitset.next a i);
        Alcotest.(check int)
          (Printf.sprintf "next_diff %d/%d" i bits)
          (first (fun j -> Bitset.mem a j && not (Bitset.mem b j)) i)
          (Bitset.next_diff a b i)
      done;
      let expected = List.filter (fun j -> not (Bitset.mem b j)) (Bitset.members a) in
      Bitset.diff_into a b;
      Alcotest.(check (list int)) "diff_into" expected (Bitset.members a);
      Bitset.clear a;
      Alcotest.(check int) "clear" (-1) (Bitset.next a 0))
    [ 1; 5; 33; 62; 63; 64; 126; 128; 189 ];
  let top = Bitset.of_members ~bits:126 [ 62; 125 ] in
  Alcotest.(check int) "sign bit of a word" 62 (Bitset.next top 0);
  Alcotest.(check int) "sign bit of the last word" 125 (Bitset.next top 63)

let tests =
  [
    Alcotest.test_case "boundary set/clear/mem round-trip (62/63/64/65)" `Quick
      test_boundary_roundtrip;
    Alcotest.test_case "last-bit and word-straddling indices" `Quick
      test_boundary_last_bit;
    Alcotest.test_case "fold/iter/members vs naive list model" `Quick
      test_fold_vs_naive;
    Alcotest.test_case "retain_only and singleton" `Quick
      test_retain_only_and_singleton;
    Alcotest.test_case "next/next_diff/diff_into vs naive model" `Quick test_next_vs_naive;
  ]
