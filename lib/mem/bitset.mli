(** A fixed-capacity mutable bitset.

    The directory used to track sharers in a single [int] bitmask,
    which silently capped the machine at 62 cores; this module is the
    same idea spread over an [int array] so machines can go to
    arbitrary core counts (the 64- and 256-core server points need
    it).  All operations are O(1) except {!retain_only}, {!is_empty}
    and {!iter}, which are O(capacity/63).

    Not thread-safe; the engine drives one machine from one domain. *)

type t

val create : bits:int -> t
(** An empty set able to hold members [0 .. bits-1] (rounded up to the
    word size, and at least one word so [bits = 0] is usable). *)

val singleton : bits:int -> int -> t

val capacity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val retain_only : t -> int -> unit
(** Remove every member except (possibly) [i]: afterwards the set is
    [{i}] if [i] was a member, [{}] otherwise. *)

val is_empty : t -> bool

val iter : t -> (int -> unit) -> unit
(** Call [f] on each member in increasing order. *)

val fold : t -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold [f] over the members in increasing order. *)

val members : t -> int list
(** The members in increasing order. *)

val of_members : bits:int -> int list -> t
(** A set holding exactly the given members (checkpoint restore). *)
