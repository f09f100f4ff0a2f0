(** A fixed-capacity mutable bitset over an [int array], 63 members
    per word.

    Two users share it: the directory's sharer sets (one bit per core,
    so machines can go past the 62 cores a single [int] mask allowed)
    and the ROB's slot index (one bit per ROB slot).  All operations
    are O(1) except {!clear}, {!retain_only}, {!diff_into},
    {!is_empty}, {!next}, {!next_diff} and {!iter}, which are
    O(capacity/63).  Only {!members}, {!fold} and the constructors
    allocate.

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

val clear : t -> unit
(** Remove every member. *)

val diff_into : t -> t -> unit
(** [diff_into t u] removes every member of [u] from [t] (one
    [land lnot] per word).  Both must have the same capacity. *)

val is_empty : t -> bool

val next : t -> int -> int
(** [next t i] is the smallest member [>= i], or [-1] if there is
    none. *)

val next_diff : t -> t -> int -> int
(** [next_diff t u i] is the smallest member of [t] that is not in [u]
    and is [>= i], or [-1].  Both must have the same capacity. *)

val iter : t -> (int -> unit) -> unit
(** Call [f] on each member in increasing order. *)

val fold : t -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold [f] over the members in increasing order. *)

val members : t -> int list
(** The members in increasing order. *)

val of_members : bits:int -> int list -> t
(** A set holding exactly the given members (checkpoint restore). *)
