(** Stdlib's heapsort over packed integers, with no comparison closure.

    A caller packs a sort key above an id held in the low [shift] bits,
    [(key lsl shift) lor id], and {!sort} orders the packed values by the
    key alone, [x asr shift].  It makes exactly the comparisons and writes
    of
    {[ Array.sort (fun x y -> Int.compare (x asr shift) (y asr shift)) ]}
    (Stdlib's ternary heapsort), so ids with equal keys land exactly where
    [Array.sort] puts them.  That matters to callers whose answers depend
    on the order of ties, such as the CLIP insertion order in [Fm].  A key
    read from an array, [Array.sort (fun a b -> Int.compare g.(a) g.(b))],
    gives the same ids in the same order when each id [v] is packed with
    key [g.(v)], and the sort never loads [g].  With [~shift:0] the whole
    int is the key. *)

val shift_for : int -> int
(** [shift_for n] is the smallest [b >= 0] with [n <= 1 lsl b]: the
    number of low bits that hold every id in [\[0, n)]. *)

val fits : shift:int -> int -> bool
(** [fits ~shift k] is true when [k] and [-k] both pack above [shift] bits
    without overflow. *)

val sort : shift:int -> len:int -> int array -> unit
(** [sort ~shift ~len a] sorts [a.(0 .. len - 1)] in place, ascending by
    [x asr shift]. *)
