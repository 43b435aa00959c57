(** Hash table keyed by a (rank, core) scope.

    Equality is integer equality on both fields and the hash is a cheap
    integer mix, so a lookup never reaches the polymorphic [compare] or
    [caml_hash] that a [(int * int, _) Hashtbl.t] pays on every call. *)

include Hashtbl.S with type key = int * int
