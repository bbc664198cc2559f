(** Dense tables keyed by thread id, for the DSL's per-event bookkeeping.

    Tids are small, dense and never reused (see [Kernel.task_by_tid]), so
    a table is a growable array indexed by tid: a lookup is a bounds check
    and a load, with no hashing, no key compare and no [Some] allocation.
    Out-of-range and negative tids read as absent; writes grow the table
    to fit. *)

(** A set of tids. *)
module Set : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial capacity (default 256); the set grows past it. *)

  val mem : t -> int -> bool

  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative tid. *)

  val remove : t -> int -> unit
end

(** A map from tids to non-negative ints (a class, a CPU, a timestamp);
    [-1] reads as absent. *)
module Map : sig
  type t

  val create : ?size:int -> unit -> t
  val find : t -> int -> int
  (** The bound value, or [-1] when the tid is unbound. *)

  val set : t -> int -> int -> unit
  (** @raise Invalid_argument on a negative tid or a negative value. *)

  val remove : t -> int -> unit

  val iter : (int -> int -> unit) -> t -> unit
  (** Bindings in ascending tid order.  [f] may remove the binding it is
      given. *)
end
