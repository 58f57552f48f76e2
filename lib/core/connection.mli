(** Multicast connections.

    A multicast connection carries the signal of one input endpoint (the
    source) to one or more output endpoints (the destinations).  Section
    2.1 of the paper imposes two structural restrictions, independent of
    the multicast model:

    - no two destinations of one connection may sit on the same output
      port (a port needs at most one copy of a message);
    - a destination endpoint belongs to at most one connection — that is
      an {e assignment}-level restriction checked in {!Assignment}.

    Values of this type are structurally valid by construction: use
    {!make}, which enforces the first restriction, sorts the destination
    list and rejects empty destination sets. *)

type t = private {
  source : Endpoint.t;
  destinations : Endpoint.t list;  (** sorted, distinct output ports *)
}

type error =
  | Empty_destinations
  | Repeated_destination_port of int
      (** the offending output port carried two destinations *)

val make :
  source:Endpoint.t -> destinations:Endpoint.t list -> (t, error) result

val make_exn : source:Endpoint.t -> destinations:Endpoint.t list -> t
(** @raise Invalid_argument on what {!make} reports as [Error]. *)

val unicast : source:Endpoint.t -> destination:Endpoint.t -> t
(** A unicast connection is a multicast connection with fanout one. *)

val fanout : t -> int
val dest_ports : t -> int list
val equal : t -> t -> bool
val compare : t -> t -> int

val hash_into : int -> t -> int
(** [hash_into h c] folds {!Strategy.mix} into [h] over every field the
    wire codec writes for [c]: source port and wavelength, destination
    count, then each destination's port and wavelength.  The engines'
    per-route state-digest terms are built on it. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["(1,l2) -> {(2,l2); (3,l1)}"]. *)

val pp_error : Format.formatter -> error -> unit
