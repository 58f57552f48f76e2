(** Nonblocking conditions for three-stage WDM multicast networks
    (Theorems 1 and 2) and the asymptotic reduction of Section 3.4.

    With the routing strategy that realizes each multicast connection
    through at most [x] middle modules:

    - {b Theorem 1} (MSW-dominant construction): nonblocking if
      [m > (n-1) (x + r^(1/x))] for some [1 <= x <= min(n-1, r)];
    - {b Theorem 2} (MAW-dominant construction): nonblocking if
      [m > floor((nk-1) x / k) + (n-1) r^(1/x)];
    - choosing [x = log r / log log r] reduces Theorem 1 to
      [m >= 3 (n-1) log r / log log r].

    [m_min] here is the smallest integer satisfying the strict
    inequality at the best [x].  These are sufficient conditions; the
    matching necessity is established in the paper's reference [16]
    under the usual routing strategies. *)

type construction = Msw_dominant | Maw_dominant
(** The two three-stage constructions: MSW input and middle modules
    (Theorem 1) or MAW ones (Theorem 2).  {!Network} re-exports it. *)

type evaluation = {
  x : int;  (** the fanout-splitting bound achieving the minimum *)
  bound : float;  (** value of the minimized right-hand side *)
  m_min : int;  (** smallest [m] strictly above [bound] (at least [n]) *)
}

val theorem1_term : n:int -> r:int -> x:int -> float
(** [(n-1) (x + r^(1/x))].  @raise Invalid_argument if [x < 1]. *)

val theorem2_term : n:int -> r:int -> k:int -> x:int -> float
(** [floor((nk-1) x / k) + (n-1) r^(1/x)]. *)

val msw_dominant : n:int -> r:int -> evaluation
(** Minimizes Theorem 1 over [1 <= x <= min(n-1, r)].  For [n = 1]
    there is no competing traffic in a module and [m_min = 1]. *)

val maw_dominant : n:int -> r:int -> k:int -> evaluation
(** Minimizes Theorem 2 over the same range. *)

val evaluate : construction -> n:int -> r:int -> k:int -> evaluation
(** The theorem that governs [construction]: {!msw_dominant} (which
    ignores [k]) or {!maw_dominant}. *)

val x_range : n:int -> r:int -> int * int
(** [(1, min(n-1, r))], the legal splitting bounds ([ (1, 1)] when
    [n = 1]). *)

val asymptotic_x : r:int -> float
(** [log r / log log r] (clamped to [>= 1]); the paper's choice. *)

val asymptotic_bound : n:int -> r:int -> float
(** [3 (n-1) log r / log log r]. *)

val pp_evaluation : Format.formatter -> evaluation -> unit
