(** The shared routing-strategy plug-in contract.

    Both engines — the three-stage fabric ([Wdm_multistage.Network]) and
    the mesh RWA engine ([Wdm_mesh]) — route a request by enumerating
    candidates (middle-module covers; wavelength/path pairs), scoring
    them, and picking one.  A strategy plug-in packages that pipeline
    behind a name, so new disciplines can be added, composed (decorated)
    and raced without editing either engine core.  This module holds the
    engine-agnostic pieces: the signature shape, the name registry, and
    the deterministic pseudo-randomness every stochastic strategy must
    draw from.

    {2 Determinism / replay contract}

    A plug-in's [select] must be a pure function of its context — the
    engine state it is given plus the request.  In particular it must
    never consult [Random.self_init]-style ambient state, the clock, or
    anything outside the context: the WAL replays connect/disconnect
    sequences and must land on byte-identical routes (and therefore
    digests).  Strategies that want randomness derive it from the
    deterministic request key the engine provides — the mesh engine's
    monotone attempt counter mixed with the request, or the multistage
    request fingerprint — through {!mix}/{!Det_rng}.  Decorators
    (strategies wrapping a base strategy) inherit the contract from
    their base plus their own parameters.

    {2 Registry naming}

    Registry names are lowercase kebab-case ([min-intersection],
    [first-fit], [adaptive], [annealed]).  Parameterized strategies use
    colon-separated arguments parsed by a registered parser, e.g.
    [crosstalk:first-fit:18] — the full string is the strategy's
    identity and is what snapshots persist, so a restore re-resolves the
    exact same plug-in. *)

(** The common shape of an engine's plug-in type: a name (its registry
    identity), a one-line doc string, and the candidate
    enumeration/scoring/pick pipeline collapsed into [select], returning
    [None] when the strategy declines to route the request (the engine
    reports its blocked cause).  Engines whose pick pipeline has more
    than one seam (the mesh engine separates wavelength ordering from
    route admission) expose those seams as additional record fields but
    keep [name]/[doc] and the registry below. *)
module type S = sig
  type ctx
  (** Everything [select] may consult: engine state + request. *)

  type plan
  (** A fully-specified routing decision the engine can execute. *)

  type t = { name : string; doc : string; select : ctx -> plan option }
end

(** A name-keyed plug-in registry.  [register] installs a plug-in under
    its fixed name, once: a name, once registered, is never rebound.
    Each engine resolves its configured strategy name here (its default
    included) and persists the name, so a rebound name would route a
    replayed WAL or a restored snapshot differently from the process
    that wrote it.  [register_parser] installs a fallback that may
    synthesize a plug-in from a parameterized name.  [resolve] tries
    exact names first, then parsers in registration order. *)
module Registry (P : sig
  type t

  val name : t -> string
end) : sig
  val register : P.t -> unit
  (** Install under [P.name].
      @raise Invalid_argument if that name is already registered. *)

  val register_parser : (string -> P.t option) -> unit
  (** Install a parser for parameterized names ([prefix:arg:...]).  A
      parser returning [Some p] ends the search; [p] is {e not} cached
      under the name, so parsers must be deterministic in the name. *)

  val resolve : string -> P.t option
  (** Exact registered names first, then parsers in registration
      order. *)

  val mem : string -> bool
  (** [resolve name <> None]. *)

  val names : unit -> string list
  (** Exactly-registered names, sorted (parameterized forms are open-
      ended and not enumerable). *)
end

val mix : int -> int -> int
(** A deterministic avalanche mix of two ints into a non-negative int
    (splitmix64-style finalizer).  The replay-safe way to derive seeds
    from request fingerprints: equal inputs give equal outputs on every
    run, platform and evaluation order. *)

val mix3 : int -> int -> int -> int
(** [mix3 a b c = mix (mix a b) c]. *)

val mix_string : int -> string -> int
(** Folds {!mix} over the string's length, then over each byte. *)

(** A tiny deterministic generator for annealing/genetic strategies:
    a 62-bit xorshift stepped purely by its own state, seeded from
    {!mix}.  Not [Random.State] — that would tempt ambient seeding and
    ties the byte-exact replay contract to the stdlib's generator
    evolution. *)
module Det_rng : sig
  type t

  val make : seed:int -> t
  val int : t -> int -> int
  (** [int t bound] draws uniformly from [0 .. bound-1] ([bound >= 1]).
      Advances the state. *)

  val float : t -> float
  (** Uniform in [0, 1). Advances the state. *)
end
