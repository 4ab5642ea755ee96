(** The deterministic in-memory transport.

    A script is a list of [(tick, conn, line)] entries.  {!run} feeds
    them through a reactor tick by tick, then drains it, so every
    admitted request resolves to exactly one response; the resulting
    event list (and its canonical {!transcript} rendering) is a pure
    function of the script and the reactor's seeds — the replay
    property in [test/prop.ml] and E17's same-seed rerun check compare
    transcripts byte for byte. *)

type entry = { at : int; conn : int; line : string }

val line : at:int -> conn:int -> string -> entry

type event = { tick : int; conn : int; response : Wire.response }

val run : Reactor.t -> entry list -> event list
(** Deliver entries at their ticks (stable script order within a tick,
    each tick's deliveries before its {!Reactor.tick}), then
    {!Reactor.drain} and keep ticking until {!Reactor.drained} or 1000
    extra ticks elapse.  Responses are returned in emission order. *)

val transcript : event list -> string
(** Canonical rendering, one ["<tick> <conn> <response>"] line per
    event — the byte-comparable replay artifact. *)
