(** Mapping a match back to the event that made the engine emit it.

    The engine emits a match when its instance expires: on the first
    fed event [e] with [e.T - minT(match) > tau] (the expiry rule of
    [Engine]). That event is the match's {e trigger}; a match's
    detection latency runs from when its trigger was offered to the
    engine (the due time of the frame or batch that carried it) to when
    the match reached the caller. Matches flushed at end of input have
    no trigger. *)

val first_after : int array -> from:int -> tau:int -> int option
(** [first_after ts ~from ~tau] over the fed stream's timestamps
    (non-decreasing): the index of the first event with
    [ts.(i) - from > tau], if any. *)

val event_ids : string -> int list
(** Event sequence numbers of a rendered substitution: ["{c/e1, p+/e4}"]
    gives [[0; 3]] (rendered names are 1-based). Tokens that are not
    [name/e<digits>] are skipped. *)

val segment_of : int array -> int -> int
(** [segment_of starts i]: the segment holding position [i], where
    [starts] holds each segment's first position in ascending order and
    [starts.(0) <= i]. *)
