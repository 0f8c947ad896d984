(** The simulator's links: decides the fate of each message handed to
    it — delivered at some real time, or lost (with the real time at
    which the loss oracle of Section 3.3 reports it).

    Every send makes the same three steps, in this order:
    - a Bernoulli loss draw, made even when [loss_prob] is [0], so that
      enabling loss never shifts the random stream the delay draws see;
    - for a survivor, a per-message delay within the link's declared
      transit bounds, per the {!delay_policy};
    - a FIFO clamp per directed link: an arrival is never earlier than
      the previous arrival on that link, so no message overtakes — the
      paper's FIFO-link assumption.  The clamp stays within the link's
      transit bounds because the earlier message's arrival respected its
      own (even earlier) send's bound.  A lost message does not advance
      the clamp.

    Partitions and link cuts are the engine's: they override a verdict
    after it is drawn, never skip the draw. *)

type delay_policy = [ `Uniform | `Min | `Max | `Alternate | `Capped of Q.t ]
(** Per-message delay choice within a link's [lo, hi] transit bounds:
    always-min, always-max, strict alternation (adversarial for round-trip
    symmetry assumptions), uniform random, or uniform capped at [lo + c].
    On a link with no finite [hi], [`Max]/[`Alternate]/[`Uniform] use
    [lo + 1] as the upper end. *)

type decision =
  | Deliver_at of Q.t  (** arrival real time *)
  | Lost of { detect_at : Q.t }
      (** dropped; the loss oracle fires at [detect_at] *)

type t

val create :
  System_spec.t ->
  rng:Rng.t ->
  delay:delay_policy ->
  loss_prob:float ->
  detect_delay:Q.t ->
  t
(** Links of the (declared, uncharged) spec.  A message is lost with
    probability [loss_prob];
    its loss is reported [detect_delay] after the send.  The loss and
    the random delay policies draw from [rng]. *)

val send : t -> now:Q.t -> seq:int -> src:int -> dst:int -> decision
(** The fate of a message sent at real time [now].  [seq] is the global
    1-based send attempt number ([`Alternate] draws the slow extreme on
    odd, the fast one on even attempts).
    @raise Invalid_argument when no link [src → dst] exists (after the
    loss draw, which may already report the message lost). *)
