"""Parameterized data-plane loss models.

Both models are stepped once per *data* packet offered to a faulted link and
answer "drop this one?".  They own their RNG (seeded at construction) so a
:class:`~repro.faults.schedule.FaultSchedule` replays identically under the
same seed regardless of what else the simulation does.

* :class:`BernoulliLoss` — i.i.d. loss with probability ``p``; the classic
  "random loss" abstraction.
* :class:`GilbertElliottLoss` — the two-state Markov burst-loss model: a
  *good* state with low (usually zero) loss and a *bad* state with high
  loss, with per-packet transition probabilities.  Bursty loss is the
  regime that actually distinguishes probe-based recovery from blind
  retransmission, which i.i.d. loss flattens out.
"""

from __future__ import annotations

import random
from typing import Dict, Protocol

from repro.utils.validation import check_non_negative, check_probability


class LossModel(Protocol):
    """Per-packet drop decision; stateful models advance on every call."""

    kind: str

    def drop(self) -> bool: ...


class BernoulliLoss:
    """Drop each packet independently with probability ``p``."""

    kind = "bernoulli"

    def __init__(self, p: float, seed: int = 0) -> None:
        self.p = check_probability("p", p)
        self.rng = random.Random(seed)

    def drop(self) -> bool:
        return self.p > 0.0 and self.rng.random() < self.p


class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) burst loss.

    ``p_enter_bad`` / ``p_exit_bad`` are the per-packet transition
    probabilities good→bad and bad→good; ``loss_good`` / ``loss_bad`` the
    per-packet drop probabilities within each state.  The mean burst length
    is ``1 / p_exit_bad`` packets.
    """

    kind = "gilbert-elliott"

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.p_enter_bad = check_probability("p_enter_bad", p_enter_bad)
        self.p_exit_bad = check_probability("p_exit_bad", p_exit_bad)
        self.loss_good = check_probability("loss_good", loss_good)
        self.loss_bad = check_probability("loss_bad", loss_bad)
        self.rng = random.Random(seed)
        self.in_bad_state = False

    def drop(self) -> bool:
        rng = self.rng
        if self.in_bad_state:
            if rng.random() < self.p_exit_bad:
                self.in_bad_state = False
        elif rng.random() < self.p_enter_bad:
            self.in_bad_state = True
        loss = self.loss_bad if self.in_bad_state else self.loss_good
        return loss > 0.0 and rng.random() < loss


#: Registry used by declarative schedules (``model="bernoulli"`` + params).
MODEL_BUILDERS = {
    BernoulliLoss.kind: BernoulliLoss,
    GilbertElliottLoss.kind: GilbertElliottLoss,
}


def make_loss_model(kind: str, params: Dict[str, float], seed: int = 0) -> LossModel:
    """Build a loss model from its declarative ``(kind, params)`` form."""
    try:
        builder = MODEL_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown loss model {kind!r}; known: {sorted(MODEL_BUILDERS)}"
        ) from None
    check_non_negative("seed", seed)
    return builder(seed=seed, **params)
