"""Intercept-resend eavesdropping on B's quantum channel.

The interceptor owns a copy of B's detection system.  She measures each
in-flight photon in a basis chosen by her policy; a null count blocks the
photon (the pair is later discarded as a non-coincidence), while a click
triggers a replacement photon prepared on her outcome.  When B measures in
her preparation basis he reproduces her detector with probability
p_same_basis_correct; in the conjugate basis his click follows the
p_cross_basis fractions, with any remaining probability mass going to null.
This module holds the attack parameters and the closed-form prediction; the
sessions apply the transform to whole batches in
protocol._intercepted_bob_clicks.

Substituting a whole fresh pair is a source swap, not a channel transform:
run a session with a different SourceModel to represent it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .detection import StationConfig

if TYPE_CHECKING:
    from .protocol import CoincidenceTable, QberReport

BASIS_POLICIES = ("always_x", "always_p", "uniform_random", "none")


@dataclass(frozen=True)
class AttackConfig:
    """Intercept-resend strategy parameters.

    eve_stations None means "copy of B's station", resolved when the attack
    is bound to a channel.
    """

    basis_policy: str = "uniform_random"
    p_same_basis_correct: float = 1.0
    p_cross_basis: tuple[float, float] = (0.5, 0.5)
    eve_stations: StationConfig | None = None

    def __post_init__(self):
        if self.basis_policy not in BASIS_POLICIES:
            raise ValueError(
                f"basis_policy must be one of {BASIS_POLICIES}, got {self.basis_policy!r}"
            )
        if not 0.0 <= self.p_same_basis_correct <= 1.0:
            raise ValueError("p_same_basis_correct must lie in [0, 1]")
        p1, p2 = self.p_cross_basis
        if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
            raise ValueError("cross-basis fractions must lie in [0, 1]")
        if p1 + p2 > 1.0 + 1e-12:
            raise ValueError(
                "cross-basis fractions sum above 1; the remainder is the null mass"
            )


def resolve_attack(attack: AttackConfig, station_B: StationConfig) -> AttackConfig:
    """Fill in the default interceptor station (a copy of B's)."""
    if attack.eve_stations is not None:
        return attack
    return replace(attack, eve_stations=station_B)


def predicted_qber(attack: AttackConfig, table: "CoincidenceTable") -> "QberReport":
    """Closed-form error-rate prediction for this attack on a measured table.

    Only the uniform-random policy admits the closed form (every photon
    intercepted, basis a fair coin); policy none degrades to the
    no-eavesdropper rate.
    """
    from .protocol import qber_from_counts, qber_with_eve_prediction

    if attack.basis_policy == "none":
        return qber_from_counts(table)
    if attack.basis_policy != "uniform_random":
        raise ValueError(
            f"no closed-form prediction for policy {attack.basis_policy!r}"
        )
    return qber_with_eve_prediction(table, p_resend=attack.p_cross_basis)
