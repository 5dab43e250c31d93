"""Package and board macro-model.

Commercial worst-case noise validation models the package and board as
compact macro-models attached to the on-die grid through the C4 bumps
(Sec. 1 of the paper).  The dominant dynamic effect is the *die-package
resonance*: the loop inductance of the package resonates with the on-die
decap, producing mid-frequency droop that exceeds the purely resistive IR
drop.  We model each bump connection as a series R-L branch to the ideal
supply plus an optional shared bulk decap on the package side, which is
sufficient to reproduce that first-droop resonance behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_positive


@dataclass(frozen=True)
class PackageModel:
    """Per-bump series R-L branch plus package-side bulk decap.

    Attributes
    ----------
    bump_resistance:
        Series resistance per bump branch in ohms (bump + package routing).
    bump_inductance:
        Series inductance per bump branch in henries.
    bulk_decap:
        Total package-side decoupling capacitance in farads, split evenly
        over the package-internal nodes of all bump branches.
    bulk_decap_esr:
        Effective series resistance of the bulk decap in ohms (applied as a
        series resistor per bump share).  Zero disables the ESR branch and
        connects the decap share directly to the package node.
    """

    bump_resistance: float = 20e-3
    bump_inductance: float = 30e-12
    bulk_decap: float = 0.0
    bulk_decap_esr: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.bump_resistance, "bump_resistance")
        check_positive(self.bump_inductance, "bump_inductance")
        if self.bulk_decap < 0:
            raise ValueError(f"bulk_decap must be >= 0, got {self.bulk_decap}")
        if self.bulk_decap_esr < 0:
            raise ValueError(f"bulk_decap_esr must be >= 0, got {self.bulk_decap_esr}")

    def resonance_frequency(self, die_decap: float) -> float:
        """Estimate the die-package resonance frequency in Hz.

        ``f = 1 / (2 * pi * sqrt(L_eff * C_die))`` with ``L_eff`` the parallel
        combination of all bump inductances.  Used by the workload generator
        to shape excitation bursts near resonance, where worst-case dynamic
        noise is triggered (Sec. 1).
        """
        check_positive(die_decap, "die_decap")
        return 1.0 / (2.0 * np.pi * np.sqrt(self.bump_inductance * die_decap))
