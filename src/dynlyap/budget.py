"""Resource budgets: period caps and coefficient-size caps.

Exceeding a budget always raises :class:`~dynlyap.errors.ResourceLimit`;
nothing is ever silently truncated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ResourceLimit

ENV_BUDGET_BITS = "DYNLYAP_BUDGET_BITS"


@dataclass(frozen=True)
class Budget:
    n_cap_d2: int = 10
    n_cap_d3: int = 6
    n_cap_other: int = 4
    max_total_bits: int = 1 << 27  # total coefficient bit size per object

    def n_cap(self, d: int) -> int:
        if d == 2:
            return self.n_cap_d2
        if d == 3:
            return self.n_cap_d3
        return self.n_cap_other

    def check_period(self, d: int, n: int) -> None:
        if n < 1:
            raise ValueError("period must be >= 1")
        if n > self.n_cap(d):
            raise ResourceLimit(
                f"period n={n} exceeds budget cap {self.n_cap(d)} for degree {d}"
            )

    def check_bits(self, bits: int, what: str = "object") -> None:
        if bits > self.max_total_bits:
            raise ResourceLimit(
                f"{what} needs {bits} coefficient bits, budget is {self.max_total_bits}"
            )


def default_budget() -> Budget:
    """Budget honouring the DYNLYAP_BUDGET_BITS environment variable; a
    value that is not a positive integer is a ValueError."""
    bits = os.environ.get(ENV_BUDGET_BITS)
    if bits is None:
        return Budget()
    if not bits.strip().isdecimal() or int(bits) < 1:
        raise ValueError(f"{ENV_BUDGET_BITS} must be a positive integer, got {bits!r}")
    return Budget(max_total_bits=int(bits))
