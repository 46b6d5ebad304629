"""A picklable factory for tuned CAVA configurations.

The paper tuned W, W', Kp/Ki, and the alpha factors by sweeping them
over trace sets (§6.2). A sweep over configurations is a list of
:class:`~repro.experiments.parallel.SweepSpec` entries whose
``algorithm_factory`` builds CAVA with one candidate
:class:`~repro.core.config.CavaConfig` each; :class:`CavaFactory` is that
factory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cava import CavaAlgorithm
from repro.core.config import CavaConfig

__all__ = ["CavaFactory"]


@dataclass(frozen=True)
class CavaFactory:
    """Picklable ``CavaAlgorithm`` factory.

    The parallel sweep engine ships one of these per candidate
    configuration to its workers — a lambda closing over the config
    would not survive pickling — and the session store digests it by
    value, since it is a frozen dataclass.
    """

    config: CavaConfig
    name: str = "CAVA"

    def __call__(self) -> CavaAlgorithm:
        return CavaAlgorithm(self.config, name=self.name)
