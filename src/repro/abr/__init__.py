"""ABR schemes: the common algorithm interface plus every baseline the
paper evaluates against (§4, §6.1) — RBA, BBA-1, MPC, RobustMPC,
PANDA/CQ (max-sum / max-min), and BOLA-E (peak / avg / seg)."""

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.abr.bba import BBA1Algorithm
from repro.abr.bola import BOLA_VARIANTS, BolaEAlgorithm
from repro.abr.dynamic import DynamicAlgorithm
from repro.abr.festive import FestiveAlgorithm
from repro.abr.horizon import horizon_sizes, level_sequences
from repro.abr.mpc import MPCAlgorithm, RobustMPCAlgorithm
from repro.abr.oboe import DEFAULT_STATE_CONFIGS, NetworkState, OboeTunedCava
from repro.abr.pandacq import PandaCQAlgorithm
from repro.abr.pia import PIAAlgorithm
from repro.abr.rba import RateBasedAlgorithm
from repro.abr.registry import (
    SCHEME_FACTORIES,
    make_scheme,
    needs_quality_manifest,
    scheme_names,
)

__all__ = [
    "ABRAlgorithm",
    "DecisionContext",
    "BBA1Algorithm",
    "BOLA_VARIANTS",
    "BolaEAlgorithm",
    "DynamicAlgorithm",
    "DEFAULT_STATE_CONFIGS",
    "NetworkState",
    "OboeTunedCava",
    "horizon_sizes",
    "level_sequences",
    "FestiveAlgorithm",
    "MPCAlgorithm",
    "RobustMPCAlgorithm",
    "PandaCQAlgorithm",
    "PIAAlgorithm",
    "RateBasedAlgorithm",
    "SCHEME_FACTORIES",
    "make_scheme",
    "needs_quality_manifest",
    "scheme_names",
]
