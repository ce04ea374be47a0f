"""Link-level simulator and analysis library for a WLAN-preamble joint
communication-radar system: SC PHY frame synthesis, channel and echo models,
the full radar receiver (detection, range, velocity, delay-Doppler map), and
closed-form CRLB/resolution benchmarks."""

__version__ = "0.1.0"

from .airlink import ArrayConfig, LinkBudget, Target
from .dsp import RrcSpec
from .frame import FrameLayout
from .golay import GolayPair, generate_golay_pair

__all__ = [
    "__version__",
    "ArrayConfig",
    "LinkBudget",
    "Target",
    "RrcSpec",
    "FrameLayout",
    "GolayPair",
    "generate_golay_pair",
]
