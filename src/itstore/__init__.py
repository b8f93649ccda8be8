"""Long-term secure distributed storage over a simulated key network.

The package layers, bottom up:

- wire        -- message schema and codec, and the strict byte cursor
- field       -- prime fields, polynomials, Lagrange interpolation
- entropy     -- deterministic seeded randomness for simulation runs
- mac         -- almost-universal hashing and one-time-pad MACs
- spss        -- password-gated threshold secret sharing
- renewal     -- committed proactive share renewal
- keynet      -- the simulated key-distribution network and OTP channels
- stores      -- tamper-evident per-role persistent state
- protocol    -- the five-role storage protocol sessions
- config      -- scenario-file loading and validation
- harness     -- scenario runs and benchmark sweeps
- cli         -- the `itstore` command-line entry point

The names re-exported here are the stable programmatic surface; anything
else should be imported from its module directly.
"""

from .config import ScenarioConfig, derive_payload, load_scenario, parse_scenario
from .errors import (
    ChannelIntegrityError,
    ConfigurationError,
    ItstoreError,
    KeySupplyError,
    PasswordFailureError,
    ProtocolError,
    ReplayError,
    SingleUseError,
    TamperDetectedError,
)
from .field import PrimeField
from .harness import BenchReport, ScenarioResult, run_bench, run_scenario
from .keynet import DEFAULT_TOPOLOGY, KeyNetwork, NetworkTopology
from .mac import MacScheme
from .protocol import Outcome, Phase, RolePlacement, TpvSession
from .renewal import MERSENNE127_GROUP, RenewalGroupConfig
from .spss import SpssParams

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ChannelIntegrityError",
    "ConfigurationError",
    "DEFAULT_TOPOLOGY",
    "ItstoreError",
    "KeyNetwork",
    "KeySupplyError",
    "MacScheme",
    "MERSENNE127_GROUP",
    "NetworkTopology",
    "Outcome",
    "PasswordFailureError",
    "Phase",
    "PrimeField",
    "ProtocolError",
    "RenewalGroupConfig",
    "ReplayError",
    "RolePlacement",
    "ScenarioConfig",
    "ScenarioResult",
    "SingleUseError",
    "SpssParams",
    "TamperDetectedError",
    "TpvSession",
    "derive_payload",
    "load_scenario",
    "parse_scenario",
    "run_bench",
    "run_scenario",
    "__version__",
]
