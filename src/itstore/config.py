"""Scenario configuration: one structured text file per run.

A scenario file is YAML with the sections below; every key is optional
except where noted, and unknown keys are rejected so typos surface as
configuration errors with a precise dotted path.

    name: honest-default          # defaults to the file stem
    seed: "demo-seed"             # master seed; CLI may override from env
    warmup_ms: 3600000            # simulated key-accrual time before phase 1
    layout:
      threshold: 3
      holders: 4
      field: mersenne127          # mersenne127 | mersenne61 | mersenne31 |
                                  # decimal prime
    mac:
      scheme: polyeval            # the only registration MAC
      k: 256                      # tag bits, multiple of 8 in [16, 512]
      cs_tag_bits: 512            # computational-mode digest width
    renewal:
      group: mersenne127          # toy | mersenne127 | rfc5114
      rounds: 0                   # proactive renewal rounds to run
    placement:
      owner: Ohtemachi-1
      end-user: Ohtemachi-1
      calculator: Koganei-1
      verifier: Koganei-2
      holders: [Koganei-1, Koganei-2, Koganei-3, Koganei-4]
                                  # default Koganei-1..n, if all present
    clock_skews: {verifier: 0}    # per-role ms offsets, may be negative
    topology:
      rate_scale: 1.0             # multiplies every link/pool rate
      capacity_scale: 1.0         # multiplies every buffer capacity
      nodes: [...]                # optional custom topology (with links)
      links: [...]
    payload: {size_kb: 1}         # or {size_bytes: N} or {text: "..."}
    password: "correct horse battery staple"
    attack:
      kind: none                  # none | tamper-owner | false-claim-user |
                                  # corrupt-holder | drop-holder |
                                  # bit-flip-channel | wrong-password
      holder: 2                   # corrupt-holder only
      drop: [3, 4]                # drop-holder only
    bench:
      sizes_kb: [1, 10, 100]
      repetitions: 5
      compare_general_prime: true
    outputs:
      transcript: out/run.transcript
      csv: out/bench.csv
      gnuplot: out/bench.dat
    expect:                       # optional verdict assertions
      - {phase: integrity-check, outcome: success}

Validation failures raise ConfigurationError whose message starts with the
dotted path of the offending key (e.g. "attack.holder: ...").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .entropy import PrfBits, derive_key
from .errors import ConfigurationError
from .field import PrimeField
from .keynet import DEFAULT_TOPOLOGY, LinkSpec, NetworkTopology, NodeSpec
from .mac import (DEFAULT_DIGEST_BITS, DEFAULT_K, MacScheme,
                  check_digest_bits, check_k)
from .protocol import RolePlacement, role_endpoints
from .renewal import RenewalGroupConfig, default_group, group_by_name
from .spss import DEFAULT_FIELD_EXPONENT, SpssParams

__all__ = [
    "AttackConfig",
    "BenchConfig",
    "Expectation",
    "OutputConfig",
    "ScenarioConfig",
    "derive_payload",
    "load_scenario",
    "parse_scenario",
    "read_scenario",
]

ATTACK_KINDS = (
    "none",
    "tamper-owner",
    "false-claim-user",
    "corrupt-holder",
    "drop-holder",
    "bit-flip-channel",
    "wrong-password",
)

EXPECT_PHASES = ("registration", "reconstruction", "integrity-check",
                 "refutation", "renewal")
EXPECT_OUTCOMES = ("success", "fail", "abort")

DEFAULT_PASSWORD = "correct horse battery staple"
DEFAULT_WARMUP_MS = 3_600_000  # one simulated hour of key accrual
_MAX_PAYLOAD_BYTES = 10 * 1024 * 1024


# --------------------------------------------------------------- datatypes


@dataclass(frozen=True)
class AttackConfig:
    """A single fault/adversary injection for the scenario run."""

    kind: str = "none"
    holder: int | None = None  # corrupt-holder: 1-based share index
    drop: tuple = ()           # drop-holder: 1-based offline indices


@dataclass(frozen=True)
class BenchConfig:
    sizes_kb: tuple = (1, 10, 100)
    repetitions: int = 5
    compare_general_prime: bool = True


@dataclass(frozen=True)
class OutputConfig:
    transcript: "str | None" = None
    csv: "str | None" = None
    gnuplot: "str | None" = None


@dataclass(frozen=True)
class Expectation:
    """A verdict the scenario run must produce (phase -> outcome)."""

    phase: str
    outcome: str


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: str
    warmup_ms: int
    params: SpssParams
    scheme: MacScheme  # one member; perfbench passes it to TpvSession
    k: int
    cs_tag_bits: int
    renewal_group: "RenewalGroupConfig | None"
    renewal_rounds: int
    placement: RolePlacement
    clock_skews: dict
    topology: NetworkTopology
    payload: bytes
    password: bytes
    attack: AttackConfig
    bench: BenchConfig
    outputs: OutputConfig
    expect: tuple


# ------------------------------------------------------------ path helpers


def _fail(path: str, message: str):
    raise ConfigurationError("%s: %s" % (path, message))


def _check(fn, path: str, *args):
    """fn(*args), with the ConfigurationError it raises reported at path."""
    try:
        return fn(*args)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, "expected a mapping, got %s" % type(value).__name__)
    return value


def _as_list(value, path: str, key=None) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return value


# ------------------------------------------------------------------ readers
#
# A reader takes (value, path, key): the value given, the dotted path that
# names it, and the row of the key, whose minimum and maximum it enforces.


def _raw(value, path: str, key=None):
    return value


def _str(value, path: str, key=None) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _int(value, path: str, key) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if key.minimum is not None and value < key.minimum:
        _fail(path, "must be >= %d" % key.minimum)
    if key.maximum is not None and value > key.maximum:
        _fail(path, "must be <= %d" % key.maximum)
    return value


def _float(value, path: str, key) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "expected a finite number")
    if value < key.minimum:
        _fail(path, "must be >= %g" % key.minimum)
    return value


def _bool(value, path: str, key=None) -> bool:
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _ints(value, path: str, key) -> tuple:
    """A non-empty list of integers, each within the row's bounds."""
    rows = _as_list(value, path)
    if not rows:
        _fail(path, "expected a non-empty list")
    return tuple(_int(row, "%s[%d]" % (path, i), key)
                 for i, row in enumerate(rows))


_FIELD_ALIASES = {"mersenne127": 127, "mersenne31": 31, "mersenne61": 61}


def _parse_field(value, path: str, key=None) -> PrimeField:
    if value is None:
        return PrimeField.mersenne(DEFAULT_FIELD_EXPONENT)
    if isinstance(value, str) and value in _FIELD_ALIASES:
        return PrimeField.mersenne(_FIELD_ALIASES[value])
    if isinstance(value, str) and value.isdigit():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected %s or a decimal prime"
              % "|".join(sorted(_FIELD_ALIASES)))
    return _check(PrimeField, path, value)


def _one_of(choices):
    """A check that refuses a value not among choices."""
    def check(value):
        if value not in choices:
            raise ConfigurationError("expected one of: %s" % ", ".join(choices))
    return check


# --------------------------------------------------------------- sections


_REQUIRED = object()  # the default of a key that must be given, not null


class _Key(NamedTuple):
    """One key of a section: its reader, the default of an absent or null
    key, the bounds the reader enforces, a check of the value read (a
    ConfigurationError it raises is reported at the key), and the topology
    scale that multiplies it, if any."""

    name: str
    read: object
    default: object = _REQUIRED
    minimum: object = None
    maximum: object = None
    check: object = None
    scale: "str | None" = None


def _keys(value, path: str, rules) -> dict:
    """The mapping at path; a key no row names is refused."""
    sec = _as_mapping(value, path)
    if sec:
        names = [key.name for key in rules]
        for name in sec:
            if name not in names:
                _fail(path, "unknown key %r (allowed: %s)"
                      % (name, ", ".join(sorted(names))))
    return sec


def _values(sec: dict, path: str, rules, make=None):
    """The value of each row's key in sec, in row order; make, if given, is
    called with them and its refusal reported at path. The keys of the
    top-level mapping (path "") are named bare."""
    prefix = path + "." if path else ""
    out = []
    for key in rules:
        value = sec.get(key.name)
        if value is None and key.default is not _REQUIRED:
            out.append(key.default)
            continue
        value = key.read(value, prefix + key.name, key)
        if key.check is not None:
            _check(key.check, prefix + key.name, value)
        out.append(value)
    return out if make is None else _check(make, path, *out)


def _section(value, path: str, rules, make=None):
    """Read the fixed-key section at path by its rows (see _values)."""
    return _values(_keys(value, path, rules), path, rules, make)


def _rows(value, path: str, rules, make) -> tuple:
    """Read the list at path, each item a section of the same rows."""
    return tuple(_section(row, "%s[%d]" % (path, i), rules, make)
                 for i, row in enumerate(_as_list(value, path)))


def _sub(rules, make=None):
    """The reader of a nested section."""
    return lambda value, path, key: _section(value, path, rules, make)


def _list_of(rules, make):
    """The reader of a nested list of sections."""
    return lambda value, path, key: _rows(value, path, rules, make)


# Rows are in the order of make's parameters.
_LAYOUT = (
    _Key("threshold", _int, SpssParams.t_sh),
    _Key("holders", _int, SpssParams.n_sh, minimum=2),
    _Key("field", _parse_field),
)
_MAC = (
    _Key("scheme", _str, MacScheme.POLYEVAL.value,
         check=_one_of([s.value for s in MacScheme])),
    _Key("k", _int, DEFAULT_K, minimum=1, check=check_k),
    _Key("cs_tag_bits", _int, DEFAULT_DIGEST_BITS),
)
_RENEWAL = (
    _Key("rounds", _int, 0, minimum=0),
    _Key("group", _str, None),
)
_NODE = (
    _Key("name", _str),
    _Key("entropy_rate_bps", _int, NodeSpec.entropy_rate_bps, minimum=0,
         scale="rate_scale"),
    _Key("entropy_capacity_bits", _int, NodeSpec.entropy_capacity_bits,
         minimum=1, scale="capacity_scale"),
    _Key("initial_entropy_bits", _int, NodeSpec.initial_entropy_bits,
         minimum=0, scale="capacity_scale"),
)
_LINK = (
    _Key("name", _str),
    _Key("a", _str),
    _Key("b", _str),
    _Key("rate_bps", _int, minimum=0, scale="rate_scale"),
    _Key("length_km", _float, LinkSpec.length_km, minimum=0.0),
    _Key("loss_db", _float, LinkSpec.loss_db, minimum=0.0),
    _Key("capacity_bits", _int, LinkSpec.capacity_bits, minimum=1,
         scale="capacity_scale"),
)
_TOPOLOGY = (
    _Key("rate_scale", _float, 1.0, minimum=0.0),
    _Key("capacity_scale", _float, 1.0, minimum=0.0),
    _Key("nodes", _list_of(_NODE, NodeSpec)),
    _Key("links", _list_of(_LINK, LinkSpec)),
)
_PLACEMENT = (
    _Key("owner", _str, RolePlacement.owner),
    _Key("end-user", _str, RolePlacement.end_user),
    _Key("calculator", _str, RolePlacement.calculator),
    _Key("verifier", _str, RolePlacement.verifier),
    _Key("holders", _as_list, None),
)
_PAYLOAD = (
    _Key("size_kb", _int, 1, minimum=1, maximum=_MAX_PAYLOAD_BYTES // 1024),
    _Key("size_bytes", _int, minimum=1, maximum=_MAX_PAYLOAD_BYTES),
    _Key("text", _str),
)
_ATTACK = (
    _Key("kind", _str, "none", check=_one_of(ATTACK_KINDS)),
    _Key("holder", _raw, None),
    _Key("drop", _raw, None),
)
_BENCH = (
    _Key("sizes_kb", _ints, BenchConfig.sizes_kb, minimum=1,
         maximum=_MAX_PAYLOAD_BYTES // 1024),
    _Key("repetitions", _int, BenchConfig.repetitions, minimum=1),
    _Key("compare_general_prime", _bool, BenchConfig.compare_general_prime),
)
_OUTPUTS = (
    _Key("transcript", _str, None),
    _Key("csv", _str, None),
    _Key("gnuplot", _str, None),
)
_EXPECT = (
    _Key("phase", _str, check=_one_of(EXPECT_PHASES)),
    _Key("outcome", _str, check=_one_of(EXPECT_OUTCOMES)),
)
# The top-level keys after "name", whose default the caller gives. The
# sections read raw here are read below by the rules that join them to
# other sections.
_SCENARIO = (
    _Key("seed", _str, "itstore"),
    _Key("warmup_ms", _int, DEFAULT_WARMUP_MS, minimum=0),
    _Key("layout", _sub(_LAYOUT, SpssParams)),
    _Key("mac", _sub(_MAC)),
    _Key("renewal", _raw),
    _Key("topology", _raw),
    _Key("placement", _raw),
    _Key("clock_skews", _raw),
    _Key("payload", _raw),
    _Key("password", _str, DEFAULT_PASSWORD),
    _Key("attack", _raw),
    _Key("bench", _sub(_BENCH, BenchConfig)),
    _Key("outputs", _sub(_OUTPUTS, OutputConfig)),
    _Key("expect", _list_of(_EXPECT, Expectation)),
)


def _parse_renewal(section, path: str, field: PrimeField):
    rounds, name = _section(section, path, _RENEWAL)
    group = None if name is None else _check(group_by_name, path + ".group",
                                             name)
    if rounds > 0:
        group = group or default_group(field.q)
        if group is None:
            _fail(path + ".group",
                  "renewal rounds requested but no group given and the "
                  "field has no default group")
        if group.q != field.q:
            _fail(path + ".group",
                  "subgroup order %d does not match the share field modulus %d"
                  % (group.q, field.q))
    return group, rounds


def _scaled(spec, rules, scales: dict, path: str):
    """spec with each scaled key multiplied by its scale, floored at the
    minimum its row enforces on a scenario's own value. A product past the
    float range is refused at the scale's key."""
    values = []
    for key in rules:
        value = getattr(spec, key.name)
        if key.scale is not None:
            value *= scales[key.scale]
            if not math.isfinite(value):
                _fail("%s.%s" % (path, key.scale),
                      "scales %s past the float range" % key.name)
            value = max(key.minimum, int(value))
        values.append(value)
    return type(spec)(*values)


def _parse_topology(section, path: str) -> NetworkTopology:
    sec = _keys(section, path, _TOPOLOGY)
    # a key given as null still selects a custom topology
    if ("nodes" in sec) != ("links" in sec):
        _fail(path, "custom topologies need both nodes and links")
    rate_scale, capacity_scale, nodes, links = _values(sec, path, _TOPOLOGY)
    if "nodes" in sec:
        base = _check(NetworkTopology, path, nodes, links)
    else:
        base = DEFAULT_TOPOLOGY
    if rate_scale == 1.0 and capacity_scale == 1.0:
        return base
    scales = {"rate_scale": rate_scale, "capacity_scale": capacity_scale}
    return NetworkTopology(
        nodes=tuple(_scaled(n, _NODE, scales, path) for n in base.nodes),
        links=tuple(_scaled(l, _LINK, scales, path) for l in base.links))


def _parse_placement(section, path: str, topology: NetworkTopology,
                     n_sh: int) -> RolePlacement:
    *roles, holders = _section(section, path, _PLACEMENT)
    known = set(topology.node_names())
    if holders is None:
        holders = RolePlacement.for_holders(n_sh).holders
        if not known.issuperset(holders):
            _fail(path + ".holders",
                  "no default placement covers %d holders on this topology; "
                  "list the holder nodes explicitly" % n_sh)
    if len(holders) != n_sh:
        _fail(path + ".holders",
              "expected %d holder nodes, got %d" % (n_sh, len(holders)))
    for i, name in enumerate(holders):
        p = "%s.holders[%d]" % (path, i)
        if _str(name, p) not in known:
            _fail(p, "node %r is not in the topology" % name)
    for key, name in zip(_PLACEMENT, roles):
        if name not in known:
            _fail("%s.%s" % (path, key.name),
                  "node %r is not in the topology (nodes: %s)"
                  % (name, ", ".join(sorted(known))))
    return RolePlacement(tuple(holders), *roles)


def _parse_skews(section, path: str, n_sh: int) -> dict:
    sec = _as_mapping(section, path)
    valid = set(role_endpoints(n_sh))
    out = {}
    for key, value in sec.items():
        p = "%s.%s" % (path, key)
        if key not in valid:
            _fail(p, "unknown role (valid: %s)" % ", ".join(sorted(valid)))
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(p, "expected an integer millisecond offset")
        out[key] = value
    return out


def derive_payload(seed: str, size_bytes: int) -> bytes:
    """Deterministic pseudorandom payload for a given scenario seed."""
    return PrfBits(derive_key(seed, "scenario-payload")).read_bytes(0, size_bytes)


def _parse_payload(section, path: str, seed: str) -> bytes:
    sec = _keys(section, path, _PAYLOAD)
    # a key given as null is still given
    given = [key for key in _PAYLOAD if key.name in sec] or [_PAYLOAD[0]]
    if len(given) > 1:
        _fail(path, "give exactly one of size_kb, size_bytes, text")
    (value,) = _values(sec, path, given)
    if given[0].name == "text":
        return value.encode("utf-8")
    return derive_payload(seed, value * 1024 if given[0].name == "size_kb"
                          else value)


def _parse_attack(section, path: str, n_sh: int) -> AttackConfig:
    kind, holder, drop = _section(section, path, _ATTACK)
    index = _Key("index", _int, minimum=1, maximum=n_sh)
    if kind == "corrupt-holder":
        holder = _int(holder, path + ".holder", index)
    elif holder is not None:
        _fail(path + ".holder", "only valid for kind corrupt-holder")
    if kind == "drop-holder":
        drop = _as_list(drop, path + ".drop")
        if not drop:
            _fail(path + ".drop", "expected a non-empty list of holder indices")
        for i, row in enumerate(drop):
            p = "%s.drop[%d]" % (path, i)
            if _int(row, p, index) in drop[:i]:
                _fail(p, "duplicate holder index %d" % row)
    elif drop is not None:
        _fail(path + ".drop", "only valid for kind drop-holder")
    return AttackConfig(kind=kind, holder=holder, drop=tuple(drop or ()))


# ------------------------------------------------------------- entry points


def parse_scenario(mapping, name_default: str = "scenario") -> ScenarioConfig:
    """Validate a parsed YAML mapping into a ScenarioConfig."""
    rules = (_Key("name", _str, name_default),) + _SCENARIO
    sec = _keys(mapping, "scenario", rules)
    (name, seed, warmup_ms, params, (scheme, k, cs_tag_bits), renewal,
     topology, placement, skews, payload, password, attack, bench, outputs,
     expect) = _values(sec, "", rules)
    if cs_tag_bits == k and (sec.get("mac") or {}).get("cs_tag_bits") is None:
        _fail("mac.cs_tag_bits", "unset, and its default of %d equals k = %d;"
              " set it to another width" % (DEFAULT_DIGEST_BITS, k))
    _check(check_digest_bits, "mac.cs_tag_bits", cs_tag_bits, k)
    group, rounds = _parse_renewal(renewal, "renewal", params.field)
    topology = _parse_topology(topology, "topology")
    return ScenarioConfig(
        name=name, seed=seed, warmup_ms=warmup_ms, params=params,
        scheme=MacScheme(scheme), k=k, cs_tag_bits=cs_tag_bits,
        renewal_group=group, renewal_rounds=rounds,
        placement=_parse_placement(placement, "placement", topology,
                                   params.n_sh),
        clock_skews=_parse_skews(skews, "clock_skews", params.n_sh),
        topology=topology, payload=_parse_payload(payload, "payload", seed),
        password=password.encode("utf-8"),
        attack=_parse_attack(attack, "attack", params.n_sh),
        bench=bench, outputs=outputs, expect=expect)


def read_scenario(path) -> dict:
    """The mapping a scenario file (YAML) holds, unvalidated; an empty
    file holds {}."""
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError("cannot read scenario file %s: %s" % (p, exc))
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigurationError("scenario file %s is not valid YAML: %s"
                                 % (p, exc))
    return _as_mapping(data, "scenario")


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file (YAML)."""
    return parse_scenario(read_scenario(path), name_default=Path(path).stem)
