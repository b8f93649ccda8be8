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
      field: mersenne127          # mersenne127 | mersenne31 | decimal prime
    mac:
      scheme: polyeval            # the only registration MAC
      k: 256                      # tag bits, multiple of 8, >= 16
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

import dataclasses
from dataclasses import dataclass
from pathlib import Path

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


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, "expected a mapping, got %s" % type(value).__name__)
    return value


def _check_keys(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            _fail(path, "unknown key %r (allowed: %s)"
                  % (key, ", ".join(sorted(allowed))))


def _as_str(value, path: str, default=None) -> str:
    if value is None and default is not None:
        return default
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _as_int(value, path: str, default=None, minimum=None, maximum=None) -> int:
    if value is None and default is not None:
        value = default
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, "must be >= %d" % minimum)
    if maximum is not None and value > maximum:
        _fail(path, "must be <= %d" % maximum)
    return value


def _as_bool(value, path: str, default: bool) -> bool:
    if value is None:
        return default
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _as_float(value, path: str, default: float, minimum: float) -> float:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    value = float(value)
    if value < minimum:
        _fail(path, "must be >= %g" % minimum)
    return value


def _as_list(value, path: str, default=None) -> list:
    if value is None:
        return list(default) if default is not None else []
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return value


# --------------------------------------------------------------- sections


_FIELD_ALIASES = {"mersenne127": 127, "mersenne31": 31, "mersenne61": 61}


def _parse_field(value, path: str) -> PrimeField:
    if value is None:
        return PrimeField.mersenne(DEFAULT_FIELD_EXPONENT)
    if isinstance(value, str) and value in _FIELD_ALIASES:
        return PrimeField.mersenne(_FIELD_ALIASES[value])
    if isinstance(value, str) and value.isdigit():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected %s or a decimal prime"
              % "|".join(sorted(_FIELD_ALIASES)))
    try:
        return PrimeField(value)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _parse_layout(section, path: str) -> SpssParams:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("threshold", "holders", "field"), path)
    t_sh = _as_int(sec.get("threshold"), path + ".threshold",
                   default=SpssParams.t_sh)
    n_sh = _as_int(sec.get("holders"), path + ".holders",
                   default=SpssParams.n_sh, minimum=2)
    field = _parse_field(sec.get("field"), path + ".field")
    try:
        return SpssParams(t_sh=t_sh, n_sh=n_sh, field=field)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _parse_mac(section, path: str):
    sec = _as_mapping(section, path)
    _check_keys(sec, ("scheme", "k", "cs_tag_bits"), path)
    raw = _as_str(sec.get("scheme"), path + ".scheme", default="polyeval")
    try:
        scheme = MacScheme(raw)
    except ValueError:
        _fail(path + ".scheme", "expected one of: %s"
              % ", ".join(s.value for s in MacScheme))
    k = _as_int(sec.get("k"), path + ".k", default=DEFAULT_K, minimum=1)
    try:
        check_k(k)
    except ConfigurationError as exc:
        _fail(path + ".k", str(exc))
    cs_tag_bits = _as_int(sec.get("cs_tag_bits"), path + ".cs_tag_bits",
                          default=DEFAULT_DIGEST_BITS)
    try:
        check_digest_bits(cs_tag_bits, k)
    except ConfigurationError as exc:
        _fail(path + ".cs_tag_bits", str(exc))
    return scheme, k, cs_tag_bits


def _parse_renewal(section, path: str, field: PrimeField):
    sec = _as_mapping(section, path)
    _check_keys(sec, ("group", "rounds"), path)
    rounds = _as_int(sec.get("rounds"), path + ".rounds", default=0, minimum=0)
    raw = sec.get("group")
    group = None
    if raw is not None:
        name = _as_str(raw, path + ".group")
        try:
            group = group_by_name(name)
        except ConfigurationError as exc:
            _fail(path + ".group", str(exc))
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


def _scaled_topology(base: NetworkTopology, rate_scale: float,
                     capacity_scale: float) -> NetworkTopology:
    if rate_scale == 1.0 and capacity_scale == 1.0:
        return base
    nodes = tuple(
        dataclasses.replace(
            n,
            entropy_rate_bps=max(0, int(n.entropy_rate_bps * rate_scale)),
            entropy_capacity_bits=max(1, int(n.entropy_capacity_bits * capacity_scale)),
            initial_entropy_bits=max(0, int(n.initial_entropy_bits * capacity_scale)),
        )
        for n in base.nodes)
    links = tuple(
        dataclasses.replace(
            l,
            rate_bps=max(0, int(l.rate_bps * rate_scale)),
            capacity_bits=max(1, int(l.capacity_bits * capacity_scale)),
        )
        for l in base.links)
    return NetworkTopology(nodes=nodes, links=links)


def _parse_custom_nodes(rows, path: str) -> tuple:
    nodes = []
    for i, row in enumerate(rows):
        p = "%s[%d]" % (path, i)
        row = _as_mapping(row, p)
        _check_keys(row, ("name", "entropy_rate_bps", "entropy_capacity_bits",
                          "initial_entropy_bits"), p)
        nodes.append(NodeSpec(
            name=_as_str(row.get("name"), p + ".name"),
            entropy_rate_bps=_as_int(
                row.get("entropy_rate_bps"), p + ".entropy_rate_bps",
                default=NodeSpec.entropy_rate_bps, minimum=0),
            entropy_capacity_bits=_as_int(
                row.get("entropy_capacity_bits"), p + ".entropy_capacity_bits",
                default=NodeSpec.entropy_capacity_bits, minimum=1),
            initial_entropy_bits=_as_int(
                row.get("initial_entropy_bits"), p + ".initial_entropy_bits",
                default=NodeSpec.initial_entropy_bits, minimum=0),
        ))
    return tuple(nodes)


def _parse_custom_links(rows, path: str) -> tuple:
    links = []
    for i, row in enumerate(rows):
        p = "%s[%d]" % (path, i)
        row = _as_mapping(row, p)
        _check_keys(row, ("name", "a", "b", "rate_bps", "length_km",
                          "loss_db", "capacity_bits"), p)
        spec = dict(
            name=_as_str(row.get("name"), p + ".name"),
            a=_as_str(row.get("a"), p + ".a"),
            b=_as_str(row.get("b"), p + ".b"),
            rate_bps=_as_int(row.get("rate_bps"), p + ".rate_bps", minimum=0),
            length_km=_as_float(row.get("length_km"), p + ".length_km",
                                default=LinkSpec.length_km, minimum=0.0),
            loss_db=_as_float(row.get("loss_db"), p + ".loss_db",
                              default=LinkSpec.loss_db, minimum=0.0),
            capacity_bits=_as_int(row.get("capacity_bits"), p + ".capacity_bits",
                                  default=LinkSpec.capacity_bits, minimum=1),
        )
        try:
            links.append(LinkSpec(**spec))
        except ConfigurationError as exc:
            _fail(p, str(exc))
    return tuple(links)


def _parse_topology(section, path: str) -> NetworkTopology:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("rate_scale", "capacity_scale", "nodes", "links"), path)
    rate_scale = _as_float(sec.get("rate_scale"), path + ".rate_scale",
                           default=1.0, minimum=0.0)
    capacity_scale = _as_float(sec.get("capacity_scale"), path + ".capacity_scale",
                               default=1.0, minimum=0.0)
    has_nodes = "nodes" in sec
    has_links = "links" in sec
    if has_nodes != has_links:
        _fail(path, "custom topologies need both nodes and links")
    if has_nodes:
        nodes = _parse_custom_nodes(_as_list(sec.get("nodes"), path + ".nodes"),
                                    path + ".nodes")
        links = _parse_custom_links(_as_list(sec.get("links"), path + ".links"),
                                    path + ".links")
        try:
            base = NetworkTopology(nodes=nodes, links=links)
        except ConfigurationError as exc:
            _fail(path, str(exc))
    else:
        base = DEFAULT_TOPOLOGY
    try:
        return _scaled_topology(base, rate_scale, capacity_scale)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _parse_placement(section, path: str, topology: NetworkTopology,
                     n_sh: int) -> RolePlacement:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("owner", "end-user", "calculator", "verifier", "holders"),
                path)
    known = set(topology.node_names())
    default = RolePlacement.for_holders(n_sh)

    def node(key):
        value = _as_str(sec.get(key), "%s.%s" % (path, key),
                        default=getattr(default, key.replace("-", "_")))
        if value not in known:
            _fail("%s.%s" % (path, key),
                  "node %r is not in the topology (nodes: %s)"
                  % (value, ", ".join(sorted(known))))
        return value

    if sec.get("holders") is None and not known.issuperset(default.holders):
        _fail(path + ".holders",
              "no default placement covers %d holders on this topology; "
              "list the holder nodes explicitly" % n_sh)
    rows = _as_list(sec.get("holders"), path + ".holders",
                    default=default.holders)
    if len(rows) != n_sh:
        _fail(path + ".holders",
              "expected %d holder nodes, got %d" % (n_sh, len(rows)))
    holders = []
    for i, row in enumerate(rows):
        p = "%s.holders[%d]" % (path, i)
        name = _as_str(row, p)
        if name not in known:
            _fail(p, "node %r is not in the topology" % name)
        holders.append(name)
    return RolePlacement(owner=node("owner"), end_user=node("end-user"),
                         calculator=node("calculator"), verifier=node("verifier"),
                         holders=tuple(holders))


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
    sec = _as_mapping(section, path)
    _check_keys(sec, ("size_kb", "size_bytes", "text"), path)
    given = [k for k in ("size_kb", "size_bytes", "text") if k in sec]
    if len(given) > 1:
        _fail(path, "give exactly one of size_kb, size_bytes, text")
    if "text" in sec:
        text = _as_str(sec.get("text"), path + ".text")
        return text.encode("utf-8")
    if "size_bytes" in sec:
        size = _as_int(sec.get("size_bytes"), path + ".size_bytes",
                       minimum=1, maximum=_MAX_PAYLOAD_BYTES)
    else:
        size = _as_int(sec.get("size_kb"), path + ".size_kb", default=1,
                       minimum=1, maximum=_MAX_PAYLOAD_BYTES // 1024) * 1024
    return derive_payload(seed, size)


def _parse_attack(section, path: str, n_sh: int) -> AttackConfig:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("kind", "holder", "drop"), path)
    kind = _as_str(sec.get("kind"), path + ".kind", default="none")
    if kind not in ATTACK_KINDS:
        _fail(path + ".kind", "expected one of: %s" % ", ".join(ATTACK_KINDS))
    holder = None
    drop = ()
    if kind == "corrupt-holder":
        holder = _as_int(sec.get("holder"), path + ".holder",
                         minimum=1, maximum=n_sh)
    elif sec.get("holder") is not None:
        _fail(path + ".holder", "only valid for kind corrupt-holder")
    if kind == "drop-holder":
        rows = _as_list(sec.get("drop"), path + ".drop")
        if not rows:
            _fail(path + ".drop", "expected a non-empty list of holder indices")
        seen = []
        for i, row in enumerate(rows):
            v = _as_int(row, "%s.drop[%d]" % (path, i), minimum=1, maximum=n_sh)
            if v in seen:
                _fail("%s.drop[%d]" % (path, i), "duplicate holder index %d" % v)
            seen.append(v)
        drop = tuple(seen)
    elif sec.get("drop") is not None:
        _fail(path + ".drop", "only valid for kind drop-holder")
    return AttackConfig(kind=kind, holder=holder, drop=drop)


def _parse_bench(section, path: str) -> BenchConfig:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("sizes_kb", "repetitions", "compare_general_prime"), path)
    rows = _as_list(sec.get("sizes_kb"), path + ".sizes_kb",
                    default=BenchConfig.sizes_kb)
    if not rows:
        _fail(path + ".sizes_kb", "expected a non-empty list")
    sizes = tuple(
        _as_int(row, "%s.sizes_kb[%d]" % (path, i), minimum=1,
                maximum=_MAX_PAYLOAD_BYTES // 1024)
        for i, row in enumerate(rows))
    reps = _as_int(sec.get("repetitions"), path + ".repetitions",
                   default=BenchConfig.repetitions, minimum=1)
    compare = _as_bool(sec.get("compare_general_prime"),
                       path + ".compare_general_prime",
                       default=BenchConfig.compare_general_prime)
    return BenchConfig(sizes_kb=sizes, repetitions=reps,
                       compare_general_prime=compare)


def _parse_outputs(section, path: str) -> OutputConfig:
    sec = _as_mapping(section, path)
    _check_keys(sec, ("transcript", "csv", "gnuplot"), path)
    out = {}
    for key in ("transcript", "csv", "gnuplot"):
        value = sec.get(key)
        out[key] = None if value is None else _as_str(value, "%s.%s" % (path, key))
    return OutputConfig(**out)


def _parse_expect(rows, path: str) -> tuple:
    out = []
    for i, row in enumerate(rows):
        p = "%s[%d]" % (path, i)
        row = _as_mapping(row, p)
        _check_keys(row, ("phase", "outcome"), p)
        phase = _as_str(row.get("phase"), p + ".phase")
        if phase not in EXPECT_PHASES:
            _fail(p + ".phase", "expected one of: %s" % ", ".join(EXPECT_PHASES))
        outcome = _as_str(row.get("outcome"), p + ".outcome")
        if outcome not in EXPECT_OUTCOMES:
            _fail(p + ".outcome",
                  "expected one of: %s" % ", ".join(EXPECT_OUTCOMES))
        out.append(Expectation(phase=phase, outcome=outcome))
    return tuple(out)


# ------------------------------------------------------------- entry points

_TOP_KEYS = ("name", "seed", "warmup_ms", "layout", "mac", "renewal",
             "placement", "clock_skews", "topology", "payload", "password",
             "attack", "bench", "outputs", "expect")


def parse_scenario(mapping, name_default: str = "scenario") -> ScenarioConfig:
    """Validate a parsed YAML mapping into a ScenarioConfig."""
    sec = _as_mapping(mapping, "scenario")
    _check_keys(sec, _TOP_KEYS, "scenario")

    name = _as_str(sec.get("name"), "name", default=name_default)
    seed = _as_str(sec.get("seed"), "seed", default="itstore")
    warmup_ms = _as_int(sec.get("warmup_ms"), "warmup_ms",
                        default=DEFAULT_WARMUP_MS, minimum=0)

    params = _parse_layout(sec.get("layout"), "layout")
    scheme, k, cs_tag_bits = _parse_mac(sec.get("mac"), "mac")
    group, rounds = _parse_renewal(sec.get("renewal"), "renewal", params.field)
    topology = _parse_topology(sec.get("topology"), "topology")
    placement = _parse_placement(sec.get("placement"), "placement",
                                 topology, params.n_sh)
    skews = _parse_skews(sec.get("clock_skews"), "clock_skews", params.n_sh)
    payload = _parse_payload(sec.get("payload"), "payload", seed)
    password = _as_str(sec.get("password"), "password",
                       default=DEFAULT_PASSWORD).encode("utf-8")
    attack = _parse_attack(sec.get("attack"), "attack", params.n_sh)
    bench = _parse_bench(sec.get("bench"), "bench")
    outputs = _parse_outputs(sec.get("outputs"), "outputs")
    expect = _parse_expect(_as_list(sec.get("expect"), "expect"), "expect")

    return ScenarioConfig(
        name=name, seed=seed, warmup_ms=warmup_ms, params=params,
        scheme=scheme, k=k, cs_tag_bits=cs_tag_bits, renewal_group=group,
        renewal_rounds=rounds, placement=placement, clock_skews=skews,
        topology=topology, payload=payload, password=password, attack=attack,
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
