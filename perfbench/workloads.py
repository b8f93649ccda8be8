"""The three itstore benchmark workloads and the closed-loop runner.

Each run builds a fresh deployment -- the default five-node topology with
link rates x200 and capacities x40, a (3,4) layout over the Mersenne
prime 2^127 - 1, Toeplitz tags with k = 256 and the mersenne127 renewal
group, as in scenarios/bench.yaml -- and drives itstore.protocol.TpvSession
directly from one client thread.  A cycle is the repeated unit; the next
operation starts only when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from itstore.config import parse_scenario
from itstore.errors import ItstoreError
from itstore.keynet import KeyNetwork
from itstore.protocol import Outcome, TpvSession
from itstore.spss import data_block_count

from tracer import KINDS, OPS

# The deployment of scenarios/bench.yaml, written out here so that a later
# edit of the shipped scenario cannot change what the benchmark measures.
DEPLOYMENT = {
    "name": "perfbench",
    "topology": {"rate_scale": 200, "capacity_scale": 40},
    "renewal": {"group": "mersenne127"},
}
WAIT_STEP_MS = 60_000  # simulated wait per key-supply shortfall, as run_bench


@dataclass(frozen=True)
class Workload:
    name: str
    payload_bytes: int
    measured_cycles: int  # cycles per run; every metric is taken over them
    setups: int  # set-ups per untraced run, spread over the cycles


# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
# measured_cycles is sized so the cycles take about 25 s on the reference
# machine of BASELINE.md running the unchanged code.
WORKLOADS = {
    w.name: w for w in (
        Workload("archive-1k", 1024, 150, 150),
        Workload("bulk-100k", 100 * 1024, 5, 50),
        Workload("renew-10k", 10 * 1024, 4, 10),
    )
}


class Deployment:
    """One fresh itstore deployment under a store directory, built from its
    scenario."""

    def __init__(self, scenario: dict, root: Path, master_seed: bytes):
        config = parse_scenario(scenario)
        self.root = root
        self.net = KeyNetwork(config.topology, master_seed=master_seed)
        self.session = TpvSession(
            root, net=self.net, params=config.params, scheme=config.scheme,
            k=config.k, placement=config.placement,
            clock_skews=config.clock_skews,
            renewal_group=config.renewal_group,
            cs_tag_bits=config.cs_tag_bits, master_seed=master_seed,
            advance_on_exhaustion_ms=WAIT_STEP_MS)
        self.net.advance(config.warmup_ms)

    def stored_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    def key_totals(self) -> dict:
        ledger = self.net.ledger()
        return {
            "relayed_out": sum(r["relayed_out"] for r in ledger["links"].values()),
            "consumed": sum(r["consumed"] for r in ledger["pairs"].values()),
            "relay_overhead": ledger["relay_overhead"],
            "pool_consumed": sum(r["consumed"] for r in ledger["pools"].values()),
        }

    def digest(self) -> str:
        """Digest of the transcript, key ledger and stored bytes."""
        h = hashlib.sha256(self.session.transcript_text().encode())
        h.update(json.dumps(self.net.ledger(), sort_keys=True).encode())
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(self.root)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def transcript_counts(lines) -> dict:
    """Counts read back from transcript lines, so untraced runs can be
    compared with traced ones: messages, local hand-offs, key bits by kind."""
    out = defaultdict(int)
    for line in lines:
        head = line.split(" ", 1)[0]
        if head not in ("local", "otp"):
            continue
        out["protocol.messages"] += 1
        kind = line.split(" kind=", 1)[1].split(" ", 1)[0]
        if head == "local":
            out["protocol.local_messages"] += 1
        else:
            out["keynet.key_bits." + kind] += int(line.rsplit(" cost=", 1)[1])
    return dict(out)


@dataclass
class Result:
    """What one closed-loop window on one deployment produced."""

    workload: str
    cycles: int = 0
    window_s: float = 0.0
    setup_s: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    setup_samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # run-level check failures
    served_bytes: int = 0
    registered_bytes: int = 0
    stored_bytes: int = 0
    peak_rss_mb: float = 0.0
    key_delta: dict = field(default_factory=dict)
    setup_digests: list = field(default_factory=list)
    cycle_records: list = field(default_factory=list)
    window_digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


class Runner:
    """Runs one workload for one seed on a fresh deployment."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None  # set to a Tracer to open a root span per op
        self.scenario = dict(DEPLOYMENT, seed="perfbench|%d" % seed)
        self.master = ("perfbench|%s|%d" % (workload.name, seed)).encode()
        self.password = ("pw-%d" % seed).encode()
        params = parse_scenario(self.scenario).params
        self.tracks = data_block_count(workload.payload_bytes, params) + 1
        self.result = Result(workload.name)
        self.dep = None
        self._extra = 0

    # ------------------------------------------------------------ inputs

    def payload(self, index: int) -> bytes:
        label = b"%s|payload|%d" % (self.master, index)
        return hashlib.shake_256(label).digest(self.workload.payload_bytes)

    # ---------------------------------------------------------- one op

    def _op(self, name, samples, call, check):
        """Time one operation; a raised ItstoreError or a failed check
        counts the op as failed. Returns the call's result or None."""
        res = self.result
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.op(name):
                    out = call()
            else:
                out = call()
        except ItstoreError as exc:
            res.failures.append("%s raised %r" % (name, exc))
            return None
        dt = time.perf_counter() - t0
        problem = check(out)
        if problem:
            res.failures.append("%s: %s" % (name, problem))
            return None
        samples[name].append(dt)
        return out

    def _expect(self, outcome):
        return lambda v: None if v.outcome is outcome else "outcome %s" % v.outcome.value

    def _register(self, session, samples, payload):
        return self._op("register", samples,
                        lambda: session.register(payload, self.password),
                        lambda r: None)

    def _precompute(self, session, samples, sid):
        return self._op("precompute", samples,
                        lambda: session.precompute(sid, rounds=self.tracks),
                        lambda ids: None if len(ids) == self.tracks
                        else "stocked %d tuples" % len(ids))

    def _reconstruct(self, sid, payload):
        def check(rel):
            if rel.outcome is not Outcome.SUCCESS:
                return "outcome %s (%s)" % (rel.outcome.value, rel.detail)
            return None if rel.data == payload else "released bytes differ"
        released = self._op("reconstruct", self.result.samples,
                            lambda: self.session.reconstruct_and_release(
                                sid, self.password), check)
        if released is not None:
            self.result.served_bytes += len(payload)
        return released

    def _verify(self, sid):
        return self._op("verify", self.result.samples,
                        lambda: self.session.integrity_check(sid),
                        self._expect(Outcome.SUCCESS))

    def _refute(self, sid, t1, payload):
        forged = flip_bit(payload, self.rng.randrange(len(payload) * 8))
        return self._op("refute", self.result.samples,
                        lambda: self.session.refute(sid, claim_data=forged,
                                                    claim_t1=t1),
                        self._expect(Outcome.SUCCESS))

    def _renew(self, sid):
        return self._op("renew", self.result.samples,
                        lambda: self.session.renew(sid),
                        lambda rep: None if rep.accepted
                        else "round rejected: %s" % (rep.accusations,))

    # ------------------------------------------------------------ set-up

    def _build(self, root: Path):
        """Build, time and digest a fresh deployment under `root`, from
        parsing its scenario to a ready session; on renew-10k, also register
        and stock the one secret. Returns the deployment and its secrets as
        (sid, t1, payload)."""
        samples = self.result.setup_samples
        t0 = time.perf_counter()
        dep = Deployment(self.scenario, root, self.master)
        secrets = []
        if self.workload.name == "renew-10k":
            payload = self.payload(0)
            sid_t1 = self._register(dep.session, samples, payload)
            if sid_t1 is not None:
                secrets.append(sid_t1 + (payload,))
                self._precompute(dep.session, samples, sid_t1[0])
        self.result.setup_s.append(time.perf_counter() - t0)
        self.result.setup_digests.append(dep.digest())
        return dep, secrets

    def setup(self) -> None:
        """Build the deployment the cycles run on."""
        self.dep, self.secrets = self._build(self.work_dir / "deployment")
        self.session = self.dep.session
        self.rng = random.Random("%s|%d" % (self.workload.name, self.seed))

    def extra_setup(self) -> None:
        """Build, time and drop one more deployment, so that setup_s is a
        median over set-ups made at several moments of the run."""
        self._extra += 1
        dep, _ = self._build(self.work_dir / ("setup-%d" % self._extra))
        shutil.rmtree(dep.root)

    # ------------------------------------------------------------ cycles

    def cycle(self, i: int) -> None:
        name = self.workload.name
        if name == "renew-10k":
            if not self.secrets:
                return
            sid, _t1, payload = self.secrets[0]
            if self._renew(sid) is None:
                return
            if self._precompute(self.session, self.result.samples, sid) is None:
                return
            if self._reconstruct(sid, payload) is not None:
                self._verify(sid)
            return
        earlier = list(self.secrets)
        payload = self.payload(i)
        sid_t1 = self._register(self.session, self.result.samples, payload)
        if sid_t1 is None:
            return
        sid, t1 = sid_t1
        self.secrets.append((sid, t1, payload))
        if self._precompute(self.session, self.result.samples, sid) is None:
            return
        if self._reconstruct(sid, payload) is None:
            return
        if self._verify(sid) is None:
            return
        if name == "bulk-100k":
            self._refute(sid, t1, payload)
        elif i % 4 == 3 and earlier:
            self._refute(*earlier[self.rng.randrange(len(earlier))])

    def window(self, cycles=None, between=None) -> Result:
        """Run `cycles` cycles (measured_cycles by default), then check
        conservation and collect the figures. `between(i)`, if given, runs
        before cycle i and outside the timed part."""
        res = self.result
        dep = self.dep
        keys0 = dep.key_totals()
        lines0 = len(self.session.transcript)
        marks = [lines0]
        snaps = []
        for i in range(self.workload.measured_cycles if cycles is None else cycles):
            if between is not None:
                between(i)
            started = res.attempted
            t0 = time.perf_counter()
            self.cycle(i)
            res.window_s += time.perf_counter() - t0
            if res.attempted == started:
                break  # set-up failed, so no cycle can start an operation
            res.cycles += 1
            marks.append(len(self.session.transcript))
            if self.tracer is not None:
                snaps.append(self.tracer.snapshot())
        res.registered_bytes = sum(len(p) for _sid, _t1, p in self.secrets)
        res.stored_bytes = dep.stored_bytes()
        res.peak_rss_mb = peak_rss_mb()
        keys1 = dep.key_totals()
        res.key_delta = {k: keys1[k] - keys0[k] for k in keys0}
        if not dep.net.conservation_holds():
            res.problems.append("key conservation violated")
        lines = self.session.transcript
        res.window_digest = hashlib.sha256(
            "\n".join(lines[lines0:]).encode()).hexdigest()
        prev = {}
        for c in range(res.cycles):
            part = lines[marks[c]:marks[c + 1]]
            rec = transcript_counts(part)
            rec["transcript_sha256"] = hashlib.sha256(
                "\n".join(part).encode()).hexdigest()
            if snaps:
                rec["traced"] = {k: v - prev.get(k, 0) for k, v in snaps[c].items()
                                 if v != prev.get(k, 0)}
                prev = snaps[c]
            res.cycle_records.append(rec)
        return res

    def close(self) -> None:
        if self.dep is not None:
            shutil.rmtree(self.dep.root, ignore_errors=True)


# ------------------------------------------------------------------ metrics

def _median_ms(values):
    return statistics.median(values) * 1000.0


def _p90_ms(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res: Result) -> dict:
    """Every end-to-end figure the run supports: (value, unit) by name."""
    m = {
        "setup_s": (statistics.median(res.setup_s), "s"),
        "cycles_per_s": (res.cycles / res.window_s, "1/s"),
    }
    for op in OPS:
        values = res.samples.get(op) or res.setup_samples.get(op)
        if values:
            m[op + "_ms"] = (_median_ms(values), "ms")
            m[op + "_samples"] = (len(values), "count")
    for op in ("register", "reconstruct"):
        values = res.samples.get(op, [])
        if len(values) >= 100:
            m[op + "_p90_ms"] = (_p90_ms(values), "ms")
    if res.served_bytes:
        m["key_bits_per_payload_bit"] = (
            res.key_delta["relayed_out"] / (8 * res.served_bytes), "bit/bit")
    if res.registered_bytes:
        m["store_bytes_per_payload_byte"] = (
            res.stored_bytes / res.registered_bytes, "B/B")
    m["error_rate"] = (len(res.failures) / res.attempted if res.attempted else 0.0,
                       "ratio")
    m["peak_rss_mb"] = (res.peak_rss_mb, "MB")
    m["measured_cycles"] = (res.cycles, "count")
    return m


def reconcile(layer: dict, res: Result) -> list:
    """Key-accounting identities of a traced window; returns the breaks."""
    problems = []
    parts = layer["keynet.pad_bits"] + layer["keynet.tag_pad_bits"] \
        + layer["keynet.seed_growth_bits"]
    by_kind = sum(layer["keynet.key_bits." + k] for k in KINDS)
    consumed = res.key_delta["consumed"]
    if not parts == by_kind == consumed:
        problems.append("key bits: pad+tag+growth %d, by kind %d, pair streams %d"
                        % (parts, by_kind, consumed))
    if layer["keynet.relay_overhead_bits"] != res.key_delta["relay_overhead"]:
        problems.append("relay overhead: traced %d, ledger %d"
                        % (layer["keynet.relay_overhead_bits"],
                           res.key_delta["relay_overhead"]))
    return problems
