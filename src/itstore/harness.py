"""Scenario runner and benchmark harness.

run_scenario drives one configured end-to-end run — key-network warmup,
registration, masking precomputation, optional proactive renewal,
reconstruction with any configured fault injection, third-party integrity
verification, and (for false claims) refutation — and reduces the verdicts
to a process exit code:

    0  every adjudicated phase succeeded
    1  a verification phase returned FAIL (tamper or false claim detected)
    2  a phase aborted (threshold, key supply, channel integrity)
    3  configuration error
    4  the run contradicted the scenario's declared expectations

run_bench measures per-phase wall-clock times across a sweep of payload
sizes with repetition statistics and emits a CSV table plus a
gnuplot-ready data file.  Protocol semantics always run on simulated
clocks (transcripts are reproducible bit for bit); only the BenchReport
rows use wall time.

The Mersenne-versus-general-prime comparison mode times the share and
authenticator computation of registration on 2^2203 - 1 against a general
prime of the same bit length.  Shift-and-add folding only outpaces
arbitrary-precision division once operands are far wider than the default
127-bit storage field, so the comparison runs at a width where the choice
of modulus — not interpreter overhead — is what gets measured.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .config import ScenarioConfig, derive_payload
from .entropy import SeededEntropy
from .errors import ItstoreError, ProtocolError
from .field import PrimeField
from .keynet import KeyNetwork
from .protocol import Outcome, Phase, ReleaseResult, TpvSession
from .spss import (SpssParams, data_block_count, password_to_element,
                   spss_register)

__all__ = [
    "BenchReport",
    "BenchRow",
    "COMPARE_EXPONENT",
    "COMPARE_GENERAL_Q",
    "EXIT_ABORT",
    "EXIT_CONFIG",
    "EXIT_EXPECTATION",
    "EXIT_FAIL",
    "EXIT_SUCCESS",
    "ScenarioResult",
    "WAIT_STEP_MS",
    "build_session",
    "run_bench",
    "run_scenario",
]

EXIT_SUCCESS = 0
EXIT_FAIL = 1
EXIT_ABORT = 2
EXIT_CONFIG = 3
EXIT_EXPECTATION = 4

# Comparison-mode field pair: a Mersenne prime and the largest prime of the
# same bit length (scanned once offline; primality is re-checked on use).
COMPARE_EXPONENT = 2203
COMPARE_GENERAL_Q = (1 << 2203) - 2511
_COMPARE_PAYLOAD_BYTES = 16 * 1024

WAIT_STEP_MS = 60_000  # simulated-time step while waiting for key material


# ----------------------------------------------------------------- results


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a caller or test needs from one scenario run."""

    config: ScenarioConfig
    secret_id: str                 # hex, "" when registration never finished
    verdicts: tuple                # protocol VerdictEvents, in order
    renewal_reports: tuple
    released: "bytes | None"       # payload delivered to the end user
    observed: dict                 # phase name -> last outcome string
    failures: tuple                # expectation mismatches, human-readable
    exit_code: int
    transcript: str
    key_ledger: dict
    conservation_ok: bool


@dataclass(frozen=True)
class BenchRow:
    phase: str
    size_bytes: int
    rep: int
    seconds: float
    transcript_id: str


@dataclass(frozen=True)
class BenchReport:
    rows: tuple                    # BenchRow, one per phase x size x rep
    medians: dict                  # (phase, size_bytes) -> (median, iqr)
    ledger_summary: dict           # size_bytes -> key-consumption totals
    transcripts: dict              # transcript_id -> full transcript text
    compare_rows: tuple            # BenchRow for the modulus comparison
    compare_medians: dict          # field kind -> median seconds
    mersenne_faster: "bool | None"  # None when comparison mode is off

    def csv_text(self) -> str:
        out = ["phase,size_bytes,rep,seconds,transcript_id"]
        for row in (*self.rows, *self.compare_rows):
            out.append("%s,%d,%d,%.9f,%s" % (
                row.phase, row.size_bytes, row.rep, row.seconds,
                row.transcript_id))
        return "\n".join(out) + "\n"

    def gnuplot_text(self) -> str:
        """One indexed block per phase: size_bytes, median_s, iqr_s."""
        phases = sorted({row.phase for row in self.rows})
        chunks = []
        for phase in phases:
            lines = ["# phase: %s" % phase,
                     "# size_bytes median_seconds iqr_seconds"]
            sizes = sorted({s for (p, s) in self.medians if p == phase})
            for size in sizes:
                med, iqr = self.medians[(phase, size)]
                lines.append("%d %.9f %.9f" % (size, med, iqr))
            chunks.append("\n".join(lines))
        footer = ["# key-consumption summary (bits)"]
        for size in sorted(self.ledger_summary):
            row = self.ledger_summary[size]
            footer.append("# size=%d generated=%d consumed=%d "
                          "pair_buffered=%d relay_overhead=%d" % (
                              size, row["generated"], row["consumed"],
                              row["pair_buffered"], row["relay_overhead"]))
        if self.mersenne_faster is not None:
            footer.append("# mersenne_registration_faster=%s"
                          % str(self.mersenne_faster).lower())
        chunks.append("\n".join(footer))
        return "\n\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------- scenario


def _flip_first_bit(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


def _envelope_bit_flip(envelope):
    mutated = _flip_first_bit(envelope.ciphertext)
    return dataclasses.replace(envelope, ciphertext=mutated)


def build_session(config: ScenarioConfig, storage_root,
                  net: "KeyNetwork | None" = None) -> TpvSession:
    """A deployment as the scenario describes it, on net (a saved
    workspace's restored key network, as saved) or else on a new key
    network seeded by the scenario's seed and warmed up for warmup_ms."""
    if net is None:
        net = KeyNetwork(config.topology, master_seed=config.seed.encode("utf-8"))
        net.advance(config.warmup_ms)
    return TpvSession(
        storage_root,
        net=net,
        params=config.params,
        scheme=config.scheme,
        k=config.k,
        placement=config.placement,
        clock_skews=config.clock_skews,
        renewal_group=config.renewal_group,
        advance_on_exhaustion_ms=WAIT_STEP_MS,
    )


class _Run:
    """Mutable state while one scenario executes."""

    def __init__(self, config: ScenarioConfig, storage_root: Path):
        self.config = config
        self.session = build_session(config, storage_root)
        self.net = self.session.net
        self.observed: dict = {}
        self.renewal_reports: list = []
        self.released: "bytes | None" = None
        self.sid: "bytes | None" = None
        self.t1: "int | None" = None

    def note(self, phase: str, outcome: str):
        self.observed[phase] = outcome

    def abort(self, phase: str, exc: ItstoreError):
        self.note(phase, Outcome.ABORT.value)
        self.session.transcript.append(
            "harness %s aborted: %s" % (phase, exc))


def _attack_hooks(run: _Run):
    """Reconstruction-call keyword arguments for the configured attack."""
    attack = run.config.attack
    kwargs = {"password_attempt": run.config.password}
    if attack.kind == "wrong-password":
        kwargs["password_attempt"] = run.config.password + b"?"
    elif attack.kind == "drop-holder":
        kwargs["offline"] = attack.drop
    elif attack.kind == "corrupt-holder":
        q = run.config.params.field.q

        def corrupt(values):
            values = list(values)
            values[0] = (values[0] + 1) % q
            return values

        kwargs["holder_response_tamper"] = {attack.holder: corrupt}
    elif attack.kind == "tamper-owner":
        kwargs["owner_tamper"] = _flip_first_bit
    elif attack.kind == "bit-flip-channel":
        run.session.transport.tamper = _envelope_bit_flip
    return kwargs


def _scenario_phases(run: _Run):
    """Execute the phase sequence, recording an outcome per phase. The
    first ItstoreError records the phase it arose in as aborted and ends
    the sequence."""
    config = run.config
    session = run.session
    phase = Phase.REGISTRATION.value
    try:
        run.sid, run.t1 = session.register(config.payload, config.password)
        run.note(phase, Outcome.SUCCESS.value)

        # masking precomputation: one tuple per track for one reconstruction
        phase = "precompute"
        tracks = data_block_count(len(config.payload), config.params) + 1
        session.precompute(run.sid, rounds=tracks)

        # proactive renewal
        if config.renewal_rounds:
            phase = "renewal"
            for _ in range(config.renewal_rounds):
                run.renewal_reports.append(session.renew(run.sid))
            ok = all(r.accepted for r in run.renewal_reports)
            run.note(phase,
                     Outcome.SUCCESS.value if ok else Outcome.FAIL.value)

        # reconstruction and release (with the configured injection)
        phase = Phase.RECONSTRUCTION.value
        result: ReleaseResult = session.reconstruct_and_release(
            run.sid, **_attack_hooks(run))
        run.note(phase, result.outcome.value)
        run.released = result.data

        # third-party integrity verification over whatever the end user holds
        if run.sid not in session.end_user_received:
            return
        phase = Phase.INTEGRITY_CHECK.value
        if config.attack.kind == "false-claim-user":
            claim = _flip_first_bit(run.released)
            verdict = session.integrity_check(run.sid, claim_data=claim,
                                              claim_t1=run.t1)
            run.note(verdict.phase.value, verdict.outcome.value)
            refutation = session.refute(run.sid, claim_data=claim,
                                        claim_t1=run.t1)
            run.note(refutation.phase.value, refutation.outcome.value)
        else:
            verdict = session.integrity_check(run.sid)
            run.note(verdict.phase.value, verdict.outcome.value)
    except ItstoreError as exc:
        run.abort(phase, exc)


def _exit_code(observed: dict, failures: tuple) -> int:
    if failures:
        return EXIT_EXPECTATION
    outcomes = set(observed.values())
    if Outcome.ABORT.value in outcomes:
        return EXIT_ABORT
    if Outcome.FAIL.value in outcomes:
        return EXIT_FAIL
    return EXIT_SUCCESS


def _check_expectations(config: ScenarioConfig, observed: dict) -> tuple:
    failures = []
    for want in config.expect:
        got = observed.get(want.phase)
        if got is None:
            failures.append("expected %s to end %s, but that phase never ran"
                            % (want.phase, want.outcome))
        elif got != want.outcome:
            failures.append("expected %s to end %s, got %s"
                            % (want.phase, want.outcome, got))
    return tuple(failures)


def _write_text(path_value: "str | None", text: str):
    if path_value is None:
        return
    path = Path(path_value)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def run_scenario(config: ScenarioConfig,
                 storage_root=None) -> ScenarioResult:
    """Run one configured scenario end to end.

    storage_root keeps the per-role stores afterwards (for inspection);
    when omitted, a temporary directory is used and removed.
    """
    cleanup = storage_root is None
    root = Path(storage_root) if storage_root is not None else Path(
        tempfile.mkdtemp(prefix="itstore-run-"))
    try:
        run = _Run(config, root)
        _scenario_phases(run)
        transcript = run.session.transcript_text()
        failures = _check_expectations(config, run.observed)
        result = ScenarioResult(
            config=config,
            secret_id=run.sid.hex() if run.sid else "",
            verdicts=tuple(run.session.verdicts),
            renewal_reports=tuple(run.renewal_reports),
            released=run.released,
            observed=dict(run.observed),
            failures=failures,
            exit_code=_exit_code(run.observed, failures),
            transcript=transcript,
            key_ledger=run.net.ledger(),
            conservation_ok=run.net.conservation_holds(),
        )
        _write_text(config.outputs.transcript, transcript)
        return result
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


# ------------------------------------------------------------------- bench


def _transcript_id(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _ledger_totals(ledger: dict) -> dict:
    return {
        "generated": sum(r["generated"] for r in ledger["links"].values()),
        "consumed": sum(r["consumed"] for r in ledger["pairs"].values()),
        "pair_buffered": sum(r["buffered"] for r in ledger["pairs"].values()),
        "relay_overhead": ledger["relay_overhead"],
        "messages_sent": ledger["messages_sent"],
    }


def _median_iqr(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    qs = statistics.quantiles(values, n=4, method="inclusive")
    return med, qs[2] - qs[0]


def _bench_one(config: ScenarioConfig, size_bytes: int, rep: int,
               root: Path) -> tuple:
    """One full protocol pass; returns ([(phase, seconds)], transcript)."""
    payload = derive_payload("%s|bench|%d" % (config.seed, size_bytes),
                             size_bytes)
    rep_config = dataclasses.replace(
        config,
        payload=payload,
        seed="%s|bench|%d|%d" % (config.seed, size_bytes, rep))
    session = build_session(rep_config, root)

    timings = []
    t0 = time.perf_counter()
    sid, _t1 = session.register(payload, rep_config.password)
    timings.append(("registration", time.perf_counter() - t0))

    tracks = data_block_count(size_bytes, rep_config.params) + 1
    t0 = time.perf_counter()
    session.precompute(sid, rounds=tracks)
    timings.append(("communication", time.perf_counter() - t0))

    if rep_config.renewal_group is not None:
        t0 = time.perf_counter()
        report = session.renew(sid)
        if not report.accepted:
            raise ProtocolError("benchmark renewal round was rejected")
        timings.append(("renewal", time.perf_counter() - t0))

    t0 = time.perf_counter()
    result = session.reconstruct_and_release(sid, rep_config.password)
    timings.append(("reconstruction", time.perf_counter() - t0))
    if result.outcome is not Outcome.SUCCESS or result.data != payload:
        raise ProtocolError("benchmark reconstruction did not round-trip")

    return timings, session.transcript_text(), _ledger_totals(
        session.net.ledger())


@functools.cache
def _compare_field_pair() -> tuple:
    """The two comparison fields. Their 2203-bit moduli are constants, so
    the primality checks run once per process."""
    return (PrimeField.mersenne(COMPARE_EXPONENT),
            PrimeField(COMPARE_GENERAL_Q))  # primality re-checked here


def _bench_compare(config: ScenarioConfig, reps: int):
    """Time registration's share+authenticator computation on a Mersenne
    modulus against a general prime of identical width.

    The password-derived evaluation point is made full width (a long
    pseudorandom passphrase) so the authenticator Horner products exercise
    double-width reduction — the regime where the modulus kind matters.
    """
    transcripts = {}
    passphrase = derive_payload(config.seed + "|compare-passphrase", 600)
    payload = derive_payload(config.seed + "|compare-payload",
                             _COMPARE_PAYLOAD_BYTES)
    fields = dict(zip(("mersenne", "general"), _compare_field_pair()))
    params = {kind: SpssParams(t_sh=config.params.t_sh,
                               n_sh=config.params.n_sh, field=fld)
              for kind, fld in fields.items()}
    passwords = {kind: password_to_element(passphrase, fld)
                 for kind, fld in fields.items()}
    kind_rows = {kind: [] for kind in fields}
    times = {kind: [] for kind in fields}
    # the kinds alternate rep by rep, so drift in the host's speed during
    # the comparison slows both of them alike; they are timed in process
    # CPU seconds, which a stall spent running other processes leaves out
    for rep in range(reps):
        for kind, fld in fields.items():
            rnd = SeededEntropy("%s|compare|%s|%d" % (config.seed, kind, rep),
                                "bench-compare")
            t0 = time.process_time()
            holders, secret = spss_register(payload, passwords[kind],
                                            params[kind], rnd, t1=rep + 1)
            dt = time.process_time() - t0
            text = ("compare-register kind=%s q_bits=%d rep=%d blocks=%d "
                    "holders=%d\n" % (kind, fld.q.bit_length(), rep,
                                      len(secret.blocks), len(holders)))
            tid = _transcript_id(text)
            transcripts[tid] = text
            kind_rows[kind].append(BenchRow("compare-%s-registration" % kind,
                                            len(payload), rep, dt, tid))
            times[kind].append(dt)
    rows = [row for kind in fields for row in kind_rows[kind]]
    medians = {kind: statistics.median(times[kind]) for kind in fields}
    return rows, transcripts, medians


def run_bench(config: ScenarioConfig, storage_root=None) -> BenchReport:
    """Sweep payload sizes, timing each protocol phase with repetitions."""
    cleanup = storage_root is None
    root = Path(storage_root) if storage_root is not None else Path(
        tempfile.mkdtemp(prefix="itstore-bench-"))
    rows = []
    transcripts = {}
    ledger_summary = {}
    try:
        for size_kb in config.bench.sizes_kb:
            size = size_kb * 1024
            for rep in range(config.bench.repetitions):
                run_root = root / ("%dkb-rep%d" % (size_kb, rep))
                timings, transcript, totals = _bench_one(
                    config, size, rep, run_root)
                tid = _transcript_id(transcript)
                transcripts[tid] = transcript
                for phase, seconds in timings:
                    rows.append(BenchRow(phase, size, rep, seconds, tid))
            ledger_summary[size] = totals  # the last repetition's totals

        medians = {}
        for phase in sorted({r.phase for r in rows}):
            for size in sorted({r.size_bytes for r in rows}):
                values = [r.seconds for r in rows
                          if r.phase == phase and r.size_bytes == size]
                if values:
                    medians[(phase, size)] = _median_iqr(values)

        compare_rows: tuple = ()
        compare_medians: dict = {}
        mersenne_faster = None
        if config.bench.compare_general_prime:
            crows, ctranscripts, compare_medians = _bench_compare(
                config, config.bench.repetitions)
            compare_rows = tuple(crows)
            transcripts.update(ctranscripts)
            mersenne_faster = (compare_medians["mersenne"]
                               < compare_medians["general"])

        report = BenchReport(
            rows=tuple(rows),
            medians=medians,
            ledger_summary=ledger_summary,
            transcripts=transcripts,
            compare_rows=compare_rows,
            compare_medians=compare_medians,
            mersenne_faster=mersenne_faster,
        )
        _write_text(config.outputs.csv, report.csv_text())
        _write_text(config.outputs.gnuplot, report.gnuplot_text())
        return report
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
