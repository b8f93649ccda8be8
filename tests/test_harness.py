"""Scenario-engine and benchmark tests.

The attack matrix mirrors the shipped scenario files: each fault
injection must terminate in the protocol-guaranteed verdict and map to
the documented process exit code.  Benchmark tests check report shape,
transcript traceability and the output formats, not absolute timings.
"""

import hashlib
import re
from pathlib import Path

import pytest

from itstore import field, harness
from itstore.config import load_scenario, parse_scenario
from itstore.errors import KeySupplyError, ProtocolError
from itstore.harness import (
    EXIT_ABORT,
    EXIT_EXPECTATION,
    EXIT_FAIL,
    EXIT_SUCCESS,
    run_bench,
    run_scenario,
)
from itstore.protocol import TpvSession
from itstore.stores import holder_record_files
from test_protocol import assert_no_pad_bit_reused, recorded_allocations

PAYLOAD_TEXT = "forty-two bytes of archival payload text.."
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario(**overrides):
    mapping = {
        "seed": "harness-suite",
        "payload": {"text": PAYLOAD_TEXT},
    }
    mapping.update(overrides)
    return parse_scenario(mapping, name_default="harness-case")


def flip_first(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


# ------------------------------------------------------------ attack matrix


def test_honest_scenario():
    result = run_scenario(scenario())
    assert result.observed == {
        "registration": "success",
        "reconstruction": "success",
        "integrity-check": "success",
    }
    assert result.exit_code == EXIT_SUCCESS
    assert result.released == PAYLOAD_TEXT.encode()
    assert len(result.secret_id) == 32
    assert result.conservation_ok


def test_tamper_owner_caught_by_integrity_check():
    result = run_scenario(scenario(attack={"kind": "tamper-owner"}))
    assert result.observed["reconstruction"] == "success"
    assert result.observed["integrity-check"] == "fail"
    assert result.exit_code == EXIT_FAIL
    assert result.released == flip_first(PAYLOAD_TEXT.encode())


def test_false_claim_fails_check_and_is_refuted():
    result = run_scenario(scenario(attack={"kind": "false-claim-user"}))
    assert result.observed["reconstruction"] == "success"
    assert result.observed["integrity-check"] == "fail"
    assert result.observed["refutation"] == "success"
    assert result.exit_code == EXIT_FAIL
    assert result.released == PAYLOAD_TEXT.encode()


def test_corrupt_holder_fails_reconstruction():
    result = run_scenario(scenario(
        attack={"kind": "corrupt-holder", "holder": 2}))
    assert result.observed["reconstruction"] == "fail"
    assert "integrity-check" not in result.observed
    assert result.exit_code == EXIT_FAIL
    assert result.released is None


def test_two_dropped_holders_abort_reconstruction():
    result = run_scenario(scenario(
        attack={"kind": "drop-holder", "drop": [3, 4]}))
    assert result.observed["reconstruction"] == "abort"
    assert result.exit_code == EXIT_ABORT


def test_one_dropped_holder_is_tolerated():
    result = run_scenario(scenario(
        attack={"kind": "drop-holder", "drop": [2]}))
    assert result.observed["reconstruction"] == "success"
    assert result.observed["integrity-check"] == "success"
    assert result.exit_code == EXIT_SUCCESS
    assert result.released == PAYLOAD_TEXT.encode()


def test_channel_bit_flip_aborts():
    result = run_scenario(scenario(attack={"kind": "bit-flip-channel"}))
    assert result.observed["reconstruction"] == "abort"
    assert result.exit_code == EXIT_ABORT


def test_wrong_password_fails_reconstruction():
    result = run_scenario(scenario(attack={"kind": "wrong-password"}))
    assert result.observed["reconstruction"] == "fail"
    assert result.exit_code == EXIT_FAIL
    assert result.released is None


def test_renewal_rounds_run_before_reconstruction():
    result = run_scenario(scenario(renewal={"rounds": 2}))
    assert result.observed["renewal"] == "success"
    assert result.observed["reconstruction"] == "success"
    assert result.exit_code == EXIT_SUCCESS
    assert len(result.renewal_reports) == 2
    assert all(r.accepted for r in result.renewal_reports)


def test_every_renewal_scenario_commitment_body_crosses_in_the_clear(
        monkeypatch):
    drawn = recorded_allocations(monkeypatch)
    result = run_scenario(load_scenario(SCENARIO_DIR / "renewal.yaml"))
    lines = [line for line in result.transcript.splitlines()
             if " kind=renew-commits " in line]
    # 2 rounds, 4 dealers, 3 recipients each, every channel keyed by precomp
    assert len(lines) == 24
    assert all(line.endswith(" body=clear cost=512") for line in lines)
    assert result.conservation_ok and result.failures == ()
    assert_no_pad_bit_reused(drawn)


def test_key_conservation_holds_across_the_matrix():
    for attack in ({"kind": "none"},
                   {"kind": "corrupt-holder", "holder": 1},
                   {"kind": "drop-holder", "drop": [4]}):
        result = run_scenario(scenario(attack=attack))
        assert result.conservation_ok
        ledger = result.key_ledger
        assert ledger["messages_sent"] > 0
        assert set(ledger) >= {"links", "pairs", "relay_overhead",
                               "messages_sent"}


# ------------------------------------------------------------- expectations


def test_met_expectations_keep_the_verdict_exit_code():
    result = run_scenario(scenario(
        attack={"kind": "wrong-password"},
        expect=[{"phase": "reconstruction", "outcome": "fail"}]))
    assert result.failures == ()
    assert result.exit_code == EXIT_FAIL


def test_unmet_expectation_overrides_exit_code():
    result = run_scenario(scenario(
        expect=[{"phase": "reconstruction", "outcome": "fail"}]))
    assert result.exit_code == EXIT_EXPECTATION
    assert result.failures == (
        "expected reconstruction to end fail, got success",)


def test_expectation_on_phase_that_never_ran():
    result = run_scenario(scenario(
        expect=[{"phase": "renewal", "outcome": "success"}]))
    assert result.exit_code == EXIT_EXPECTATION
    assert "never ran" in result.failures[0]


# -------------------------------------------------------------- determinism


def test_identical_config_and_seed_replays_byte_identically():
    first = run_scenario(scenario(renewal={"rounds": 1}))
    second = run_scenario(scenario(renewal={"rounds": 1}))
    assert first.transcript == second.transcript
    assert first.secret_id == second.secret_id
    assert first.released == second.released
    assert [
        (v.phase, v.outcome, v.detail) for v in first.verdicts
    ] == [(v.phase, v.outcome, v.detail) for v in second.verdicts]


def test_different_seed_changes_the_transcript():
    first = run_scenario(scenario())
    second = run_scenario(scenario(seed="other-seed"))
    assert first.transcript != second.transcript
    assert first.secret_id != second.secret_id


def test_transcript_never_mentions_the_storage_location(tmp_path):
    root = tmp_path / "kept-stores"
    result = run_scenario(scenario(), storage_root=root)
    assert str(root) not in result.transcript
    assert (root / "verifier" / "verifier.log").exists()
    assert (root / "calculator" / "meta.bin").exists()
    assert (root / "holder-1" / "holder.bin").exists()
    assert bytes.fromhex(result.secret_id) in holder_record_files(root / "holder-1")


def test_a_calculator_clock_before_the_epoch_aborts_registration(tmp_path):
    # t1 travels as a u64: a clock skewed below zero is refused before any
    # share leaves the calculator
    root = tmp_path / "run"
    result = run_scenario(
        scenario(clock_skews={"calculator": -100_000_000}), storage_root=root)
    assert result.observed == {"registration": "abort"}
    assert result.exit_code == EXIT_ABORT
    assert "receipt field t1 holds -96400000" in result.transcript
    assert "kind=shares" not in result.transcript
    for j in range(1, 5):
        assert holder_record_files(root / ("holder-%d" % j)) == {}


@pytest.mark.parametrize("method,phase,observed", [
    ("precompute", "precompute", {"registration": "success"}),
    ("renew", "renewal", {"registration": "success"}),
    ("integrity_check", "integrity-check",
     {"registration": "success", "renewal": "success",
      "reconstruction": "success"}),
], ids=["precompute", "renewal", "integrity-check"])
def test_an_error_in_a_later_phase_aborts_that_phase_and_ends_the_run(
        monkeypatch, method, phase, observed):
    def dry(*_args, **_kwargs):
        raise KeySupplyError("the %s key ran dry" % method)

    monkeypatch.setattr(TpvSession, method, dry)
    result = run_scenario(scenario(renewal={"rounds": 1}))
    assert result.observed == dict(observed, **{phase: "abort"})
    assert result.exit_code == EXIT_ABORT
    assert result.transcript.endswith(
        "harness %s aborted: the %s key ran dry\n" % (phase, method))


def test_transcript_output_file(tmp_path):
    out = tmp_path / "sub" / "run.transcript"
    result = run_scenario(scenario(outputs={"transcript": str(out)}))
    assert out.read_text(encoding="utf-8") == result.transcript


# -------------------------------------------------------------------- bench


@pytest.fixture(scope="module")
def bench_report():
    config = parse_scenario({
        "seed": "bench-suite",
        "bench": {"sizes_kb": [1, 2], "repetitions": 2,
                  "compare_general_prime": False},
    }, name_default="bench-case")
    return run_bench(config)


def test_bench_row_grid(bench_report):
    rows = bench_report.rows
    phases = {"registration", "communication", "reconstruction"}
    assert {r.phase for r in rows} == phases
    assert {r.size_bytes for r in rows} == {1024, 2048}
    # one row per phase x size x repetition
    assert len(rows) == len(phases) * 2 * 2
    assert all(r.seconds > 0 for r in rows)


def test_bench_renewal_phase_present_with_a_group():
    config = parse_scenario({
        "seed": "bench-renew",
        "renewal": {"rounds": 1},
        "bench": {"sizes_kb": [1], "repetitions": 1,
                  "compare_general_prime": False},
    })
    report = run_bench(config)
    assert {r.phase for r in report.rows} == {
        "registration", "communication", "renewal", "reconstruction"}


def test_bench_rows_trace_back_to_transcripts(bench_report):
    for row in bench_report.rows:
        assert row.transcript_id in bench_report.transcripts
        text = bench_report.transcripts[row.transcript_id]
        assert text  # full phase-by-phase protocol transcript


def test_bench_medians_and_ledger(bench_report):
    for phase in ("registration", "communication", "reconstruction"):
        for size in (1024, 2048):
            med, iqr = bench_report.medians[(phase, size)]
            assert med > 0 and iqr >= 0
    assert set(bench_report.ledger_summary) == {1024, 2048}
    for totals in bench_report.ledger_summary.values():
        assert totals["generated"] > 0
        assert totals["consumed"] > 0


def test_bench_compare_disabled_reports_nothing(bench_report):
    assert bench_report.compare_rows == ()
    assert bench_report.compare_medians == {}
    assert bench_report.mersenne_faster is None


def test_bench_csv_text(bench_report):
    lines = bench_report.csv_text().strip().split("\n")
    assert lines[0] == "phase,size_bytes,rep,seconds,transcript_id"
    assert len(lines) == 1 + len(bench_report.rows)
    first = lines[1].split(",")
    assert first[0] in {"registration", "communication", "reconstruction"}
    assert int(first[1]) in (1024, 2048)


def test_bench_gnuplot_text(bench_report):
    text = bench_report.gnuplot_text()
    for phase in ("registration", "communication", "reconstruction"):
        assert "# phase: %s" % phase in text
    assert "# key-consumption summary" in text
    # data blocks separated by double blank lines for gnuplot `index`
    assert "\n\n\n" in text
    assert "mersenne_registration_faster" not in text  # comparison was off


def test_bench_writes_output_files(tmp_path):
    csv_path = tmp_path / "out" / "rows.csv"
    dat_path = tmp_path / "out" / "plot.dat"
    config = parse_scenario({
        "seed": "bench-io",
        "bench": {"sizes_kb": [1], "repetitions": 1,
                  "compare_general_prime": False},
        "outputs": {"csv": str(csv_path), "gnuplot": str(dat_path)},
    })
    report = run_bench(config)
    assert csv_path.read_text(encoding="utf-8") == report.csv_text()
    assert dat_path.read_text(encoding="utf-8") == report.gnuplot_text()


def test_bench_modulus_comparison_mode():
    config = parse_scenario({
        "seed": "bench-compare",
        "bench": {"sizes_kb": [1], "repetitions": 2,
                  "compare_general_prime": True},
    })
    report = run_bench(config)
    kinds = {"compare-mersenne-registration", "compare-general-registration"}
    assert {r.phase for r in report.compare_rows} == kinds
    assert len(report.compare_rows) == 4  # two kinds x two repetitions
    for row in report.compare_rows:
        assert row.transcript_id in report.transcripts
    assert set(report.compare_medians) == {"mersenne", "general"}
    assert isinstance(report.mersenne_faster, bool)
    assert "mersenne_registration_faster=" in report.gnuplot_text()


def test_comparison_moduli_are_checked_once_per_process(monkeypatch):
    config = scenario(bench={"sizes_kb": [1], "repetitions": 1,
                             "compare_general_prime": True})
    checked = []
    real_check = field.is_probable_prime

    def counting_check(n, rounds=64):
        checked.append(n)
        return real_check(n, 2)  # the same two primes, fewer rounds

    monkeypatch.setattr(field, "is_probable_prime", counting_check)
    harness._compare_field_pair.cache_clear()
    first = harness._bench_compare(config, 1)
    second = harness._bench_compare(config, 1)
    assert sorted(checked) == sorted([harness.COMPARE_GENERAL_Q,
                                      (1 << harness.COMPARE_EXPONENT) - 1])
    assert first[1] == second[1]  # same rows, same transcripts


def test_the_comparison_moduli_have_one_width():
    mersenne, general = harness._compare_field_pair()
    assert mersenne.q.bit_length() == general.q.bit_length() == (
        harness.COMPARE_EXPONENT)
    assert mersenne.mersenne_exponent == harness.COMPARE_EXPONENT
    assert general.mersenne_exponent is None


def _bench_with(monkeypatch, method, **forced):
    """run_bench with TpvSession.method always called with forced keyword
    arguments: a way to make a bench pass fail its own checks."""
    real = getattr(TpvSession, method)
    monkeypatch.setattr(TpvSession, method,
                        lambda self, *args, **kwargs: real(
                            self, *args, **dict(kwargs, **forced)))
    return run_bench(parse_scenario({
        "seed": "bench-gates",
        "renewal": {"rounds": 1},
        "bench": {"sizes_kb": [1], "repetitions": 1,
                  "compare_general_prime": False},
    }))


def test_a_bench_pass_whose_renewal_is_rejected_is_refused(monkeypatch):
    def skew(sender, recipient, track, pair):
        s1, s2 = pair
        return (s1 + 1, s2) if (sender, track) == (1, 0) else (s1, s2)

    with pytest.raises(ProtocolError) as info:
        _bench_with(monkeypatch, "renew", pair_tamper=skew)
    assert str(info.value) == "benchmark renewal round was rejected"


def test_a_bench_pass_that_releases_other_bytes_is_refused(monkeypatch):
    with pytest.raises(ProtocolError) as info:
        _bench_with(monkeypatch, "reconstruct_and_release",
                    owner_tamper=flip_first)
    assert str(info.value) == "benchmark reconstruction did not round-trip"


# ------------------------------------------------------------- wire bytes


# SHA-256 over the ordered (kind, bytes, sha) fields of each transcript
# line of the shipped scenarios. seq= and cost= are left out, so key
# accounting may change without touching these; any change to a message
# layout or to the bytes a phase sends changes them.
WIRE_DIGESTS = {
    "bench": "0806daacb1e26542bba225ddb57a640b724c5cc49fe7369197a263544634a244",
    "bit-flip-channel":
        "77fb875ce4c266c9c72367342b06462b025f710d1ec66b2b540ffef5e4245e5e",
    "corrupt-holder":
        "7b6786c3c97e668501eead339ece6d94576b26693eee8be9630a2cb81a62ff9e",
    "drop-holder":
        "1d57e787e009084168a4a1fa5c727ba9e97b5edc81421c9e8cd961f0617dc77f",
    "false-claim-user":
        "03dac9af92487d0ae52ce9335005c11953c1e3d73198451e2a685f7c7a4f02f7",
    "honest": "ead857c71e6f73ddc0d934497cc4215794b01c2b3dd200435c1d767fd487b05c",
    "renewal":
        "3a62940d5fe0bf83a2411e43c82b8c036c33113ad28ba2919f9ad897fe8eb2c7",
    "tamper-owner":
        "d729c9bed602465eb3d498941dffddad7bd95a5c46e02f0a81e586362b44cd2a",
    "wrong-password":
        "82fb684c0a4f0d6c0392254f72a24fc13a1c38991033562a95edffcbae73838e",
}

_WIRE_FIELDS = re.compile(r" kind=(\S+) bytes=(\d+)(?: sha=(\S+))?")


def wire_digest(transcript: str) -> str:
    h = hashlib.sha256()
    for line in transcript.splitlines():
        m = _WIRE_FIELDS.search(line)
        if m:
            h.update(("%s %s %s\n" % (m.group(1), m.group(2),
                                      m.group(3) or "-")).encode())
    return h.hexdigest()


def test_every_shipped_scenario_has_a_pinned_wire_digest():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")) \
        == sorted(WIRE_DIGESTS)


@pytest.mark.parametrize("name", sorted(WIRE_DIGESTS))
def test_shipped_scenarios_keep_their_wire_bytes(name):
    result = run_scenario(load_scenario(SCENARIO_DIR / (name + ".yaml")))
    assert wire_digest(result.transcript) == WIRE_DIGESTS[name]
