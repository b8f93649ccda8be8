"""Command-line interface tests.

Every test drives `main(argv)` in-process, the same entry point the
installed `itstore` script calls, and checks printed output plus the
documented exit codes (0 success, 1 fail, 2 abort, 3 configuration
error, 4 expectation mismatch).  Workspace tests intentionally span
several invocations: all state must round-trip through the directory.
"""

import dataclasses
import json
import re
import runpy
import struct
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from itstore import cli, harness
from itstore.cli import Workspace, main
from itstore.config import load_scenario
from itstore.errors import ConfigurationError
from itstore.harness import build_session
from itstore.keynet import _PairStream
from itstore.protocol import TpvSession
from itstore.stores import DISK, HolderStore
from oracles import tamper_pairs

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

PASSWORD = "open sesame"
SECRET_TEXT = "the archive payload, version 1"


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("ITSTORE_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def register(capsys, ws, text=SECRET_TEXT, *extra):
    code, out, _err = run_cli(
        capsys, "register", "--workspace", str(ws),
        "--text", text, "--password", PASSWORD, *extra)
    assert code == 0, out
    return re.search(r"secret id: ([0-9a-f]{32})", out).group(1)


# ---------------------------------------------------------------- workspace


def test_workspace_lifecycle(tmp_path, capsys):
    ws = tmp_path / "ws"
    sid = register(capsys, ws, SECRET_TEXT)

    # reconstruct to a file; the released bytes must match exactly
    out_file = tmp_path / "released.bin"
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD, "--out", str(out_file))
    assert code == 0
    assert "reconstruction success" in out
    assert out_file.read_bytes() == SECRET_TEXT.encode()

    # third-party check of what the end user received
    code, out, _ = run_cli(capsys, "verify", "--workspace", str(ws))
    assert code == 0
    assert "integrity check success" in out

    # proactive renewal, twice
    code, out, _ = run_cli(capsys, "renew", "--workspace", str(ws),
                           "--rounds", "2")
    assert code == 0
    assert out.count("accepted") == 2

    # reconstruction still works after the shares were replaced
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD)
    assert code == 0
    assert "reconstruction success" in out

    # a forged claim is refuted (exit 0: refutation reached a verdict)
    code, out, _ = run_cli(capsys, "refute", "--workspace", str(ws),
                           "--text", "a forged claim", "--sid", sid)
    assert code == 0
    assert "refutation success" in out

    # verifying a wrong claim fails with exit 1
    code, out, _ = run_cli(capsys, "verify", "--workspace", str(ws),
                           "--text", "not what was stored")
    assert code == 1
    assert "integrity check fail" in out


def test_wrong_password_reconstruction_fails(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", "open sesame?")
    assert code == 1
    assert "reconstruction fail" in out


def test_reconstruct_with_explicit_subset(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD, "--subset", "1,2,4")
    assert code == 0
    assert "reconstruction success" in out


def test_reconstruct_tops_up_the_rounds_live_at_every_holder(tmp_path,
                                                             capsys):
    # holders 2-4 spend rounds that holder 1 still holds, so a top-up
    # that counts holder 1's rounds alone stocks too few for holders 1-3
    ws = tmp_path / "ws"
    register(capsys, ws, "hello world this is a test payload")
    for subset in (("--subset", "2,3,4"), ()):
        code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                               "--password", PASSWORD, *subset)
        assert code == 0, out
        assert "reconstruction success" in out
    _code, out, _ = run_cli(capsys, "inspect", str(ws / "stores" / "holder-1"))
    assert re.search(r"masking\(unconsumed=\d+ consumed=[1-9]", out), out


def test_sid_optional_only_with_a_single_secret(tmp_path, capsys):
    ws = tmp_path / "ws"
    first = register(capsys, ws, "first secret")
    second = register(capsys, ws, "second secret")
    assert first != second

    code, _out, err = run_cli(capsys, "verify", "--workspace", str(ws),
                              "--text", "first secret")
    assert code == 3
    assert "--sid is required" in err

    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD, "--sid", second)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--workspace", str(ws),
                           "--sid", second)
    assert code == 0
    assert "integrity check success" in out


def test_bad_sid_arguments(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    code, _out, err = run_cli(capsys, "verify", "--workspace", str(ws),
                              "--sid", "zz")
    assert code == 3 and "--sid must be hex" in err
    code, _out, err = run_cli(capsys, "verify", "--workspace", str(ws),
                              "--sid", "00" * 16)
    assert code == 3 and "unknown secret id" in err


@pytest.mark.parametrize("t1", ["-5", str(1 << 64)])
def test_a_claimed_t1_outside_its_u64_field_is_refused(tmp_path, capsys, t1):
    ws = tmp_path / "ws"
    register(capsys, ws)
    for command in ("refute", "verify"):
        code, _out, err = run_cli(capsys, command, "--workspace", str(ws),
                                  "--text", "a forged claim", "--t1", t1)
        assert code == 3
        assert "field t1 holds %s" % t1 in err
    # nothing was sent: the workspace still reconstructs and refutes
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD)
    assert code == 0
    code, out, _ = run_cli(capsys, "refute", "--workspace", str(ws),
                           "--text", "a forged claim")
    assert code == 0
    assert "refutation success" in out


def test_existing_workspace_rejects_config(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("seed: x\n", encoding="utf-8")
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--config", str(cfg), "--text", "more")
    assert code == 3
    assert "already exists" in err


def test_commands_refuse_a_missing_workspace(tmp_path, capsys):
    for command in ("reconstruct", "verify", "refute", "renew"):
        code, _out, err = run_cli(capsys, command, "--workspace",
                                  str(tmp_path / "nowhere"))
        assert code == 3
        assert "is not a workspace" in err


def test_register_payload_arguments_are_exclusive(tmp_path, capsys):
    ws = tmp_path / "ws"
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--text", "x", "--size-kb", "1")
    assert code == 3 and "exactly one of" in err
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws))
    assert code == 3 and "exactly one of" in err


def test_register_from_file(tmp_path, capsys):
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(256)))
    ws = tmp_path / "ws"
    code, out, _ = run_cli(capsys, "register", "--workspace", str(ws),
                           "--data", str(payload), "--password", PASSWORD)
    assert code == 0
    assert "registered 256 bytes" in out
    out_file = tmp_path / "back.bin"
    code, _out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                            "--password", PASSWORD, "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == bytes(range(256))


# --------------------------------------------------------- seed precedence


def test_env_seed_makes_runs_reproducible(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ITSTORE_SEED", "pinned-seed")
    sids = []
    for name in ("a", "b"):
        code, out, _ = run_cli(capsys, "register", "--workspace",
                               str(tmp_path / name), "--size-kb", "1",
                               "--password", PASSWORD)
        assert code == 0
        sids.append(re.search(r"secret id: ([0-9a-f]{32})", out).group(1))
    assert sids[0] == sids[1]


def test_cli_seed_flag_overrides_the_environment(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("ITSTORE_SEED", "pinned-seed")
    code, out, _ = run_cli(capsys, "register", "--workspace",
                           str(tmp_path / "a"), "--size-kb", "1",
                           "--password", PASSWORD, "--seed", "other")
    assert code == 0
    sid_other = re.search(r"secret id: ([0-9a-f]{32})", out).group(1)
    code, out, _ = run_cli(capsys, "register", "--workspace",
                           str(tmp_path / "b"), "--size-kb", "1",
                           "--password", PASSWORD)
    assert code == 0
    sid_env = re.search(r"secret id: ([0-9a-f]{32})", out).group(1)
    assert sid_other != sid_env


# ------------------------------------------------------------ run and bench


def write_scenario(tmp_path, name, body):
    path = tmp_path / ("%s.yaml" % name)
    path.write_text(body, encoding="utf-8")
    return str(path)


HONEST_YAML = """\
seed: cli-run-suite
payload: {text: "short payload"}
expect:
  - {phase: reconstruction, outcome: success}
  - {phase: integrity-check, outcome: success}
"""


def test_run_honest_scenario(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "honest", HONEST_YAML)
    code, out, _ = run_cli(capsys, "run", cfg)
    assert code == 0
    assert "reconstruction:" in out and "success" in out
    assert "key conservation: exact" in out
    assert "exit code 0" in out


def test_run_attack_scenario_exit_code(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "wrongpw", """\
seed: cli-run-suite
payload: {text: "short payload"}
attack: {kind: wrong-password}
expect:
  - {phase: reconstruction, outcome: fail}
""")
    code, out, _ = run_cli(capsys, "run", cfg)
    assert code == 1
    assert "fail" in out


def test_run_expectation_mismatch_is_exit_4(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "surprise", """\
seed: cli-run-suite
payload: {text: "short payload"}
expect:
  - {phase: reconstruction, outcome: abort}
""")
    code, out, _ = run_cli(capsys, "run", cfg)
    assert code == 4
    assert "EXPECTATION FAILED" in out


def test_run_writes_deterministic_transcript(tmp_path, capsys):
    texts = []
    for sub in ("one", "two"):
        transcript = tmp_path / sub / "t.log"
        cfg = write_scenario(tmp_path, "det-%s" % sub, HONEST_YAML
                             + "outputs: {transcript: %s}\n" % transcript)
        code, _out, _ = run_cli(capsys, "run", cfg)
        assert code == 0
        texts.append(transcript.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]


def test_run_invalid_config_is_exit_3(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "broken", "attack: {kind: sabotage}\n")
    code, _out, err = run_cli(capsys, "run", cfg)
    assert code == 3
    assert "configuration error" in err and "attack.kind" in err

    code, _out, err = run_cli(capsys, "run", str(tmp_path / "missing.yaml"))
    assert code == 3

    # fails at the parent commit, which shared the password at degree 0:
    # every holder's password share was the password itself
    cfg = write_scenario(tmp_path, "t2", "layout: {threshold: 2}\n")
    code, _out, err = run_cli(capsys, "run", cfg)
    assert code == 3
    assert "configuration error" in err and "layout" in err


def test_run_refuses_a_non_finite_number_in_a_scenario(tmp_path, capsys):
    # YAML's .inf and .nan reached the topology scaling, which raised a
    # raw OverflowError or ValueError
    for name, body, key in (
            ("inf", "topology: {rate_scale: .inf}\n", "topology.rate_scale"),
            ("nan", "topology:\n  nodes: [{name: A}, {name: B}]\n"
                    "  links: [{name: l, a: A, b: B, rate_bps: 1, "
                    "length_km: .nan}]\n", "topology.links[0].length_km")):
        cfg = write_scenario(tmp_path, name, body)
        code, _out, err = run_cli(capsys, "run", cfg)
        assert code == 3
        assert "configuration error" in err
        assert "%s: expected a finite number" % key in err


def test_bench_subcommand(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "bench", """\
seed: cli-bench-suite
bench: {sizes_kb: [1], repetitions: 1, compare_general_prime: false}
""")
    csv_path = tmp_path / "rows.csv"
    dat_path = tmp_path / "plot.dat"
    code, out, _ = run_cli(capsys, "bench", cfg,
                           "--csv", str(csv_path),
                           "--gnuplot", str(dat_path))
    assert code == 0
    assert "median_s" in out
    assert "key use at 1024B" in out
    assert csv_path.read_text(encoding="utf-8").startswith(
        "phase,size_bytes,rep,seconds,transcript_id")
    assert "# phase: registration" in dat_path.read_text(encoding="utf-8")


# ------------------------------------------------------------------ inspect


def test_inspect_workspace_and_stores(tmp_path, capsys):
    ws = tmp_path / "ws"
    sid = register(capsys, ws)
    run_cli(capsys, "reconstruct", "--workspace", str(ws),
            "--password", PASSWORD)
    run_cli(capsys, "verify", "--workspace", str(ws))

    code, out, _ = run_cli(capsys, "inspect", str(ws))
    assert code == 0
    assert "workspace" in out and sid in out
    assert "verifier store" in out
    assert "calculator store" in out
    assert "holder 1 store" in out
    assert "verdicts: 3" in out

    code, out, _ = run_cli(capsys, "inspect", str(ws / "stores" / "verifier"))
    assert code == 0 and "verifier store" in out
    code, out, _ = run_cli(capsys, "inspect", str(ws / "stores" / "holder-2"))
    assert code == 0 and "holder 2 store" in out

    code, out, _ = run_cli(capsys, "inspect", str(ws / "transcript.log"))
    assert code == 0 and "transcript" in out


def test_inspect_a_calculator_store_before_its_first_registration(tmp_path,
                                                                 capsys):
    TpvSession(tmp_path)  # writes no calculator meta until a registration
    calculator = tmp_path / "calculator"
    assert not (calculator / "meta.bin").exists()
    code, out, _ = run_cli(capsys, "inspect", str(calculator))
    assert code == 0
    assert "0 records" in out


def test_inspect_detects_store_tampering(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    run_cli(capsys, "verify", "--workspace", str(ws),
            "--text", SECRET_TEXT)
    log = ws / "stores" / "verifier" / "verifier.log"
    raw = bytearray(log.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    log.write_bytes(bytes(raw))

    code, out, _ = run_cli(capsys, "inspect", str(ws / "stores" / "verifier"))
    assert code == 1
    assert "TAMPER DETECTED" in out


def test_inspect_detects_a_removed_calculator_meta_file(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    calculator = ws / "stores" / "calculator"
    (calculator / "meta.bin").unlink()
    code, out, _ = run_cli(capsys, "inspect", str(calculator))
    assert code == 1
    assert "TAMPER DETECTED" in out

def test_inspect_flags_and_finishes_an_interrupted_holder_save(tmp_path,
                                                                capsys):
    ws = tmp_path / "ws"
    sid = register(capsys, ws)
    holder = ws / "stores" / "holder-2"
    stale = (holder / (sid + ".a")).read_bytes()
    run_cli(capsys, "reconstruct", "--workspace", str(ws),
            "--password", PASSWORD)
    code, out, _ = run_cli(capsys, "inspect", str(holder))
    assert code == 0 and "holder 2 store" in out
    assert "1 secrets, 1 records" in out and "leftover" not in out

    # the state a crash leaves between writing a new record and erasing
    # the old one: both slots hold a valid record
    (idle,) = [p for p in holder.glob(sid + ".*") if p.stat().st_size == 0]
    idle.write_bytes(stale)
    code, out, _ = run_cli(capsys, "inspect", str(holder))
    assert code == 0 and "leftover slot (a+b)" in out
    assert idle.stat().st_size == 0
    code, out, _ = run_cli(capsys, "inspect", str(holder))
    assert code == 0 and "leftover" not in out


def test_inspect_prints_the_renewal_count(tmp_path, capsys):
    ws = tmp_path / "ws"
    sid = bytes.fromhex(register(capsys, ws))
    holder = ws / "stores" / "holder-3"
    store = HolderStore(holder)
    store.get_secret(sid).renewals = 0xFFFFFFFF
    store.save(sid)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "inspect", str(holder))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "renewals=4294967295" in out
    assert peak < 1 << 20


@pytest.mark.parametrize("scheme", ["polyeval"])
def test_inspect_prints_the_stored_seed_bits(tmp_path, capsys, scheme):
    cfg = write_scenario(tmp_path, scheme, "mac: {scheme: %s}\n" % scheme)
    ws = tmp_path / "ws"
    register(capsys, ws, SECRET_TEXT, "--config", cfg)
    code, out, _ = run_cli(capsys, "inspect", str(ws / "stores" / "calculator"))
    assert code == 0 and "scheme=%s, k=256" % scheme in out
    # one k-bit key, whatever the payload
    (bits,) = re.findall(r"seed_bits=(\d+)", out)
    assert int(bits) == 256


def test_a_split_block_polyeval_workspace_is_refused(tmp_path, capsys):
    # a workspace whose calculator meta carries scheme byte 1 was keyed
    # under PolyEval's bit-block framing, and one with byte 0 under the
    # retired Toeplitz MAC: verify and refute would compare honest data
    # against tags of another hash, so both stop at exit 3
    for code_byte, why in ((1, "length block"), (0, "Toeplitz")):
        ws = tmp_path / ("ws-%d" % code_byte)
        sid = register(capsys, ws)
        meta = ws / "stores" / "calculator" / "meta.bin"
        raw = bytearray(meta.read_bytes())
        raw[6] = code_byte
        meta.write_bytes(bytes(raw))
        for argv in (["verify"], ["refute", "--text", "a forged claim",
                                  "--sid", sid]):
            code, out, err = run_cli(capsys, argv[0], "--workspace", str(ws),
                                     *argv[1:])
            assert code == 3 and why in out + err
            assert "success" not in out


def test_inspect_missing_path(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "inspect", str(tmp_path / "ghost"))
    assert code == 3
    assert "does not exist" in err


def test_inspect_stores_a_new_session_has_not_written(tmp_path, capsys):
    TpvSession(tmp_path)  # each store makes its directory at its first write
    for name, want in (("verifier", "0 records"), ("holder-1", "0 secrets")):
        assert not (tmp_path / name).exists()
        code, out, _ = run_cli(capsys, "inspect", str(tmp_path / name))
        assert code == 0 and want in out
    code, _out, _err = run_cli(capsys, "inspect", str(tmp_path / "holder-x"))
    assert code == 3


# ------------------------------------------------------- workspace state


@pytest.fixture
def drawn(monkeypatch):
    """Every pair-stream range handed out, across main() calls."""
    ranges = []
    original = _PairStream.allocate

    def recording_allocate(self, nbits):
        offset, value = original(self, nbits)
        ranges.append((self.pair, offset, offset + nbits))
        return offset, value

    monkeypatch.setattr(_PairStream, "allocate", recording_allocate)
    return ranges


def assert_no_pad_bit_reused(ranges):
    by_pair = {}
    for pair, start, end in ranges:
        by_pair.setdefault(pair, []).append((start, end))
    for pair, spans in by_pair.items():
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b, pair


def test_failed_verify_runs_never_reuse_pad_bits(tmp_path, capsys, drawn):
    # each check-request is sent before the calculator finds no tag for
    # the claimed t1; the command raises, and its cursors must still be
    # saved, or the next run sends under the same pads and hash key
    ws = tmp_path / "ws"
    register(capsys, ws)
    code, out, _ = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                           "--password", PASSWORD)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--workspace", str(ws))
    assert code == 0 and "integrity check success" in out
    for claim, t1 in (("first claim", "5"), ("second claim", "7")):
        code, _out, err = run_cli(capsys, "verify", "--workspace", str(ws),
                                  "--text", claim, "--t1", t1)
        assert code == 2 and "no tag record" in err
    assert_no_pad_bit_reused(drawn)
    transcript = (ws / "transcript.log").read_text(encoding="utf-8")
    assert transcript.count("kind=check-request") == 3


def test_a_failed_first_register_keeps_what_it_sent(tmp_path, capsys, drawn,
                                                    monkeypatch):
    # shares the key cannot pay for are refused after register-data has
    # left, so the retry must open the saved deployment, not rebuild it
    # from the seed
    ws = tmp_path / "ws"
    slow = write_scenario(tmp_path, "slow",
                          "warmup_ms: 100\ntopology: {rate_scale: 0.1}\n")
    with monkeypatch.context() as patch:
        patch.setattr(harness, "WAIT_STEP_MS", 0)
        code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                                  "--config", slow, "--text", SECRET_TEXT)
    assert code == 2 and "calculator->holder" in err
    sent = len(drawn)
    assert sent
    register(capsys, ws)
    assert len(drawn) > sent
    assert_no_pad_bit_reused(drawn)


def test_a_first_register_refused_before_sending_saves_nothing(tmp_path,
                                                               capsys, drawn):
    ws = tmp_path / "ws"
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--text", "")
    assert code == 3 and "must not be empty" in err
    assert drawn == [] and not (ws / "state.json").exists()
    code, out, _ = run_cli(capsys, "inspect", str(ws))
    assert code == 0 and "no state.json" in out
    # so it may be retried under another scenario
    cfg = write_scenario(tmp_path, "narrow", "mac: {k: 128}\n")
    register(capsys, ws, SECRET_TEXT, "--config", cfg)
    code, out, _ = run_cli(capsys, "inspect", str(ws))
    assert code == 0 and "mac=polyeval k=128" in out


def test_an_interrupted_save_leaves_the_previous_state(tmp_path, capsys,
                                                       monkeypatch):
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = (ws / "state.json").read_bytes()
    real_write = DISK.write

    def torn_write(path, content, *args, **kwargs):
        if Path(path).parent != ws:  # the stores' writes go through
            return real_write(path, content, *args, **kwargs)
        real_write(path, content[:len(content) // 2], *args, **kwargs)
        raise OSError("interrupted")

    monkeypatch.setattr(DISK, "write", torn_write)
    with pytest.raises(OSError, match="interrupted"):
        main(["reconstruct", "--workspace", str(ws), "--password", PASSWORD])
    monkeypatch.undo()
    assert (ws / "state.json").read_bytes() == before
    reopened = Workspace.load(ws)
    assert reopened.session.end_user_received == {}
    assert json.loads(json.dumps(reopened.session.net.to_state())) == (
        json.loads(before)["network"])


def test_an_unreadable_state_file_is_a_configuration_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    state = ws / "state.json"
    state.write_text('{"scenario": {', encoding="utf-8")
    for argv in (["verify", "--workspace", str(ws)], ["inspect", str(ws)]):
        code, _out, err = run_cli(capsys, *argv)
        assert code == 3 and str(state) in err


def test_a_state_file_of_the_meta_layout_is_refused(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    state_path = ws / "state.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    del state["scenario"]
    state["meta"] = {"version": 1, "seed": "itstore", "scheme": "polyeval"}
    state_path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="old `meta` layout"):
        Workspace.load(ws)
    code, _out, err = run_cli(capsys, "verify", "--workspace", str(ws))
    assert code == 3 and "`meta` layout" in err


def test_a_workspace_whose_scenario_names_toeplitz_is_refused(tmp_path,
                                                              capsys):
    # the Toeplitz registration MAC is retired: a workspace saved under it
    # stops at exit 3 before any store is opened
    ws = tmp_path / "ws"
    register(capsys, ws)
    state_path = ws / "state.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    state["scenario"]["mac"] = {"scheme": "toeplitz"}
    state_path.write_text(json.dumps(state), encoding="utf-8")
    for argv in (["verify", "--workspace", str(ws)], ["inspect", str(ws)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "mac.scheme:" in err
        assert "success" not in out


def test_a_workspace_whose_scenario_sets_cs_tag_bits_is_refused(tmp_path,
                                                                capsys):
    # the computational digest option is retired: a workspace saved with
    # its width set is refused on load, before any store is opened
    ws = tmp_path / "ws"
    register(capsys, ws)
    state_path = ws / "state.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    state["scenario"]["mac"] = {"cs_tag_bits": 512}
    state_path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ConfigurationError) as info:
        Workspace.load(ws)
    assert str(info.value) == (
        "workspace state %s: mac: unknown key 'cs_tag_bits' (allowed: k, "
        "scheme)" % state_path)
    code, out, err = run_cli(capsys, "verify", "--workspace", str(ws))
    assert code == 3 and "unknown key 'cs_tag_bits'" in err
    assert "success" not in out


def test_existing_workspace_rejects_seed(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws, SECRET_TEXT, "--seed", "one")
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--text", "more", "--seed", "two")
    assert code == 3 and "omit --seed" in err
    assert Workspace.load(ws).config.seed == "one"


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_a_shipped_scenario_workspace_reopens_as_saved(tmp_path, capsys,
                                                       path):
    ws = tmp_path / "ws"
    register(capsys, ws, SECRET_TEXT, "--config", str(path))
    config = load_scenario(path)
    want = build_session(config, tmp_path / "fresh")
    got = Workspace.load(ws).session
    assert (got.params, got.scheme, got.k) == (
        want.params, want.scheme, want.k)
    assert got.renewal_group == want.renewal_group
    assert got.placement == want.placement
    assert got.skews == want.skews
    assert got.net.topology == want.net.topology
    raw = (ws / "state.json").read_text(encoding="utf-8")
    state = json.loads(raw)
    assert json.loads(json.dumps(got.net.to_state())) == state["network"]
    assert config.password.decode() not in raw
    assert config.payload.hex() not in raw
    assert "payload" not in state["scenario"]
    assert "password" not in state["scenario"]


# ------------------------------------------- refusals and the last exit paths


def workspace_files(ws) -> dict:
    """Every file's bytes under a workspace: the stores, state.json with
    its key counters, and the transcript and verdict logs."""
    return {str(p.relative_to(ws)): p.read_bytes()
            for p in sorted(ws.rglob("*")) if p.is_file()}


def test_a_state_file_missing_a_key_is_refused(tmp_path, capsys):
    ws = tmp_path / "ws"
    register(capsys, ws)
    state_path = ws / "state.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    del state["receipts"], state["end_user"]
    state_path.write_text(json.dumps(state), encoding="utf-8")
    before = workspace_files(ws)
    for argv in (["verify", "--workspace", str(ws)], ["inspect", str(ws)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("configuration error: workspace state %s lacks "
                       "receipts, end_user\n" % state_path)
    assert workspace_files(ws) == before


@pytest.mark.parametrize("command", ["register", "verify", "refute"])
def test_an_unreadable_data_file_is_refused(tmp_path, capsys, command):
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = workspace_files(ws)
    missing = tmp_path / "no-such-file"
    code, out, err = run_cli(capsys, command, "--workspace", str(ws),
                             "--data", str(missing))
    assert (code, out) == (3, "")
    assert err.startswith("configuration error: cannot read --data file: ")
    assert str(missing) in err
    assert workspace_files(ws) == before


def test_a_first_register_of_an_unreadable_data_file_saves_nothing(tmp_path,
                                                                   capsys):
    ws = tmp_path / "ws"
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--data", str(tmp_path / "no-such-file"))
    assert code == 3 and "cannot read --data file" in err
    assert workspace_files(ws) == {}


@pytest.mark.parametrize("size", ["0", "-3"])
def test_a_payload_size_below_one_kb_is_refused(tmp_path, capsys, size):
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = workspace_files(ws)
    code, out, err = run_cli(capsys, "register", "--workspace", str(ws),
                             "--size-kb", size)
    assert (code, out) == (3, "")
    assert err == "configuration error: --size-kb must be positive\n"
    assert workspace_files(ws) == before


@pytest.mark.parametrize("command", ["verify", "refute"])
def test_a_claim_takes_at_most_one_of_data_and_text(tmp_path, capsys,
                                                    command):
    ws = tmp_path / "ws"
    register(capsys, ws)
    claim = tmp_path / "claim.bin"
    claim.write_text(SECRET_TEXT, encoding="utf-8")
    before = workspace_files(ws)
    code, out, err = run_cli(capsys, command, "--workspace", str(ws),
                             "--data", str(claim), "--text", SECRET_TEXT)
    assert (code, out) == (3, "")
    assert err == "configuration error: give at most one of --data, --text\n"
    assert workspace_files(ws) == before


@pytest.mark.parametrize("flag", ["--subset", "--offline"])
def test_a_malformed_holder_list_is_refused_before_any_key_is_spent(
        tmp_path, capsys, flag):
    # fails at the parent commit, which stocked the masking tuples a first
    # reconstruction needs before it read the list
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = workspace_files(ws)
    code, out, err = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                             "--password", PASSWORD, flag, "1,x")
    assert (code, out) == (3, "")
    assert err == ("configuration error: expected comma-separated holder "
                   "indices\n")
    assert workspace_files(ws) == before


@pytest.mark.parametrize("flag, holders", [("--subset", "1,2,9"),
                                           ("--offline", "9,0")])
def test_a_holder_list_outside_the_holders_is_refused_before_the_top_up(
        tmp_path, capsys, flag, holders):
    # fails at the parent commit: --subset 1,2,9 first ran the top-up
    # precompute, which rewrote state.json and every holder record, and
    # --offline 9,0 was ignored and the data released
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = workspace_files(ws)
    code, out, err = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                             "--password", PASSWORD, flag, holders)
    assert (code, out) == (2, "")
    assert err.startswith("protocol error: ")
    assert workspace_files(ws) == before


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_renew_needs_a_positive_round_count(tmp_path, capsys, rounds):
    ws = tmp_path / "ws"
    register(capsys, ws)
    before = workspace_files(ws)
    code, out, err = run_cli(capsys, "renew", "--workspace", str(ws),
                             "--rounds", rounds)
    assert (code, out) == (3, "")
    assert err == "configuration error: --rounds must be positive\n"
    assert workspace_files(ws) == before


def test_a_rejected_renewal_prints_its_accusations_and_exits_1(
        tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    register(capsys, ws)
    holders = {name: data for name, data in workspace_files(ws).items()
               if name.startswith("stores/holder-")}

    def skew(sender, _recipient, track, pair):
        s1, s2 = pair
        return (s1 + 1, s2) if (sender, track) == (1, 0) else (s1, s2)

    tamper_pairs(monkeypatch, skew)
    code, out, _err = run_cli(capsys, "renew", "--workspace", str(ws),
                              "--rounds", "2")
    assert code == 1
    assert out == "renewal round 0: REJECTED (3 tracks)\n" + "".join(
        "  accusation: Accusation(accuser=%d, accused=1, reason='commitment "
        "check failed on track 0')\n" % j for j in (2, 3, 4))
    after = workspace_files(ws)
    assert {name: after[name] for name in holders} == holders


def test_inspect_refuses_a_directory_that_is_no_store(tmp_path, capsys):
    other = tmp_path / "photos"
    other.mkdir()
    (other / "cat.jpg").write_bytes(b"\xff\xd8")
    code, out, err = run_cli(capsys, "inspect", str(other))
    assert (code, out) == (3, "")
    assert err == ("configuration error: %s does not look like an itstore "
                   "store\n" % other)
    assert workspace_files(other) == {"cat.jpg": b"\xff\xd8"}


def test_a_tampered_holder_record_stops_a_command_at_exit_1(tmp_path,
                                                            capsys):
    ws = tmp_path / "ws"
    sid = register(capsys, ws)
    holder = ws / "stores" / "holder-2"
    (record,) = [p for p in holder.glob(sid + ".*") if p.stat().st_size]
    raw = bytearray(record.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    record.write_bytes(bytes(raw))
    before = workspace_files(ws)
    for argv in (["reconstruct"], ["renew"]):
        code, out, err = run_cli(capsys, argv[0], "--workspace", str(ws),
                                 *argv[1:])
        assert (code, out) == (1, "")
        assert err == ("tamper detected: no valid record for secret %s in "
                       "%s\n" % (sid, record))
    assert workspace_files(ws) == before
    # verify reads no holder record, so the bad one does not stop it
    state = json.loads((ws / "state.json").read_text(encoding="utf-8"))
    t1 = state["receipts"][sid][0]
    code, out, _err = run_cli(capsys, "verify", "--workspace", str(ws),
                              "--text", SECRET_TEXT, "--t1", str(t1))
    assert code == 0 and "integrity check success" in out
    assert record.read_bytes() == bytes(raw)


def test_a_reconstruct_reads_each_holder_record_it_uses_once(
        tmp_path, capsys, monkeypatch):
    # fails at the parent commit: opening a holder store read every
    # secret's record, and the command read its own secret's again
    ws = tmp_path / "ws"
    sids = [register(capsys, ws, SECRET_TEXT + str(i)) for i in range(3)]
    read, reads = DISK.read, []

    def counting_read(path):
        reads.append(Path(path))
        return read(path)

    monkeypatch.setattr(DISK, "read", counting_read)
    code, out, _err = run_cli(capsys, "reconstruct", "--workspace", str(ws),
                              "--password", PASSWORD, "--sid", sids[1])
    assert code == 0 and "reconstruction success" in out
    holders = sorted(p.name for p in (ws / "stores").glob("holder-*"))
    assert len(holders) == 4
    assert sorted((p.parent.name, p.name) for p in reads
                  if p.suffix in (".a", ".b")) == [
        (holder, sids[1] + ".a") for holder in holders]


def test_a_key_supply_error_is_an_abort_at_exit_2(tmp_path, capsys,
                                                  monkeypatch):
    # no key accrues on this deployment; with no waiting for key, the first
    # send is refused at once instead of after the session's 100,000 waits
    monkeypatch.setattr(harness, "WAIT_STEP_MS", 0)
    cfg = write_scenario(tmp_path, "dry",
                         "warmup_ms: 0\ntopology: {rate_scale: 0.0}\n")
    ws = tmp_path / "ws"
    code, out, err = run_cli(capsys, "register", "--workspace", str(ws),
                             "--config", cfg, "--text", SECRET_TEXT)
    assert (code, out) == (2, "")
    assert err == "aborted: link Toshiba holds 0 bits, relay needs 1032\n"
    # the refused relay checked its route before opening the owner's pair
    # stream, so no key counter moved and no file is written: no store,
    # no log and no state.json
    assert workspace_files(ws) == {}


def test_a_register_refused_for_want_of_key_may_be_retried_elsewhere(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "WAIT_STEP_MS", 0)
    dry = write_scenario(tmp_path, "dry",
                         "warmup_ms: 0\ntopology: {rate_scale: 0.0}\n")
    ws = tmp_path / "ws"
    code, _out, err = run_cli(capsys, "register", "--workspace", str(ws),
                              "--config", dry, "--text", SECRET_TEXT)
    assert code == 2 and "relay needs" in err
    code, out, _ = run_cli(capsys, "inspect", str(ws))
    assert code == 0 and "no state.json" in out
    narrow = write_scenario(tmp_path, "narrow", "mac: {k: 128}\n")
    register(capsys, ws, SECRET_TEXT, "--config", narrow)
    code, out, _ = run_cli(capsys, "inspect", str(ws))
    assert code == 0 and "mac=polyeval k=128" in out


def test_bench_prints_the_modulus_comparison(tmp_path, capsys):
    cfg = write_scenario(tmp_path, "compare", """\
seed: cli-bench-compare
bench: {sizes_kb: [1], repetitions: 1, compare_general_prime: true}
""")
    code, out, _err = run_cli(capsys, "bench", cfg)
    assert code == 0
    assert re.search(r"^  modulus comparison \(2203-bit registration\): "
                     r"mersenne=\d+\.\d{6}s general=\d+\.\d{6}s -> "
                     r"(mersenne|general) faster$", out, re.M)


@pytest.mark.parametrize("mersenne,general,faster", [
    (1.0, 2.0, "mersenne"), (2.0, 1.0, "general")])
def test_bench_names_the_faster_modulus(tmp_path, capsys, monkeypatch,
                                        mersenne, general, faster):
    # the comparison's medians are set here, so either verdict is printed
    real = cli.run_bench

    def compared(config, storage_root=None):
        return dataclasses.replace(
            real(config, storage_root),
            compare_medians={"mersenne": mersenne, "general": general},
            mersenne_faster=mersenne < general)

    monkeypatch.setattr(cli, "run_bench", compared)
    cfg = write_scenario(tmp_path, "compared", """\
seed: cli-bench-compared
bench: {sizes_kb: [1], repetitions: 1, compare_general_prime: false}
""")
    code, out, _err = run_cli(capsys, "bench", cfg)
    assert code == 0
    assert ("  modulus comparison (2203-bit registration): mersenne=%.6fs "
            "general=%.6fs -> %s faster\n" % (mersenne, general, faster)
            in out)


def test_the_module_runs_as_a_script(tmp_path, capsys, monkeypatch):
    # run in this process, so a line tracer sees the script line run
    monkeypatch.setattr(sys, "argv",
                        ["itstore", "inspect", str(tmp_path / "ghost")])
    monkeypatch.delitem(sys.modules, "itstore.cli")  # as python -m does
    with pytest.raises(SystemExit) as info:
        runpy.run_module("itstore.cli", run_name="__main__")
    assert info.value.code == 3
    assert capsys.readouterr().err == (
        "configuration error: %s does not exist\n" % (tmp_path / "ghost"))


@pytest.mark.parametrize("stored_k,why", [
    (0, "PolyEval needs k >= 16 for whole-byte blocks, got 0"),
    (65535, "PolyEval needs k <= 512 for a prompt modulus search, got 65535"),
], ids=["zero", "wide"])
def test_a_calculator_meta_file_with_an_unusable_k_is_tampering(
        tmp_path, capsys, stored_k, why):
    # fails at the parent commit: k = 0 exited 3, "PolyEval needs k >= 2",
    # and k = 65535 searched for a 65535-bit prime for hours
    ws = tmp_path / "ws"
    register(capsys, ws)
    calculator = ws / "stores" / "calculator"
    meta = calculator / "meta.bin"
    meta.write_bytes(meta.read_bytes()[:7] + struct.pack(">H", stored_k))
    before = workspace_files(ws)
    started = time.process_time()
    code, out, err = run_cli(capsys, "inspect", str(calculator))
    assert (code, err) == (1, "")
    assert out == ("TAMPER DETECTED in %s: calculator meta file meta.bin: "
                   "%s\n" % (calculator, why))
    code, out, err = run_cli(capsys, "verify", "--workspace", str(ws),
                             "--text", SECRET_TEXT)
    assert (code, out) == (1, "")
    assert err == "tamper detected: calculator meta file meta.bin: %s\n" % why
    assert time.process_time() - started < 1.0
    assert workspace_files(ws) == before


@pytest.mark.parametrize("bits,why", [
    (20, "tags are whole bytes, so k must be a multiple of 8, got 20"),
    (65536, "PolyEval needs k <= 512 for a prompt modulus search, got 65536"),
], ids=["not-whole-bytes", "wide"])
def test_a_state_file_with_an_unusable_channel_tag_width_is_refused(
        tmp_path, capsys, bits, why):
    ws = tmp_path / "ws"
    register(capsys, ws)
    state_path = ws / "state.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    state["network"]["tag_bits"] = bits
    state_path.write_text(json.dumps(state), encoding="utf-8")
    before = workspace_files(ws)
    started = time.process_time()
    code, out, err = run_cli(capsys, "verify", "--workspace", str(ws))
    assert time.process_time() - started < 1.0
    assert (code, out) == (3, "")
    assert err == "configuration error: %s\n" % why
    assert workspace_files(ws) == before
