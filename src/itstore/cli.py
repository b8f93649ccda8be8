"""Command-line interface.

Two modes of use:

* Whole runs: ``itstore run scenario.yaml`` executes a configured scenario
  end to end and exits with the aggregate verdict; ``itstore bench``
  sweeps payload sizes and writes timing tables.

* Single steps against a persistent workspace: ``register``,
  ``reconstruct``, ``verify``, ``refute`` and ``renew`` operate on a
  directory that holds the per-role stores, the simulated key network and
  the session bookkeeping, so separate invocations compose into one
  protocol history.  ``inspect`` prints any store, workspace or
  transcript in readable form.

Exit codes: 0 success, 1 verification-failure verdict, 2 protocol abort,
3 configuration error, 4 scenario expectations contradicted.  The master
seed comes from --seed, else the ITSTORE_SEED environment variable, else
the scenario file (default "itstore").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import (DEFAULT_PASSWORD, ScenarioConfig, derive_payload,
                     parse_scenario, read_scenario)
from .errors import (ConfigurationError, ItstoreError, ProtocolError,
                     TamperDetectedError)
from .harness import (COMPARE_EXPONENT, EXIT_ABORT, EXIT_CONFIG, EXIT_FAIL,
                      EXIT_SUCCESS, build_session, run_bench, run_scenario)
from .keynet import KeyNetwork
from .protocol import Outcome, TpvSession
from .spss import check_offline, check_subset, data_block_count
from .stores import DISK
from .wire import intersect_runs

_STATE_FILE = "state.json"
_STATE_KEYS = ("scenario", "network", "receipts", "end_user")
# the scenario sections that describe a deployment: a workspace keeps these,
# never the scenario's payload or password
_DEPLOYMENT_KEYS = ("seed", "warmup_ms", "layout", "mac", "renewal",
                    "topology", "placement", "clock_skews")


# ------------------------------------------------------------ seed & config


def _resolve_seed(cli_seed: "str | None") -> "str | None":
    if cli_seed:
        return cli_seed
    return os.environ.get("ITSTORE_SEED") or None


def _scenario_data(path: "str | None", seed_override: "str | None") -> dict:
    """The mapping a scenario file (or the defaults) holds, with the seed
    resolved first, so seed-derived payloads follow the effective seed."""
    data = {} if path is None else read_scenario(path)
    return dict(data, seed=seed_override) if seed_override else data


def _load_config(path: "str | None",
                 seed_override: "str | None") -> ScenarioConfig:
    return parse_scenario(_scenario_data(path, seed_override),
                          name_default=Path(path).stem if path else "cli")


# --------------------------------------------------------------- workspace


def _read_state(root: Path) -> tuple:
    """A workspace's saved state and the scenario it was made from."""
    path = root / _STATE_FILE
    if not path.exists():
        raise ConfigurationError(
            "%s is not a workspace (no %s); create one with "
            "`itstore register --workspace %s ...`" % (root, _STATE_FILE, root))
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise ConfigurationError("cannot read workspace state %s: %s"
                                 % (path, exc))
    if isinstance(state, dict) and "meta" in state:
        raise ConfigurationError(
            "%s has the old `meta` layout, which kept its own copy of the "
            "deployment; this version reads only the `scenario` layout"
            % path)
    missing = [key for key in _STATE_KEYS
               if not isinstance(state, dict) or key not in state]
    if missing:
        raise ConfigurationError("workspace state %s lacks %s"
                                 % (path, ", ".join(missing)))
    try:
        config = parse_scenario(state["scenario"])
    except ConfigurationError as exc:
        raise ConfigurationError("workspace state %s: %s" % (path, exc))
    return state, config


class Workspace:
    """A directory holding one persistent protocol deployment: the stores,
    and in state.json the scenario sections that describe the deployment,
    the key network's state and the owner's and end user's records.

    As a context manager it saves on every exit, so a command that raises
    still records the key it spent and the lines it produced. A new
    workspace is saved only once its deployment has drawn key: a first
    register refused before that leaves no state.json, and may be retried
    with another --config.
    """

    def __init__(self, root: Path, scenario: dict, config: ScenarioConfig,
                 session: TpvSession, unspent: "dict | None" = None):
        self.root = root
        self.scenario = scenario  # the deployment sections, as saved
        self.config = config
        self.session = session
        self._unspent = unspent  # a new network's state until its first save

    @classmethod
    def initialize(cls, root: Path, data: dict) -> "Workspace":
        """A new, warmed-up deployment of the scenario mapping data."""
        config = parse_scenario(data)
        scenario = {key: data[key] for key in _DEPLOYMENT_KEYS if key in data}
        scenario["seed"] = config.seed
        session = build_session(config, root / "stores")
        return cls(root, scenario, config, session, session.net.to_state())

    @classmethod
    def load(cls, root: Path) -> "Workspace":
        state, config = _read_state(root)
        net = KeyNetwork.from_state(state["network"], config.topology,
                                    config.seed.encode("utf-8"))
        session = build_session(config, root / "stores", net=net)
        for sid_hex, (t1, length) in state["receipts"].items():
            session.owner_receipts[bytes.fromhex(sid_hex)] = (t1, length)
        for sid_hex, (t1, data_hex) in state["end_user"].items():
            session.end_user_received[bytes.fromhex(sid_hex)] = (
                bytes.fromhex(data_hex), t1)
        return cls(root, state["scenario"], config, session)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        if (self._unspent is None
                or self.session.net.to_state() != self._unspent):
            self.save()

    def save(self) -> None:
        """Replace state.json atomically and durably, then append the
        session's transcript lines and verdicts to their logs."""
        session = self.session
        state = {
            "scenario": self.scenario,
            "network": session.net.to_state(),
            "receipts": {sid.hex(): [t1, length]
                         for sid, (t1, length)
                         in sorted(session.owner_receipts.items())},
            "end_user": {sid.hex(): [t1, data.hex()]
                         for sid, (data, t1)
                         in sorted(session.end_user_received.items())},
        }
        DISK.publish(self.root / _STATE_FILE, json.dumps(
            state, indent=1, sort_keys=True).encode("utf-8"))
        self._unspent = None
        if session.transcript:
            DISK.append(self.root / "transcript.log",
                        session.transcript_text().encode("utf-8"))
        if session.verdicts:
            DISK.append(self.root / "verdicts.log", "".join(
                "sid=%s phase=%s outcome=%s detail=%s\n"
                % (v.secret_id.hex(), v.phase.value, v.outcome.value, v.detail)
                for v in session.verdicts).encode("utf-8"))


def _workspace_for(args, allow_init: bool) -> Workspace:
    root = Path(args.workspace)
    exists = (root / _STATE_FILE).exists()
    if allow_init and not exists:
        return Workspace.initialize(
            root, _scenario_data(args.config, _resolve_seed(args.seed)))
    given = [flag for flag in ("config", "seed") if getattr(args, flag, None)]
    if given:
        raise ConfigurationError(
            "workspace %s already exists; omit %s to reuse it"
            % (root, " and ".join("--" + flag for flag in given)))
    return Workspace.load(root)


# ----------------------------------------------------------- input helpers


def _payload_from_args(args, seed: str) -> bytes:
    given = [name for name, val in (("--data", args.data),
                                    ("--text", args.text),
                                    ("--size-kb", args.size_kb))
             if val is not None]
    if len(given) != 1:
        raise ConfigurationError(
            "give exactly one of --data, --text, --size-kb (got: %s)"
            % (", ".join(given) or "none"))
    if args.text == "":
        raise ConfigurationError("--text must not be empty")
    if args.size_kb is None:
        return _data_or_text(args)
    if args.size_kb <= 0:
        raise ConfigurationError("--size-kb must be positive")
    return derive_payload(seed + "|cli-payload", args.size_kb * 1024)


def _claim_from_args(args) -> "bytes | None":
    if args.data is not None and args.text is not None:
        raise ConfigurationError("give at most one of --data, --text")
    return _data_or_text(args)


def _data_or_text(args) -> "bytes | None":
    """The bytes of the --data file, else of --text, else None."""
    if args.data is not None:
        try:
            return Path(args.data).read_bytes()
        except OSError as exc:
            raise ConfigurationError("cannot read --data file: %s" % exc)
    if args.text is not None:
        return args.text.encode("utf-8")
    return None


def _sid_from_args(ws: Workspace, args) -> bytes:
    known = sorted(sid.hex() for sid in ws.session.owner_receipts)
    if args.sid is None:
        if len(known) == 1:
            return bytes.fromhex(known[0])
        raise ConfigurationError(
            "--sid is required (registered: %s)" % (", ".join(known) or "none"))
    try:
        sid = bytes.fromhex(args.sid)
    except ValueError:
        raise ConfigurationError("--sid must be hex")
    if sid not in ws.session.owner_receipts:
        raise ConfigurationError(
            "unknown secret id %s (registered: %s)"
            % (args.sid, ", ".join(known) or "none"))
    return sid


def _indices(raw: "str | None") -> "tuple | None":
    if raw is None:
        return None
    try:
        return tuple(int(part) for part in raw.split(",") if part)
    except ValueError:
        raise ConfigurationError("expected comma-separated holder indices")


def _outcome_exit(outcome: Outcome) -> int:
    return {Outcome.SUCCESS: EXIT_SUCCESS, Outcome.FAIL: EXIT_FAIL,
            Outcome.ABORT: EXIT_ABORT}[outcome]


# ------------------------------------------------------------- subcommands


def _cmd_run(args) -> int:
    config = _load_config(args.config, _resolve_seed(args.seed))
    result = run_scenario(config, storage_root=args.workdir)
    print("scenario %s (seed %r)" % (config.name, config.seed))
    for phase, outcome in result.observed.items():
        print("  %-16s %s" % (phase + ":", outcome))
    for v in result.verdicts:
        print("  verdict %s %s: %s" % (v.phase.value, v.outcome.value, v.detail))
    if result.released is not None:
        print("  released %d bytes to the end user" % len(result.released))
    print("  key conservation: %s"
          % ("exact" if result.conservation_ok else "VIOLATED"))
    for failure in result.failures:
        print("  EXPECTATION FAILED: %s" % failure)
    if config.outputs.transcript:
        print("  transcript written to %s" % config.outputs.transcript)
    print("exit code %d" % result.exit_code)
    return result.exit_code


def _cmd_bench(args) -> int:
    config = _load_config(args.config, _resolve_seed(args.seed))
    outputs = config.outputs
    if args.csv:
        outputs = dataclasses.replace(outputs, csv=args.csv)
    if args.gnuplot:
        outputs = dataclasses.replace(outputs, gnuplot=args.gnuplot)
    config = dataclasses.replace(config, outputs=outputs)
    report = run_bench(config, storage_root=args.workdir)
    print("benchmark %s: sizes %s KB x %d repetitions"
          % (config.name, list(config.bench.sizes_kb),
             config.bench.repetitions))
    print("  %-16s %10s %12s %12s" % ("phase", "size", "median_s", "iqr_s"))
    for (phase, size), (med, iqr) in sorted(report.medians.items()):
        print("  %-16s %9dB %12.6f %12.6f" % (phase, size, med, iqr))
    for size in sorted(report.ledger_summary):
        row = report.ledger_summary[size]
        print("  key use at %dB: generated=%d consumed=%d relay_overhead=%d"
              % (size, row["generated"], row["consumed"],
                 row["relay_overhead"]))
    if report.mersenne_faster is not None:
        print("  modulus comparison (%d-bit registration): mersenne=%.6fs "
              "general=%.6fs -> %s" % (
                  COMPARE_EXPONENT,
                  report.compare_medians["mersenne"],
                  report.compare_medians["general"],
                  "mersenne faster" if report.mersenne_faster
                  else "general faster"))
    if config.outputs.csv:
        print("  csv written to %s" % config.outputs.csv)
    if config.outputs.gnuplot:
        print("  gnuplot data written to %s" % config.outputs.gnuplot)
    return EXIT_SUCCESS


def _cmd_register(args) -> int:
    with _workspace_for(args, allow_init=True) as ws:
        payload = _payload_from_args(args, ws.config.seed)
        sid, t1 = ws.session.register(payload, args.password.encode("utf-8"))
    print("registered %d bytes" % len(payload))
    print("  secret id: %s" % sid.hex())
    print("  owner timestamp t1: %d" % t1)
    return EXIT_SUCCESS


def _cmd_reconstruct(args) -> int:
    # read before the workspace opens, so a malformed list spends nothing
    subset, offline = _indices(args.subset), _indices(args.offline) or ()
    with _workspace_for(args, allow_init=False) as ws:
        session = ws.session
        # the holder-list rules refuse before the top-up spends anything
        if subset is not None:
            check_subset(subset, session.params)
        check_offline(offline, session.params)
        sid = _sid_from_args(ws, args)
        _t1, byte_length = session.owner_receipts[sid]
        tracks = data_block_count(byte_length, session.params) + 1
        # count the rounds live at every holder, intersected as a
        # reconstruction pins them: a round an earlier reconstruction spent
        # stays live at the holders it did not contact until the next
        # precompute, which retires it there
        have = sum(end - first for first, end in intersect_runs(
            store.get_secret(sid).live
            for store in session.holder_stores.values()))
        if have < tracks:
            session.precompute(sid, rounds=tracks - have)
        result = session.reconstruct_and_release(
            sid, args.password.encode("utf-8"), subset=subset, offline=offline)
    print("reconstruction %s: %s" % (result.outcome.value, result.detail))
    if result.data is not None and args.out:
        Path(args.out).write_bytes(result.data)
        print("  wrote %d bytes to %s" % (len(result.data), args.out))
    elif result.data is not None:
        print("  released %d bytes to the end user" % len(result.data))
    return _outcome_exit(result.outcome)


def _cmd_verify(args) -> int:
    with _workspace_for(args, allow_init=False) as ws:
        sid = _sid_from_args(ws, args)
        claim = _claim_from_args(args)
        verdict = ws.session.integrity_check(sid, claim_data=claim,
                                             claim_t1=args.t1)
    print("integrity check %s: %s" % (verdict.outcome.value, verdict.detail))
    return _outcome_exit(verdict.outcome)


def _cmd_refute(args) -> int:
    with _workspace_for(args, allow_init=False) as ws:
        sid = _sid_from_args(ws, args)
        claim = _claim_from_args(args)
        verdict = ws.session.refute(sid, claim_data=claim, claim_t1=args.t1)
    print("refutation %s: %s" % (verdict.outcome.value, verdict.detail))
    return _outcome_exit(verdict.outcome)


def _cmd_renew(args) -> int:
    if args.rounds <= 0:
        raise ConfigurationError("--rounds must be positive")
    with _workspace_for(args, allow_init=False) as ws:
        sid = _sid_from_args(ws, args)
        for _ in range(args.rounds):
            report = ws.session.renew(sid)
            print("renewal round %d: %s (%d tracks)"
                  % (report.round_no,
                     "accepted" if report.accepted else "REJECTED",
                     report.tracks))
            for accusation in report.accusations:
                print("  accusation: %s" % (accusation,))
            if not report.accepted:
                return EXIT_FAIL
    return EXIT_SUCCESS


# ---------------------------------------------------------------- inspect


def _inspect_verifier(path: Path) -> None:
    from .stores import VerifierStore
    store = VerifierStore(path)
    records = store.records()
    print("verifier store %s: %d records" % (path, len(records)))
    for rec in records:
        print("  sid=%s t1=%d t2=%d tag[k=%d]=%s"
              % (rec.secret_id.hex(), rec.t1, rec.t2, rec.tag.k,
                 hex(rec.tag.value)))


def _inspect_calculator(path: Path) -> None:
    from .stores import CalculatorStore
    if not (path / "meta.bin").exists() and not any(path.glob("*.rec")):
        # the meta file is written with the store's first record
        print("calculator store %s: 0 records (scheme and k not yet recorded)"
              % path)
        return
    store = CalculatorStore(path)
    ids = store.ids()
    print("calculator store %s: %d records (scheme=polyeval, k=%d)"
          % (path, len(ids), store.k))
    for sid in ids:
        t1, seed = store.get(sid)
        print("  sid=%s t1=%d stored_bytes=%d seed_bits=%d"
              % (sid.hex(), t1, store.record_bytes(sid), seed.k))


def _inspect_holder(path: Path) -> None:
    from .stores import HolderStore, holder_record_files
    if not path.exists():  # the store makes its directory at its first save
        print("holder store %s: 0 secrets (nothing saved yet)" % path)
        return
    # read before opening: the open finishes any save a crash interrupted
    files = holder_record_files(path)
    store = HolderStore(path)
    ids = store.secret_ids()
    print("holder %d store %s: %d secrets, %d records, %d record bytes"
          % (store.holder, path, len(ids), len(files),
             sum(sum(sizes.values()) for sizes in files.values())))
    for sid, sizes in sorted(files.items()):
        filled = sorted(s for s, size in sizes.items() if size or s == "new")
        if len(filled) > 1 or "new" in filled:
            print("  sid=%s: leftover slot (%s) from an interrupted save; the "
                  "open kept the newest valid record and erased the rest"
                  % (sid.hex(), "+".join(filled)))
    for sid in ids:
        share_set = store.get_secret(sid)
        live = sum(end - first for first, end in share_set.live)
        # as runs: a renewal history may name up to 2^32 - 1 rounds
        renewed = ", ".join(str(first) if end == first + 1
                            else "%d-%d" % (first, end - 1)
                            for first, end in share_set.renewal_runs)
        print("  sid=%s tracks=%d masking(unconsumed=%d consumed=%d) "
              "renewal_rounds=[%s]"
              % (sid.hex(), share_set.block_count, live,
                 share_set.next_round - live, renewed))


def _inspect_workspace(root: Path) -> None:
    if not (root / _STATE_FILE).exists():
        # left by a first register that failed before its deployment drew
        # key, or by a process killed before its first save
        print("workspace %s: no %s (no deployment saved)" % (root, _STATE_FILE))
    else:
        state, config = _read_state(root)
        params, placement = config.params, config.placement
        print("workspace %s" % root)
        print("  layout: %d-of-%d over a %d-bit field, mac=%s k=%d"
              % (params.t_sh, params.n_sh, params.field.q.bit_length(),
                 config.scheme.value, config.k))
        print("  placement: owner=%s end_user=%s calculator=%s verifier=%s"
              % (placement.owner, placement.end_user,
                 placement.calculator, placement.verifier))
        print("  holders: %s" % ", ".join(placement.holders))
        print("  network time: %d ms; registered secrets: %d"
              % (state["network"]["now_ms"], len(state["receipts"])))
        for sid_hex, (t1, length) in sorted(state["receipts"].items()):
            print("    sid=%s t1=%d bytes=%d" % (sid_hex, t1, length))
    for name in ("calculator", "verifier"):
        sub = root / "stores" / name
        if sub.exists():
            _inspect_store_dir(sub)
    for sub in sorted(root.glob("stores/holder-*")):
        _inspect_store_dir(sub)
    verdicts = root / "verdicts.log"
    if verdicts.exists():
        lines = verdicts.read_text(encoding="utf-8").splitlines()
        print("  verdicts: %d" % len(lines))
        for line in lines:
            print("    %s" % line)


def _inspect_store_dir(path: Path) -> None:
    if (path / "verifier.log").exists() or path.name == "verifier":
        _inspect_verifier(path)
    elif (path / "meta.bin").exists() or path.name == "calculator":
        _inspect_calculator(path)
    elif (path / "holder.bin").exists() or path.name.startswith("holder"):
        _inspect_holder(path)
    else:
        raise ConfigurationError(
            "%s does not look like an itstore store" % path)


def _unwritten_store(path: Path) -> bool:
    """A store directory its store has not created yet: a missing
    calculator, verifier or holder-N directory whose parent exists."""
    name = path.name
    return (not path.exists() and path.parent.is_dir()
            and (name in ("calculator", "verifier")
                 or (name.startswith("holder-") and name[7:].isdigit())))


def _cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists() and not _unwritten_store(path):
        raise ConfigurationError("%s does not exist" % path)
    try:
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            print("transcript %s: %d lines" % (path, len(text.splitlines())))
            sys.stdout.write(text)
        elif (path / _STATE_FILE).exists() or (path / "stores").exists():
            _inspect_workspace(path)
        else:
            _inspect_store_dir(path)
    except TamperDetectedError as exc:
        print("TAMPER DETECTED in %s: %s" % (path, exc))
        return EXIT_FAIL
    return EXIT_SUCCESS


# ------------------------------------------------------------------ parser


def _add_workspace_options(sub, with_config: bool):
    sub.add_argument("--workspace", required=True,
                     help="directory holding the persistent deployment")
    if with_config:
        sub.add_argument("--config", help="scenario file used to initialize "
                         "a new workspace (layout, topology, placement)")
        sub.add_argument("--seed", help="master seed for a new workspace "
                         "(overrides ITSTORE_SEED and the scenario file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itstore",
        description="Long-term secure distributed storage over a simulated "
                    "key-distribution network.",
        epilog="exit codes: 0 success, 1 verification failure, 2 abort, "
               "3 configuration error, 4 expectation mismatch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario end to end")
    p.add_argument("config", help="scenario YAML file")
    p.add_argument("--seed", help="override the master seed")
    p.add_argument("--workdir", help="keep per-role stores in this directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="benchmark phases across payload sizes")
    p.add_argument("config", help="scenario YAML file with a bench section")
    p.add_argument("--seed", help="override the master seed")
    p.add_argument("--workdir", help="keep per-run stores in this directory")
    p.add_argument("--csv", help="write timing rows to this CSV file")
    p.add_argument("--gnuplot", help="write plot data to this file")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("register", help="register a secret into a workspace")
    _add_workspace_options(p, with_config=True)
    p.add_argument("--data", help="payload file")
    p.add_argument("--text", help="payload string")
    p.add_argument("--size-kb", type=int, help="seed-derived payload size")
    p.add_argument("--password", default=DEFAULT_PASSWORD)
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("reconstruct",
                       help="reconstruct a secret and release it")
    _add_workspace_options(p, with_config=False)
    p.add_argument("--sid", help="secret id (hex); optional when only one")
    p.add_argument("--password", default=DEFAULT_PASSWORD)
    p.add_argument("--subset", help="holder indices, e.g. 1,2,4")
    p.add_argument("--offline", help="holders to treat as unreachable")
    p.add_argument("--out", help="write the released payload to this file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("verify", help="third-party integrity check")
    _add_workspace_options(p, with_config=False)
    p.add_argument("--sid", help="secret id (hex); optional when only one")
    p.add_argument("--data", help="claimed payload file")
    p.add_argument("--text", help="claimed payload string")
    p.add_argument("--t1", type=int, help="claimed registration timestamp")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refute", help="adjudicate a disputed claim")
    _add_workspace_options(p, with_config=False)
    p.add_argument("--sid", help="secret id (hex); optional when only one")
    p.add_argument("--data", help="claimed payload file")
    p.add_argument("--text", help="claimed payload string")
    p.add_argument("--t1", type=int, help="claimed registration timestamp")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("renew", help="proactively renew the data shares")
    _add_workspace_options(p, with_config=False)
    p.add_argument("--sid", help="secret id (hex); optional when only one")
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(func=_cmd_renew)

    p = sub.add_parser("inspect",
                       help="print a workspace, store or transcript")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except TamperDetectedError as exc:
        print("tamper detected: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except ProtocolError as exc:
        print("protocol error: %s" % exc, file=sys.stderr)
        return EXIT_ABORT
    except ItstoreError as exc:
        print("aborted: %s" % exc, file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
