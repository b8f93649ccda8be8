"""Crashes that lose unsynced writes, under the `lossy_disk` twin.

`CrashingOs` in test_stores keeps every write made before a crash. Here
every crash point of an operation yields each state a crash may leave
(unsynced writes dropped or torn, unsynced directory entries dropped),
and the real stores reopen each of them.
"""

import copy

import pytest

from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork
from itstore.protocol import Outcome, TpvSession
from itstore.stores import HolderStore, holder_record_files

from lossy_disk import lossy, materialize
from oracles import directory_contains_window
from test_stores import CRASH_PARAMS, SID_A, crash_case, share_values

DATA = bytes(range(256)) + bytes(44)  # 300 bytes
PASSWORD = b"lossy"


def holder_state(directory) -> dict:
    store = HolderStore(directory, holder=1)
    return {sid: store.get_secret(sid) for sid in store.secret_ids()}


def check_holder(directory, old, new, dropped, where):
    """The holder store at directory reopens, holding old or new."""
    state = holder_state(directory)
    assert state in (old, new), "%s mixed old and new" % where
    for sid, sizes in holder_record_files(directory).items():
        assert "new" not in sizes, where
        assert sum(1 for size in sizes.values() if size) == 1, (where, sizes)
    if state == new:
        width = CRASH_PARAMS.field.byte_width
        for v in dropped:
            assert not directory_contains_window(
                directory, v.to_bytes(width, "big"), window=16), \
                "%s left a dropped share on disk" % where
    return state


@pytest.mark.parametrize("op", ["put-first", "put", "precompute", "respond",
                                "retire", "renew"])
def test_every_crash_state_of_a_holder_operation_reopens_old_or_new(
        tmp_path, op):
    base = tmp_path / "base"
    base.mkdir()
    store, action = crash_case(base / "holder", op)
    old = holder_state(base / "holder")
    with lossy(base) as disk:
        action()
    new = {sid: store.get_secret(sid) for sid in store.secret_ids()}
    assert new != old
    dropped = set()
    if SID_A in old:
        dropped = share_values(old[SID_A]) - share_values(new[SID_A])
    assert len(disk.states) > 3

    # once the operation returns, a crash keeps all of it
    done = materialize(disk.durable(), tmp_path / "done")
    assert holder_state(done / "holder") == new
    before = set(next(iter(disk.states.values())).values())  # first point
    new_records = {data for path, data in disk.durable().items()
                   if path.endswith((".a", ".b")) and data} - before

    for i, state in enumerate(disk.states.values()):
        root = materialize(state, tmp_path / ("crash-%d" % i))
        where = "crash state %d" % i
        if new_records & {data for path, data in state.items()
                          if path.endswith((".a", ".b"))}:
            assert holder_state(root / "holder") == new, \
                "%s revived old shares" % where
        # the reopening repairs the store; a crash during that repair
        # must leave a store that reopens the same way
        with lossy(root) as repair:
            got = check_holder(root / "holder", old, new, dropped, where)
        for j, again in enumerate(repair.states.values()):
            retry = materialize(again, tmp_path / ("crash-%d-%d" % (i, j)))
            assert check_holder(retry / "holder", old, new, dropped,
                                where + " repair %d" % j) == got


def new_session(root, seed=b"lossy") -> TpvSession:
    net = KeyNetwork(DEFAULT_TOPOLOGY, master_seed=seed)
    net.advance(3_600_000)
    return TpvSession(root, net=net)


def round_trip(session, data=DATA):
    sid, _t1 = session.register(data, PASSWORD)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=blocks)
    assert session.reconstruct_and_release(sid, PASSWORD).data == data
    return sid


@pytest.mark.parametrize("earlier", [0, 1])
def test_every_crash_state_of_a_register_reopens_and_serves(tmp_path,
                                                            earlier):
    """A crash anywhere in a deployment's first register (or in a later
    one) leaves a root a new session opens, registers on and reconstructs
    from; once register returns, all of it survives a crash."""
    root = tmp_path / "root"
    session = new_session(root)
    for _ in range(earlier):
        round_trip(session, DATA[::-1])
    with lossy(root) as disk:
        sid, _t1 = session.register(DATA, PASSWORD)

    done = materialize(disk.durable(), tmp_path / "done")
    reopened = new_session(done, seed=b"reopened")
    assert all(sid in store.secret_ids()
               for store in reopened.holder_stores.values())
    assert sid in reopened.calculator_store.ids()
    assert any(rec.secret_id == sid for rec in reopened.verifier_store.records())

    for i, state in enumerate(disk.states.values()):
        crashed = materialize(state, tmp_path / ("crash-%d" % i))
        fresh = new_session(crashed, seed=b"reopened")
        for other in fresh.calculator_store.ids():  # no torn record listed
            fresh.calculator_store.get(other)
        round_trip(fresh, DATA + b"fresh")


def test_a_torn_verifier_append_opens_and_its_secret_never_verifies(
        tmp_path):
    """Cutting into the last verifier.log record, as a crash inside its
    append does, drops that one row: the deployment opens, the other
    secret still verifies, and the cut secret's check fails and its
    refutation aborts."""
    root = tmp_path / "root"
    session = new_session(root)
    kept = round_trip(session, DATA[::-1])
    cut = round_trip(session)
    log = root / "verifier" / "verifier.log"
    whole = log.read_bytes()
    log.write_bytes(whole[:-5])

    reopened = new_session(root, seed=b"reopened")
    assert [rec.secret_id for rec in reopened.verifier_store.records()] == [
        kept]
    claims = {sid: reopened.calculator_store.get(sid)[0]
              for sid in (kept, cut)}
    assert reopened.integrity_check(
        kept, DATA[::-1], claims[kept]).outcome is Outcome.SUCCESS
    check = reopened.integrity_check(cut, DATA, claims[cut])
    assert (check.outcome, check.detail) == (Outcome.FAIL,
                                             "no verifier record")
    refuted = reopened.refute(cut, DATA, claims[cut])
    assert refuted.outcome is Outcome.ABORT
    # the next append chains on from the last whole record
    fresh = round_trip(reopened, DATA + b"fresh")
    assert [rec.secret_id for rec in new_session(
        root, seed=b"again").verifier_store.records()] == [kept, fresh]


@pytest.mark.parametrize("phase", ["precompute", "renew"])
def test_every_crash_state_of_a_phase_leaves_each_holder_old_or_new(
        tmp_path, phase):
    """Each holder reopens with its record from before the phase or from
    after it. Whether all holders agree is a phase commit's concern, which
    this does not check."""
    root = tmp_path / "root"
    session = new_session(root)
    sid = round_trip(session)

    def shares(s):
        return {j: copy.deepcopy(store.get_secret(sid))
                for j, store in s.holder_stores.items()}

    old = shares(session)
    with lossy(root) as disk:
        if phase == "precompute":
            session.precompute(sid, rounds=40)
        else:
            assert session.renew(sid).accepted
    new = shares(session)
    assert shares(new_session(materialize(disk.durable(), tmp_path / "done"),
                              seed=b"reopened")) == new
    for i, state in enumerate(disk.states.values()):
        reopened = new_session(materialize(state, tmp_path / ("crash-%d" % i)),
                               seed=b"reopened")
        for j, share_set in shares(reopened).items():
            assert share_set in (old[j], new[j]), (i, j)
