"""Span tracer that wraps itstore's public functions from outside.

Nothing under src/ is edited: each wrapped function is replaced where it is
looked up -- the module global or class attribute a caller resolves at call
time -- and put back by remove().  A name imported with `from` lives in the
caller's namespace, so it is patched there (itstore.protocol.au2_hash, not
itstore.mac.au2_hash).

Spans form a calling-context tree.  Every operation the benchmark times is a
root span of its own; below it, repeated calls of one function under one
parent are folded into a single span record that keeps the call count, the
first start, the last end, the summed duration and the summed duration of
its own children.  Self time is duration minus child-span time.  Folding
keeps memory bounded on the 100 KB workload, where one cycle makes a few
hundred thousand polynomial evaluations, while every self time can still be
derived exactly from the records.  Call counts per span name are also kept
in a flat table, so the benchmark can snapshot them after every cycle.

Counters that are not times (bytes, key bits, fsyncs) are taken at the same
boundaries and only while a root span is open, so set-up work is excluded.
"""

from __future__ import annotations

import builtins
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  An attribute path "Cls.meth"
# patches a class attribute; a plain name patches a module global.
SPANS = (
    ("keynet", "KeyNetwork.secure_recv", "keynet.secure_recv"),
    ("keynet", "KeyNetwork.check_sendable", "keynet.check_sendable"),
    ("protocol", "au2_hash", "mac.tag"),
    ("protocol", "recompute_tag", "mac.tag"),
    ("entropy", "PrfBits.read_bits", "entropy.prf"),
    ("renewal", "mod_exp", "field.mod_exp"),
    ("protocol", "random_polynomial", "field.random_polynomial"),
    ("renewal", "random_polynomial", "field.random_polynomial"),
    ("spss", "random_polynomial", "field.random_polynomial"),
    ("field", "Polynomial.evaluate", "field.evaluate"),
    ("protocol", "spss_register", "spss.register"),
    ("protocol", "spss_request", "spss.request"),
    ("protocol", "spss_recover", "spss.recover"),
    ("stores", "holder_respond", "spss.respond"),
    ("protocol", "gen_renewal", "renewal.gen"),
    ("protocol", "verify_renewal_share", "renewal.verify"),
    ("renewal", "RenewalGroupConfig.commit", "renewal.commit"),
    ("stores", "HolderStore.save", "stores.save"),
    ("stores", "HolderStore.respond", "stores.respond"),
    ("stores", "HolderStore.renewal_rounds", "stores.journal_scan"),
    ("stores", "ChainedLog.append", "stores.journal_append"),
    ("stores", "erase_and_rewrite", "stores.erase_and_rewrite"),
)

# Message kinds the benchmark's workloads send; per-kind metrics are
# reported for all of them on every workload, zero where a kind is unused.
KINDS = (
    "register-data", "shares", "tag-report", "receipt", "precomp",
    "recon-request", "avail-query", "avail-reply", "recon-ask",
    "recon-response", "recon-result", "release", "check-request",
    "check-tag", "verdict", "refute-request", "refute-tag",
    "renew-commits", "renew-pairs",
)

OPS = ("register", "precompute", "reconstruct", "verify", "refute", "renew")

_MARK = "_perfbench_wrapper"


def _resolve(owner, path):
    """(object holding the attribute, attribute name) for a dotted path."""
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _mark(fn):
    setattr(fn, _MARK, True)
    return fn


class _CountingFile:
    """File handle proxy that adds every written byte to a counter."""

    def __init__(self, fh, counters):
        self._fh = fh
        self._counters = counters

    def write(self, data):
        n = self._fh.write(data)
        self._counters["stores.bytes_written"] += n
        return n

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _CountingOs:
    """Stand-in for the `os` module inside itstore.stores: counts fsyncs."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def fsync(self, fd):
        self._real.fsync(fd)
        if self._tracer._stack:
            self._tracer.counters["stores.fsyncs"] += 1

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Install with install(modules), time operations with op(name),
    derive metrics with layer_metrics(), and always call remove()."""

    def __init__(self):
        self.nodes = []  # [name, parent, start_ns, end_ns, calls, total_ns, child_ns]
        self._index = {}  # (parent node, name) -> node
        self._stack = []  # open frames: [node, child_ns]
        self.calls = defaultdict(int)  # span name -> calls, cheap to snapshot
        self.counters = defaultdict(int)
        self._patches = []  # (owner, attr, original, existed)
        self._modules = {}
        self._epoch = time.perf_counter_ns()

    # ---------------------------------------------------------- wrapping

    def _patch(self, owner, attr, replacement):
        existed = attr in vars(owner)
        original = vars(owner).get(attr)
        self._patches.append((owner, attr, original, existed))
        setattr(owner, attr, replacement)

    def _span(self, name, fn):
        stack, nodes, index = self._stack, self.nodes, self._index
        calls, clock = self.calls, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = stack[-1]
            key = (frame[0], name)
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(nodes)
                nodes.append([name, frame[0], 0, 0, 0, 0, 0])
            mine = [idx, 0]
            stack.append(mine)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                node = nodes[idx]
                if not node[4]:
                    node[2] = t0
                node[3] = t1
                node[4] += 1
                node[5] += dur
                node[6] += mine[1]
                frame[1] += dur
                calls[name] += 1

        return _mark(wrapper)

    def install(self, modules):
        """Wrap every traced function. modules maps short names (protocol,
        keynet, ...) to the imported itstore modules."""
        self._modules = dict(modules)
        for mod, path, name in SPANS:
            owner, attr = _resolve(modules[mod], path)
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for mod in ("keynet", "mac"):
            self._patch(modules[mod], "toeplitz_tag_bits",
                        self._toeplitz(modules[mod].toeplitz_tag_bits))
        net_cls = modules["keynet"].KeyNetwork
        self._patch(net_cls, "secure_send", self._secure_send(net_cls.secure_send))
        self._patch(net_cls, "relay_keys", self._relay_keys(net_cls.relay_keys))
        self._patch(net_cls, "advance", self._key_wait(net_cls.advance))
        prf_cls = modules["entropy"].PrfBits
        self._patch(prf_cls, "_block", self._prf_block(prf_cls._block))
        transport = modules["protocol"].Transport
        self._patch(transport, "send", self._transport_send(transport.send))
        stores = modules["stores"]
        self._patch(stores, "open", self._counting_open())
        self._patch(stores, "os", _CountingOs(stores.os, self))

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, existed = self._patches.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def leftovers(self) -> list:
        """Names in any itstore module or class that still hold a tracer
        wrapper; empty after a clean remove()."""
        found = []
        for mod_name, module in sorted(self._modules.items()):
            for attr, value in vars(module).items():
                if getattr(value, _MARK, False) or isinstance(value, _CountingOs):
                    found.append("%s.%s" % (mod_name, attr))
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in vars(value).items():
                        if getattr(cvalue, _MARK, False):
                            found.append("%s.%s.%s" % (mod_name, attr, cattr))
        return found

    # ------------------------------------------------- counting wrappers

    def _counting_open(self):
        stack, counters = self._stack, self.counters

        def wrapper(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            return _CountingFile(fh, counters) if stack else fh

        return _mark(wrapper)

    def _toeplitz(self, fn):
        span = self._span("mac.toeplitz", fn)
        stack, counters = self._stack, self.counters

        def wrapper(seed, message, message_bits, k):
            if stack:
                counters["mac.toeplitz.input_bits"] += message_bits
            return span(seed, message, message_bits, k)

        return _mark(wrapper)

    def _secure_send(self, fn):
        span = self._span("keynet.secure_send", fn)
        stack, counters = self._stack, self.counters

        def wrapper(net, sender, receiver, plaintext):
            if not stack:
                return span(net, sender, receiver, plaintext)
            chan = net.channels.get((sender, receiver))
            width_before = chan.seed_width if chan else 0
            envelope = span(net, sender, receiver, plaintext)
            width_after = net.channels[(sender, receiver)].seed_width
            if width_after != width_before:
                have = net.tag_bits + width_before - 1 if width_before else 0
                counters["keynet.seed_growth_bits"] += (
                    net.tag_bits + width_after - 1 - have)
            counters["keynet.pad_bits"] += len(plaintext) * 8
            counters["keynet.tag_pad_bits"] += net.tag_bits
            return envelope

        return _mark(wrapper)

    def _relay_keys(self, fn):
        stack, counters = self._stack, self.counters

        def wrapper(net, a, b, amount, path=None):
            fn(net, a, b, amount, path)
            if stack:
                hops = path if path is not None else net.topology.shortest_path(a, b)
                counters["keynet.relay_overhead_bits"] += amount * (len(hops) - 1)

        return _mark(wrapper)

    def _key_wait(self, fn):
        stack, counters = self._stack, self.counters

        def wrapper(net, ms):
            if stack:  # inside an operation, time only moves to wait for key
                counters["keynet.key_waits"] += 1
            return fn(net, ms)

        return _mark(wrapper)

    def _prf_block(self, fn):
        stack, counters = self._stack, self.counters

        def wrapper(prf, index):
            if stack:
                counters["entropy.prf.blocks"] += 1
            return fn(prf, index)

        return _mark(wrapper)

    def _transport_send(self, fn):
        stack, counters = self._stack, self.counters

        def wrapper(transport, sender, receiver, kind, payload, sid=None):
            if not stack:
                return fn(transport, sender, receiver, kind, payload, sid)
            net = transport.net
            before = sum(s.cursor for s in net.streams.values())
            try:
                return fn(transport, sender, receiver, kind, payload, sid)
            finally:
                spent = sum(s.cursor for s in net.streams.values()) - before
                counters["keynet.key_bits." + kind] += spent
                counters["protocol.bytes." + kind] += len(payload)
                counters["protocol.messages"] += 1
                if net.endpoints[sender] == net.endpoints[receiver]:
                    counters["protocol.local_messages"] += 1

        return _mark(wrapper)

    # --------------------------------------------------------- root spans

    @contextmanager
    def op(self, op_name):
        """Root span for one timed operation."""
        name = "protocol." + op_name
        idx = len(self.nodes)
        self.nodes.append([name, -1, 0, 0, 1, 0, 0])
        frame = [idx, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            node = self.nodes[idx]
            node[2], node[3], node[5], node[6] = t0, t1, t1 - t0, frame[1]
            self.calls[name] += 1

    # ----------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Cumulative counts so far, for per-cycle determinism checks."""
        out = dict(self.counters)
        out.update(("calls." + k, v) for k, v in self.calls.items())
        return out

    def self_seconds(self) -> dict:
        out = defaultdict(float)
        for name, _parent, _s, _e, _calls, total, child in self.nodes:
            out[name] += (total - child) / 1e9
        return out

    def layer_metrics(self, payload_bytes_served: int) -> dict:
        """Per-layer metrics derived from the span records and counters."""
        self_s = self.self_seconds()
        calls = self.calls
        c = self.counters
        m = {}
        for op in OPS:
            m["protocol.%s.self_s" % op] = self_s["protocol." + op]
        m["protocol.messages"] = c["protocol.messages"]
        m["protocol.local_messages"] = c["protocol.local_messages"]
        for kind in KINDS:
            m["protocol.bytes." + kind] = c["protocol.bytes." + kind]
        for name in ("secure_send", "secure_recv", "check_sendable"):
            m["keynet.%s.s" % name] = self_s["keynet." + name]
        for name in ("pad_bits", "tag_pad_bits", "seed_growth_bits",
                     "relay_overhead_bits", "key_waits"):
            m["keynet." + name] = c["keynet." + name]
        for kind in KINDS:
            m["keynet.key_bits." + kind] = c["keynet.key_bits." + kind]
        m["mac.toeplitz.calls"] = calls["mac.toeplitz"]
        m["mac.toeplitz.input_bits"] = c["mac.toeplitz.input_bits"]
        m["mac.toeplitz.s"] = self_s["mac.toeplitz"]
        m["mac.tag.s"] = self_s["mac.tag"]
        m["entropy.prf.reads"] = calls["entropy.prf"]
        m["entropy.prf.blocks"] = c["entropy.prf.blocks"]
        m["entropy.prf.s"] = self_s["entropy.prf"]
        for name in ("mod_exp", "random_polynomial", "evaluate"):
            m["field.%s.calls" % name] = calls["field." + name]
            m["field.%s.s" % name] = self_s["field." + name]
        for name in ("register", "request", "respond", "recover"):
            m["spss.%s.s" % name] = self_s["spss." + name]
        for name in ("gen", "verify"):
            m["renewal.%s.calls" % name] = calls["renewal." + name]
            m["renewal.%s.s" % name] = self_s["renewal." + name]
        m["renewal.commit.calls"] = calls["renewal.commit"]
        m["stores.save.calls"] = calls["stores.save"]
        m["stores.save.s"] = self_s["stores.save"]
        m["stores.bytes_written"] = c["stores.bytes_written"]
        m["stores.write_amp"] = c["stores.bytes_written"] / payload_bytes_served
        m["stores.fsyncs"] = c["stores.fsyncs"]
        m["stores.journal_appends"] = calls["stores.journal_append"]
        m["stores.respond.s"] = self_s["stores.respond"]
        m["stores.journal_scan.s"] = self_s["stores.journal_scan"]
        m["stores.erase_and_rewrite.s"] = self_s["stores.erase_and_rewrite"]
        m["stores.journal_append.s"] = self_s["stores.journal_append"]
        return m

    def write_spans(self, path) -> None:
        """One JSON line per span record; times in seconds from the epoch
        at which the tracer was created."""
        epoch = self._epoch
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, calls, total, child) in enumerate(self.nodes):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name,
                    "start_s": (start - epoch) / 1e9, "end_s": (end - epoch) / 1e9,
                    "calls": calls, "total_s": total / 1e9,
                    "self_s": (total - child) / 1e9,
                }) + "\n")
