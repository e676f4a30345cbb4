"""Layer spans recorded by wrapping each ``repro`` package's entry points.

Nothing here edits ``src/``: :meth:`Tracer.install` replaces the listed
class methods, and every module binding of the listed module functions,
with timing wrappers, and :meth:`Tracer.uninstall` puts the originals
back.  Each call becomes one span (name, start, end, parent) appended
to flat in-memory arrays; a generator function gets one span per
resume.  Spans are reduced only after the run, into per-layer *self*
time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

#: (span name, module, attribute path, every-binding?) per entry point.
#: A span name is ``layer:entry``; the layer is what metrics aggregate.
#: ``every-binding`` module functions are replaced in every module that
#: imported them, so ``from x import f`` call sites are traced too.
ENTRY_POINTS = [
    ("hw:step", "repro.hw.cpu", "CPU.step", False),
    ("perf.compile:translate", "repro.perf.translate", "translate", True),
    ("perf.compile:build_trace", "repro.perf.traces", "build_trace", True),
    ("perf.compile:translate_trace", "repro.perf.traces", "translate_trace", True),
    ("perf.compile:compile_prefix", "repro.perf.traces", "TraceJIT._compile_prefix", False),
    ("perf.exec:try_execute", "repro.perf.translate", "BlockEngine.try_execute", False),
    ("rtos:run", "repro.rtos.kernel", "Kernel.run", False),
    ("core.load:load", "repro.core.loader", "TaskLoader.load", False),
    ("core.load:load_synchronously", "repro.core.loader", "TaskLoader.load_synchronously", False),
    ("core.rtm_measure:measure", "repro.core.rtm", "RTM.measure", False),
    ("core.rtm_measure:measure_synchronously", "repro.core.rtm", "RTM.measure_synchronously", False),
    ("core.attest:attest", "repro.core.remote_attest", "RemoteAttest.attest", False),
    ("core.ipc:send", "repro.core.ipc", "IPCProxy.send", False),
    ("core.ipc:handle_trap", "repro.core.ipc", "IPCProxy.handle_trap", False),
    ("core.ipc:read_inbox", "repro.core.ipc", "IPCProxy.read_inbox", False),
    ("core.ipc:deliver_system_message", "repro.core.ipc", "IPCProxy.deliver_system_message", False),
    ("core.storage:store", "repro.core.secure_storage", "SecureStorage.store", False),
    ("core.storage:retrieve", "repro.core.secure_storage", "SecureStorage.retrieve", False),
    ("core.int_mux:save", "repro.core.int_mux", "TyTANContextPolicy.save_context", False),
    ("core.int_mux:restore", "repro.core.int_mux", "TyTANContextPolicy.restore_context", False),
    ("core.int_mux:save", "repro.core.int_mux", "TyTANContextPolicy.save_context_native", False),
    ("core.int_mux:restore", "repro.core.int_mux", "TyTANContextPolicy.restore_context_native", False),
    ("analysis:verify_image", "repro.analysis.verifier", "verify_image", True),
    ("crypto.sha1:compress", "repro.crypto.sha1", "SHA1._compress", False),
    ("crypto.hmac:hmac_sha1", "repro.crypto.hmac", "hmac_sha1", True),
    ("crypto.kdf:derive_key", "repro.crypto.kdf", "derive_key", True),
    ("cfa.evidence:evidence_report", "repro.cfa.engine", "CfaEngine.evidence_report", False),
    ("cfa.verify:verify", "repro.cfa.verifier", "PathVerifier.verify", False),
    ("net.fabric:send", "repro.net.fabric", "NetworkFabric.send", False),
    ("net.fabric:send_batch", "repro.net.fabric", "NetworkFabric.send_batch", False),
    ("net.fabric:advance_to", "repro.net.fabric", "NetworkFabric.advance_to", False),
    ("net.fabric:take_touched", "repro.net.fabric", "NetworkFabric.take_touched", False),
    ("net.fabric:drain", "repro.net.fabric", "Endpoint.drain", False),
    ("net.wire:encode_frame", "repro.net.wire", "encode_frame", True),
    ("net.wire:decode_message", "repro.net.wire", "decode_message", True),
    ("fleet.device:handle_frame", "repro.fleet.device", "FleetDevice.handle_frame", False),
    ("fleet.service:poll", "repro.fleet.shards", "ShardedVerifierService.poll", False),
    ("fleet.service:handle", "repro.fleet.shards", "ShardedVerifierService.handle", False),
    ("fleet.fork:fork", "repro.fleet.snapshot", "DeviceTemplate.fork", False),
    ("fleet.fork:rekey", "repro.fleet.device", "FleetDevice.rekey", False),
]

#: Only the verifier registry's binding: devices re-derive their own
#: key on rekey, which belongs to ``fleet.fork``.
REGISTRY_ENTRY = ("fleet.registry:device_platform_key", "repro.fleet.orchestrator", "device_platform_key")


def import_all():
    """Import every ``repro`` module, so that every binding of a traced
    module function exists before :meth:`Tracer.install` runs."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.current = -1
        self._patches = []

    def _id(self, span_name):
        sid = self._ids.get(span_name)
        if sid is None:
            sid = self._ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        return sid

    # -- recording ----------------------------------------------------------

    def open(self, span_name):
        """Start a span under the current one; returns its index."""
        index = len(self.names)
        self.names.append(self._id(span_name))
        self.parents.append(self.current)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.current = index
        return index

    def close(self, index):
        """End span ``index`` and make its parent current again."""
        self.ends[index] = time.perf_counter_ns()
        self.current = self.parents[index]

    def wrap(self, fn, span_name):
        """A timing wrapper around ``fn`` (generator-aware)."""
        sid = self._id(span_name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns
        tracer = self

        def timed(call, *args, **kwargs):
            index = len(names)
            names.append(sid)
            parents.append(tracer.current)
            starts.append(clock())
            ends.append(0)
            tracer.current = index
            try:
                return call(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parents[index]

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return _resumes(timed, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn, *args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every entry point (call :func:`import_all` first)."""
        for span_name, module_name, path, every in ENTRY_POINTS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            replacement = self.wrap(original, span_name)
            if not every:
                self._patch(owner, attr, replacement)
                continue
            for name, other in list(sys.modules.items()):
                if name.startswith("repro") and other.__dict__.get(attr) is original:
                    self._patch(other, attr, replacement)
        span_name, module_name, attr = REGISTRY_ENTRY
        module = sys.modules[module_name]
        self._patch(module, attr, self.wrap(module.__dict__[attr], span_name))

    def uninstall(self):
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def reduce(self):
        """``(self_ns, counts)`` per span name.

        The self times add up to the root spans' durations exactly.
        """
        if self.current != -1:
            raise RuntimeError("spans still open at reduction")
        n = len(self.names)
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * n
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += duration[index]
        self_ns = [0] * len(self.span_names)
        counts = [0] * len(self.span_names)
        for index, sid in enumerate(self.names):
            self_ns[sid] += duration[index] - covered[index]
            counts[sid] += 1
        return dict(zip(self.span_names, self_ns)), dict(zip(self.span_names, counts))


def _resumes(timed, generator):
    """Drive ``generator`` with one timed span per resume."""
    sent = None
    while True:
        try:
            value = timed(generator.send, sent)
        except StopIteration as stop:
            return stop.value
        sent = yield value
