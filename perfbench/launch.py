"""Child-process bootstrap: run ``python -m repro ARGS`` with benchmark hooks.

    python3 perfbench/launch.py --report REPORT.json [--trace] [--provenance] -- ARGS...

The bootstrap imports the repro command line, patches hooks into the classes
listed below, then runs the ``repro`` package as ``__main__`` exactly as
``python -m repro ARGS`` does.  When the command ends it writes a JSON report
to ``REPORT.json``:

``imported``
    Clock reading once the command line and every layer it runs are imported.
``first_packet``
    Clock reading at the first simulated packet (the end of set-up).
``spans``, ``counters``, ``missing``
    Traced runs only: ``[layer, start, end, parent]`` records around calls
    into each layer, counts taken at the same boundaries, and hook targets
    this version of the program does not have.
``provenance``
    With ``--provenance``: interpreter, numpy and scipy versions, and the
    decoder families importable here with the one the default resolves to.

Clock readings are ``time.monotonic()``, which on Linux is one system-wide
clock, so the parent process can subtract its own launch reading from them.
Nothing under ``src/`` is edited: every hook is installed from this file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import runpy
import sys
import time
from collections import defaultdict

clock = time.monotonic

#: Calls whose first entry marks the first simulated packet.  Several are
#: listed so that renaming one of them does not lose the set-up mark.
FIRST_PACKET_HOOKS = (
    "repro.link.system:HspaLikeLink._start_group",
    "repro.link.transmitter:Transmitter.encode_batch",
    "repro.link.transmitter:Transmitter.encode",
)


# Work counters take ``layer=None`` inside a span of their own layer (a
# serial method delegating to its batch twin) and then count nothing, so a
# row is counted once.  Named counters count every call.


def _rows(counters, layer, args, _result):
    if layer is not None:
        counters[f"{layer}.rows"] += len(args[1])


def _one_row(counters, layer, _args, _result):
    if layer is not None:
        counters[f"{layer}.rows"] += 1


def _decoded_batch(counters, layer, args, result):
    if layer is None:
        return
    decoded, crc_ok, decoder_result = result
    counters[f"{layer}.rows"] += len(args[1])
    counters[f"{layer}.crc_passes"] += int(sum(bool(ok) for ok in crc_ok))
    counters[f"{layer}.iterations"] += decoder_result.iterations_run
    counters[f"{layer}.info_bits"] += int(decoded.size)


def _decoded_single(counters, layer, _args, result):
    if layer is None:
        return
    _payload, crc_ok, decoder_result = result
    counters[f"{layer}.rows"] += 1
    counters[f"{layer}.crc_passes"] += int(bool(crc_ok))
    counters[f"{layer}.iterations"] += decoder_result.iterations_run
    counters[f"{layer}.info_bits"] += int(decoder_result.decoded_bits.size)


def _named(counter):
    def count(counters, _layer, _args, _result):
        counters[counter] += 1

    return count


def _words(counter):
    def count(counters, _layer, args, _result):
        counters[counter] += args[0].num_words

    return count


def _chunk(counters, _layer, args, _result):
    counters["runner.chunks"] += 1
    counters["packets"] += args[1].num_packets


#: ``(layer, target, count)``: a span named *layer* around every call of
#: *target*; *count* adds the call's work to the counters afterwards.
TRACE_POINTS = (
    ("setup.link_build", "repro.link.system:HspaLikeLink.__init__", None),
    ("link.transmitter", "repro.link.transmitter:Transmitter.random_payload", None),
    ("link.transmitter", "repro.link.transmitter:Transmitter.encode_batch", None),
    ("link.transmitter", "repro.link.transmitter:Transmitter.transmit_batch", _rows),
    ("link.transmitter", "repro.link.transmitter:Transmitter.transmit", _one_row),
    ("channel", "repro.channel.multipath:MultipathChannel.apply_batch", _rows),
    ("channel", "repro.channel.multipath:MultipathChannel.apply", _one_row),
    ("channel", "repro.channel.multipath:MultipathChannel.mean_signal_powers", None),
    ("link.receiver.front_end", "repro.link.receiver:Receiver.front_end_batch", _rows),
    ("link.receiver.front_end", "repro.link.receiver:Receiver.front_end", _one_row),
    ("link.receiver.derate", "repro.link.receiver:Receiver.to_mother_domain_batch", _rows),
    ("link.receiver.derate", "repro.link.receiver:Receiver.to_mother_domain", _one_row),
    ("phy.turbo", "repro.link.receiver:Receiver.decode_batch", _decoded_batch),
    ("phy.turbo", "repro.link.receiver:Receiver.decode", _decoded_single),
    ("harq", "repro.link.system:HspaLikeLink.make_buffer", _named("harq.buffer_build.calls")),
    ("harq", "repro.link.system:HspaLikeLink._combined_mother_rows", None),
    ("harq", "repro.harq.buffer:TransmissionSoftBuffer.store_transmission", _named("harq.store.calls")),
    ("harq", "repro.harq.buffer:TransmissionSoftBuffer.load_transmission", _named("harq.load.calls")),
    ("harq", "repro.harq.buffer:TransmissionSoftBuffer.combined_mother_llrs", None),
    ("harq", "repro.harq.buffer:TransmissionSoftBuffer.clear", None),
    ("harq", "repro.harq.buffer:LlrSoftBuffer.store", _named("harq.store.calls")),
    ("harq", "repro.harq.buffer:LlrSoftBuffer.load", _named("harq.load.calls")),
    ("harq", "repro.harq.buffer:LlrSoftBuffer.clear", None),
    ("memory", "repro.core.protection:ProtectionScheme.make_fault_map", _named("memory.fault_map.calls")),
    ("memory", "repro.memory.faults:FaultMap.row_slice", None),
    ("memory", "repro.memory.array:MemoryArray.__post_init__", None),
    ("memory", "repro.memory.array:MemoryArray.write_words", _words("memory.words_written")),
    ("memory", "repro.memory.array:MemoryArray.read_words", _words("memory.words_read")),
    ("memory", "repro.memory.array:MemoryArray.clear", None),
    ("memory.ecc", "repro.memory.ecc:HammingCode.encode", None),
    ("memory.ecc", "repro.memory.ecc:HammingCode.decode", None),
)

#: ``(target, count)``: runner bookkeeping is counted, not timed — its time
#: is what remains of the traced wall time once every layer is accounted for.
COUNT_POINTS = (
    ("repro.link.system:HspaLikeLink._start_group", _chunk),
    ("repro.runner.cache:ResultCache.store", _named("runner.store_writes")),
    ("repro.runner.point_store:PointStore.store_fault_point", _named("runner.store_writes")),
    ("repro.runner.point_store:PointStore.store_statistics", _named("runner.store_writes")),
    ("repro.runner.journal:SweepJournal.record_fault_point", _named("runner.journal_appends")),
    ("repro.runner.journal:SweepJournal.record_bler_cell", _named("runner.journal_appends")),
    ("repro.runner.journal:SweepJournal.record_adaptive_round", _named("runner.journal_appends")),
)


def resolve(target):
    """``(class, attribute, function)`` for ``"module:Class.attr"``, or ``None``."""
    module_name, _, qualname = target.partition(":")
    class_name, _, attribute = qualname.partition(".")
    try:
        owner = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError):
        return None
    function = owner.__dict__.get(attribute)
    if not inspect.isfunction(function):
        return None
    return owner, attribute, function


class Recorder:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.missing = []
        self._open = []

    def span(self, layer, function, count):
        """*function* wrapped in a span of *layer* (plus its call counters)."""
        spans, open_spans, counters = self.spans, self._open, self.counters

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            outermost = parent < 0 or spans[parent][0] != layer
            index = len(spans)
            spans.append([layer, clock(), 0.0, parent])
            open_spans.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            if outermost:
                counters[f"{layer}.calls"] += 1
            if count is not None:
                count(counters, layer if outermost else None, args, result)
            return result

        return traced

    def counted(self, function, count):
        """*function* with its counters updated after every call."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            count(counters, None, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every trace and count point this program version has."""
        points = [(target, layer, count) for layer, target, count in TRACE_POINTS]
        points += [(target, None, count) for target, count in COUNT_POINTS]
        for target, layer, count in points:
            found = resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attribute, function = found
            if layer is None:
                wrapper = self.counted(function, count)
            else:
                wrapper = self.span(layer, function, count)
            setattr(owner, attribute, wrapper)


def install_first_packet_mark(marks):
    """Record ``marks["first_packet"]`` at the first call of any hook, then unhook."""
    originals = [found for found in map(resolve, FIRST_PACKET_HOOKS) if found is not None]

    def restore():
        for owner, attribute, function in originals:
            setattr(owner, attribute, function)

    def marking(function):
        def first_call(*args, **kwargs):
            marks["first_packet"] = clock()
            restore()
            return function(*args, **kwargs)

        return first_call

    for owner, attribute, function in originals:
        setattr(owner, attribute, marking(function))


def provenance():
    """Versions and decoder families of this interpreter and checkout."""
    import platform

    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__}
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    try:
        from repro.phy.turbo import backends

        info["decoder_families_available"] = [
            entry["family"] for entry in backends.family_listing() if entry["available"]
        ]
        default = backends.resolve_backend(backends.DEFAULT_BACKEND, warn=False)
        info["decoder_default"] = default.name
        info["decoder_default_family"] = default.family
    except Exception as exc:  # provenance must never fail the measured run
        info["decoder_error"] = f"{type(exc).__name__}: {exc}"
    return info


def main(argv):
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1 :]
    report_path = options[options.index("--report") + 1]

    import repro.runner.cli  # noqa: F401  (the command line imports every layer it runs)

    marks = {"imported": clock(), "first_packet": None}
    recorder = Recorder() if "--trace" in options else None
    if recorder is not None:
        recorder.install()
    install_first_packet_mark(marks)

    sys.argv = ["repro", *command]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        report = dict(marks)
        if recorder is not None:
            report.update(
                spans=recorder.spans, counters=recorder.counters, missing=recorder.missing
            )
        if "--provenance" in options:
            report["provenance"] = provenance()
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
