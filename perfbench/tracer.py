"""Traced CLI entry point and span aggregation.

    python3 perfbench/tracer.py SPANS.json -- <absorb CLI arguments>

imports `absorb`, wraps the public functions listed in LAYERS, runs
`absorb.cli.main(argv)` and writes the recorded spans to SPANS.json when it
ends, whatever the outcome.  The exit code and output are the CLI's own.

A module that imports a function by name (`from .engine import find_hom`)
holds its own binding, so each function is wrapped in every `absorb` module
that binds it, and each span records the module it was called through
("via").  A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, home module, function, modules the call must go through or None for any)
LAYERS = (
    ("engine.find_hom", "engine", "find_hom", None),
    ("decide.cert_find_hom", "engine", "find_hom", ("decide",)),
    ("engine.subpower_membership", "engine", "subpower_membership", None),
    ("engine.generate_subpower", "engine", "generate_subpower", None),
    ("engine.closure_unary", "engine", "closure_unary", None),
    ("engine.power_structure", "engine", "power_structure", None),
    ("engine.absorption_term_search", "engine", "absorption_term_search", None),
    ("engine.essential_witness_search", "engine", "essential_witness_search", None),
    ("decide.jonsson_digraph", "decide", "jonsson_digraph", None),
    ("decide.verify_np_certificate", "decide", "verify_np_certificate", None),
    ("model.with_singletons", "model", "with_singletons", None),
    ("model.is_polymorphism", "model", "is_polymorphism", None),
    ("model.digraph_reach", "model", "digraph_reach", None),
    ("codec.parse_structure", "codec", "parse_structure", None),
    ("codec.parse_certificate", "codec", "parse_certificate", None),
)

# Layers whose useful-outcome ratio is reported: returned a solution / a member.
RATIOS = {"engine.find_hom": "sat_ratio", "engine.subpower_membership": "member_ratio"}
BYTES_LAYER = "codec.parse_certificate"


def _functions():
    """{(home, name)} for every wrapped function."""
    return sorted({(home, name) for _, home, name, _ in LAYERS})


class Recorder:
    """Spans kept in memory: [function, via, start, end, parent, ok, bytes]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []

    def wrap(self, fn, key, via):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, via, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            rec[5] = result is not None and result is not False
            if key == "codec.parse_certificate" and args and isinstance(args[0], str):
                rec[6] = len(args[0].encode("utf-8"))
            return result

        return wrapper

    def install(self, package):
        """Wrap every listed function in each loaded module of `package`."""
        modules = {
            mod_name[len(package) + 1:] or "__init__": mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
        }
        for home, name in _functions():
            key = "%s.%s" % (home, name)
            home_mod = modules.get(home)
            original = getattr(home_mod, name, None) if home_mod is not None else None
            if original is None:
                self.absent.append(key)
                continue
            for via, mod in sorted(modules.items()):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, self.wrap(original, key, via))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh, separators=(",", ":"))


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <absorb arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    import absorb.cli

    recorder = Recorder()
    recorder.install("absorb")
    try:
        return absorb.cli.main(cli_argv)
    finally:
        recorder.dump(out)


# --- aggregation (runs in the benchmark process) ---------------------------------


def _selected(layer_via, via):
    return layer_via is None or via in layer_via


def summarize(span_docs):
    """Per-layer calls, seconds, self seconds and ratios over many span files.

    Returns (metrics, absent_layers); metrics maps name -> (value, unit).
    """
    acc = {layer: [0, 0.0, 0.0, 0] for layer, _, _, _ in LAYERS}
    cert_bytes = 0
    absent = set()
    for doc in span_docs:
        spans = doc["spans"]
        absent.update(doc.get("absent", ()))
        child_time = [0.0] * len(spans)
        for key, via, start, end, parent, ok, nbytes in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (key, via, start, end, parent, ok, nbytes) in enumerate(spans):
            if key == BYTES_LAYER and nbytes:
                cert_bytes += nbytes
            for layer, home, name, layer_via in LAYERS:
                if key != "%s.%s" % (home, name) or not _selected(layer_via, via):
                    continue
                a = acc[layer]
                a[0] += 1
                a[1] += end - start
                a[2] += end - start - child_time[i]
                a[3] += 1 if ok else 0
    metrics = {}
    absent_layers = []
    for layer, home, name, _ in LAYERS:
        if "%s.%s" % (home, name) in absent:
            absent_layers.append(layer)
        calls, total, self_s, ok = acc[layer]
        metrics[layer + ".calls"] = (calls, "count")
        metrics[layer + ".s"] = (total, "s")
        metrics[layer + ".self_s"] = (self_s, "s")
        if layer in RATIOS:
            metrics["%s.%s" % (layer, RATIOS[layer])] = (ok / calls if calls else 0.0, "ratio")
    metrics["codec.cert_bytes"] = (cert_bytes, "bytes")
    return metrics, absent_layers


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    metrics, _ = summarize([])
    return [(name, unit) for name, (_, unit) in metrics.items()]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
