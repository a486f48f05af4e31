"""Layer tracing from outside the program.

The tracer replaces public wittlab functions with timing wrappers in every
wittlab module namespace that holds them (so calls between modules are seen
too), and replaces ring arithmetic methods with counting wrappers.  Spans
(id, parent id, layer, start, end) are kept in memory and written out when
the pass ends.  A layer's self time is its span time minus the time of its
child spans.  Ring arithmetic is counted, never timed: a span around every
``RingElement.__mul__`` would cost more than the multiply.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer name -> (module, public functions whose calls open a span)
LAYERS = {
    "cli": ("wittlab.cli", ("main",)),
    "laws": ("wittlab.laws", ("run_suite", "run_law", "symbolic_verify")),
    "witt.ghost": ("wittlab.witt", ("ghost",)),
    "witt.ghost_solve": ("wittlab.witt", ("ghost_solve",)),
    "witt.ops": ("wittlab.witt", ("witt_add", "witt_mul", "witt_neg",
                                  "witt_sub", "frobenius", "mult_pi",
                                  "exp_delta", "scalar_mul")),
    "witt.universal": ("wittlab.witt", ("universal_polynomials",)),
    "shifted.ghost": ("wittlab.shifted", ("shifted_ghost",)),
    "shifted.ghost_solve": ("wittlab.shifted", ("shifted_ghost_solve",)),
    "shifted.ops": ("wittlab.shifted", ("shifted_add", "shifted_mul",
                                        "shifted_neg", "lateral_frobenius",
                                        "shift_E", "scalar_shifted",
                                        "include_I")),
    "fgl.load": ("wittlab.fgl", ("load_fgl",)),
    "fgl.series": ("wittlab.fgl", ("formal_log", "formal_inverse")),
    "kernel.group": ("wittlab.kernel", ("kernel_add", "kernel_neg")),
    "kernel.maps": ("wittlab.kernel", ("kernel_embed", "kernel_witt_point",
                                       "kernel_lateral_f", "kernel_phi",
                                       "kernel_project_u",
                                       "kernel_section_sigma")),
    "kernel.psi": ("wittlab.kernel", ("psi_map",)),
    "kernel.diff": ("wittlab.kernel", ("difference_character",)),
    "serialize.encode": ("wittlab.serialize", ("encode_element",)),
    "serialize.decode": ("wittlab.serialize", ("decode_element",)),
}

# Layers that only dispatch to the others.  Their self time is argument
# parsing, report writing and law bodies not split into wrapped functions:
# time the trace does not attribute to a layer of the calculus.
ENTRY_LAYERS = ("cli", "laws")

# Layers whose return values are scanned for bigint size and term count.
SIZED_LAYERS = ("witt.ghost", "witt.ghost_solve", "witt.ops",
                "witt.universal", "shifted.ghost", "shifted.ghost_solve",
                "shifted.ops", "kernel.group", "kernel.maps", "kernel.psi",
                "kernel.diff")

# counter name -> (class attribute path, method names)
RING_COUNTERS = {
    "rings.mul.calls": ("RingElement", ("__mul__", "__rmul__")),
    "rings.add.calls": ("RingElement", ("__add__", "__radd__")),
    "rings.pow.calls": ("RingElement", ("__pow__",)),
    "rings.convert.calls": ("RingConfig", ("convert",)),
}


def _elements(value):
    """Ring elements inside a layer's return value (vectors, points, lists)."""
    if hasattr(value, "terms"):
        return (value,)
    for attr in ("comps", "entries", "coords"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return inner
    if hasattr(value, "head") and hasattr(value, "tail"):
        return tuple(value.head) + tuple(value.tail)
    if isinstance(value, (list, tuple)):
        return [e for e in value if hasattr(e, "terms")]
    return ()


class Tracer:
    """Spans and counters for one traced pass.  ``install`` before the pass,
    ``uninstall`` after it; nothing is recorded outside that window."""

    def __init__(self):
        self.names = list(LAYERS)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {name: 0 for name in RING_COUNTERS}
        self.max_coeff_bits = 0
        self.max_terms = 0
        self.universal_hits = 0
        self.fgl_keys = set()
        self.covered_ns = 0      # self time of spans outside ENTRY_LAYERS
        self.size_scan_ns = 0    # time spent scanning return values
        # flat span store: id, parent, layer, start, end (parent -1 = root)
        self.spans = array("q")
        self._stack = []         # [span id, child ns, ghost_solve calls]
        self._next_id = 0
        self._patched = []

    # -- installation ---------------------------------------------------

    def install(self):
        import wittlab.rings as rings
        replacements = {}
        for layer, (modname, funcs) in LAYERS.items():
            module = sys.modules[modname]
            for fname in funcs:
                orig = getattr(module, fname)
                replacements[id(orig)] = self._span_wrapper(
                    self._index[layer], orig)
        for modname, module in list(sys.modules.items()):
            if modname != "wittlab" and not modname.startswith("wittlab."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in replacements:
                    self._patched.append((module, attr, val))
                    setattr(module, attr, replacements[id(val)])
        for counter, (clsname, methods) in RING_COUNTERS.items():
            cls = getattr(rings, clsname)
            wrapped = {}
            for meth in methods:
                orig = cls.__dict__[meth]
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._count_wrapper(counter, orig)
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, wrapped[id(orig)])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------

    def _count_wrapper(self, counter, orig):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return orig(*args)
        return counted

    def _span_wrapper(self, layer, orig):
        name = self.names[layer]
        sized = name in SIZED_LAYERS
        is_universal = name == "witt.universal"
        is_fgl_load = name == "fgl.load"
        is_entry = name in ENTRY_LAYERS
        solve_layer = self._index["witt.ghost_solve"]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if is_fgl_load:
                src = args[0] if isinstance(args[0], str) else id(args[0])
                self.fgl_keys.add((src, args[1].key,
                                   args[2] if len(args) > 2 else None))
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0, self.calls[solve_layer]]
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[layer] += 1
                self.self_ns[layer] += dur - frame[1]
                if not is_entry:
                    self.covered_ns += dur - frame[1]
                parent = stack[-1] if stack else None
                self.spans.extend((span_id, parent[0] if parent else -1,
                                   layer, start, end))
                if parent is not None:
                    parent[1] += dur
            if is_universal and self.calls[solve_layer] == frame[2]:
                self.universal_hits += 1
            if sized:
                scan = clock()
                self._scan(result)
                scanned = clock() - scan
                self.size_scan_ns += scanned
                if parent is not None:
                    parent[1] += scanned
            return result
        return traced

    def _scan(self, value):
        for elem in _elements(value):
            terms = elem.terms
            if len(terms) > self.max_terms:
                self.max_terms = len(terms)
            for coeff in terms.values():
                for c in coeff:
                    bits = c.bit_length()
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    # -- results --------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and self times, keyed as in BENCHMARK.json."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_ms"] = self.self_ns[i] / 1e6
        out.update(self.counts)
        out["rings.max_coeff_bits"] = self.max_coeff_bits
        out["rings.max_terms"] = self.max_terms
        out["witt.universal.hits"] = self.universal_hits
        out["fgl.load.distinct"] = len(self.fgl_keys)
        out["trace.covered_ms"] = self.covered_ns / 1e6
        out["trace.size_scan_ms"] = self.size_scan_ns / 1e6
        out["trace.spans"] = self._next_id
        return out

    def write_spans(self, path):
        """Write every span as [id, parent, layer, start_ns, end_ns]."""
        s = self.spans
        rows = [s[i:i + 5].tolist() for i in range(0, len(s), 5)]
        with gzip.open(path, "wt") as fh:
            json.dump({"layers": self.names, "fields": [
                "id", "parent", "layer", "start_ns", "end_ns"],
                "spans": rows}, fh, separators=(",", ":"))
