"""Spans around the program's layer entry points, recorded from outside.

A `Tracer` replaces each entry point with a wrapper at the place its
caller looks it up (``from ... import`` copies a name into the importing
module, so e.g. `chain_matrix` is wrapped in both `cli` and
`determinant`).  Each wrapped call records a span (name, start, end,
parent span, pass id) in memory; some also add to size counters taken
from their result.  `per_layer` turns the spans into self times: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name or "" for a counter without a span)
TARGETS = [
    ("bouquetdet.cli", "verify_theorem", "determinant.verify"),
    ("bouquetdet.cli", "chain_matrix", "chains.matrix"),
    ("bouquetdet.determinant", "chain_matrix", "chains.matrix"),
    ("bouquetdet.determinant", "block_decompose", ""),
    ("bouquetdet.determinant", "det_bareiss", "determinant.bareiss"),
    ("bouquetdet.determinant", "rhs_product", "determinant.rhs"),
    ("bouquetdet.chains", "neat_chain_families", "chains.neat"),
    ("bouquetdet.chains", "generators", ""),
    ("bouquetdet.poset", "build_poset", "poset.build"),
    ("bouquetdet.matroid", "build_poset", "poset.build"),
    ("bouquetdet.com", "build_poset", "poset.build"),
    ("bouquetdet.poset", "Poset.is_bouquet", "poset.is_bouquet"),
    ("bouquetdet.poset", "Poset.rho", "poset.invariants"),
    ("bouquetdet.matroid", "matroid_from_json", "matroid.build"),
    ("bouquetdet.matroid", "bouquet_from_json", "matroid.build"),
    ("bouquetdet.matroid", "flat_lattice", "matroid.flats"),
    ("bouquetdet.matroid", "bouquet_flat_poset", "matroid.flats"),
    ("bouquetdet.com", "validate_com", "com.validate"),
    ("bouquetdet.com", "zero_set_poset", "com.zero_set"),
    ("bouquetdet.polyring", "Polynomial.exact_div", "polyring.exact_div"),
    ("bouquetdet.polyring", "Polynomial.to_string", "polyring.to_string"),
]

# Per-layer metric -> the span whose self time it sums; the counters are
# filled by `_count`, except cli.output_bytes, which the caller adds.
SELF_TIMES = {
    "polyring.exact_div_s": "polyring.exact_div",
    "polyring.to_string_s": "polyring.to_string",
    "determinant.bareiss_s": "determinant.bareiss",
    "determinant.rhs_s": "determinant.rhs",
    "determinant.verify_self_s": "determinant.verify",
    "chains.matrix_s": "chains.matrix",
    "chains.neat_s": "chains.neat",
    "poset.build_s": "poset.build",
    "poset.is_bouquet_s": "poset.is_bouquet",
    "poset.invariants_s": "poset.invariants",
    "matroid.build_s": "matroid.build",
    "matroid.flats_s": "matroid.flats",
    "com.validate_s": "com.validate",
    "com.zero_set_s": "com.zero_set",
    "cli.self_s": "cli.main",
}
COUNTS = ["polyring.exact_div_calls", "polyring.det_terms", "polyring.rhs_terms",
          "polyring.coeff_bits", "determinant.blocks", "determinant.block_dim_max",
          "determinant.rhs_calls", "chains.dim", "chains.generators",
          "poset.is_bouquet_calls", "poset.elements", "matroid.flats",
          "com.covectors", "cli.output_bytes"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 at the top
    pass_id: int


@dataclass
class Tracer:
    """Records spans and counters while installed; see module docstring."""
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, int]] = field(default_factory=lambda: defaultdict(
        lambda: defaultdict(int)))
    pass_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, attr))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.pass_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, span: str, attr: str):
        def wrapper(*args, **kwargs):
            if span:
                result = self.call(span, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            _count(self.counts[self.pass_id], attr, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def per_layer(self, pass_id: int) -> dict[str, float]:
        """Self time per layer and counters of one pass."""
        durations = [s.end - s.start for s in self.spans]
        own = list(durations)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                own[s.parent] -= durations[i]
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.pass_id == pass_id:
                self_s[s.name] += own[i]
        out = {metric: self_s[span] for metric, span in SELF_TIMES.items()}
        out.update({name: self.counts[pass_id][name] for name in COUNTS})
        return out

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _terms(p) -> dict:
    return p.terms if p is not None else {}


def _count(counts: dict[str, int], attr: str, result) -> None:
    """Add the size counters a wrapped call's result carries."""
    def bits(poly_terms: dict) -> None:
        if poly_terms:
            top = max(abs(c) for c in poly_terms.values()).bit_length()
            counts["polyring.coeff_bits"] = max(counts["polyring.coeff_bits"], top)

    if attr == "verify_theorem":
        det = _terms(result.determinant)
        counts["polyring.det_terms"] += len(det)
        bits(det)
    elif attr == "rhs_product":
        rhs = _terms(result[0])
        counts["determinant.rhs_calls"] += 1
        counts["polyring.rhs_terms"] += len(rhs)
        bits(rhs)
    elif attr == "exact_div":
        counts["polyring.exact_div_calls"] += 1
    elif attr == "block_decompose":
        counts["determinant.blocks"] += len(result)
        top = max((len(b) for _, b in result), default=0)
        counts["determinant.block_dim_max"] = max(counts["determinant.block_dim_max"], top)
    elif attr == "chain_matrix":
        counts["chains.dim"] += result.dim
    elif attr == "generators":
        counts["chains.generators"] += len(result)
    elif attr == "is_bouquet":
        counts["poset.is_bouquet_calls"] += 1
    elif attr in ("flat_lattice", "bouquet_flat_poset"):
        counts["matroid.flats"] += len(result[1])
        counts["poset.elements"] += len(result[0].elements)
    elif attr == "zero_set_poset":
        counts["poset.elements"] += len(result[0].elements)
    elif attr == "validate_com":
        counts["com.covectors"] += len(result.covectors)
