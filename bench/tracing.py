"""Spans around the public functions of each layer of `oddharmonic`.

`Tracer.install` replaces every public function of the six layer modules
at *every* module attribute that names it (`certificates.harmonic_sum` as
well as `sums.harmonic_sum`, since the modules import names directly),
plus `Certificate.to_json`.  Each call records one span: name, start,
end, parent span and the id of the benchmark item it belongs to.  Spans
are kept in flat integer arrays in memory; `layer_metrics` turns the
spans of one pass into the per-layer numbers.

The wrappers live in the benchmark only; the program is not changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

LAYERS = ("cli", "certificates", "sums", "exact", "primes", "hyper")
KINDS = ("TrivialInteger", "StarValuation", "WindowValuation", "DepthBound",
         "MagnitudeBound", "LargeS1Bound", "DirectNonInteger")
VERIFY = ("certificates.verify_odd_noninteger", "certificates.verify_star_noninteger")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.items = array("q")
        self.stack: list[int] = []
        self.item = 0
        self.result_bits = 0
        self.kinds: Counter = Counter()
        self.active = True

    def _name_id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self.stack
        names, starts, ends = self.name_ids, self.starts, self.ends
        parents, items = self.parents, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_bits(self, value) -> None:
        self.result_bits += value.numerator.bit_length() + value.denominator.bit_length()

    def _count_kind(self, cert) -> None:
        self.kinds[cert.kind] += 1

    def install(self, package) -> None:
        """Wrap the public functions of every layer of `package`."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        hooks = {"sums.harmonic_sum": self._count_bits,
                 "certificates.verify_odd_noninteger": self._count_kind,
                 "certificates.verify_star_noninteger": self._count_kind}
        for layer in modules[1:]:
            short = layer.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(layer).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != layer.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, obj, hooks.get(name))
                for module in modules:
                    for other, val in list(vars(module).items()):
                        if val is obj:
                            setattr(module, other, wrapper)
        cert_cls = modules[0].certificates.Certificate
        cert_cls.to_json = self.wrap("certificates.to_json", cert_cls.to_json)

    def export(self) -> dict:
        """The spans and counters of this process, for pickling."""
        return {"names": self.names, "name_ids": self.name_ids, "starts": self.starts,
                "ends": self.ends, "parents": self.parents, "items": self.items,
                "result_bits": self.result_bits, "kinds": dict(self.kinds)}


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer counts and times (seconds) of one traced pass."""
    names = spans["names"]
    name_ids, starts, ends = spans["name_ids"], spans["starts"], spans["ends"]
    parents = spans["parents"]
    count = len(starts)
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    span_name = [names[i] for i in name_ids]
    span_layer = [layer_bit[nm.split(".", 1)[0]] for nm in span_name]
    is_verify = [nm in VERIFY for nm in span_name]

    dur = [ends[i] - starts[i] for i in range(count)]
    child = [0] * count
    above = [0] * count        # layers of the span's ancestors, as bits
    in_verify = [False] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
            above[i] = above[p] | span_layer[p]
            in_verify[i] = in_verify[p] or is_verify[p]

    calls: Counter = Counter()
    total: Counter = Counter()
    self_ns: Counter = Counter()
    layer_busy: Counter = Counter()
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    evals_in_verify = 0
    for i in range(count):
        nm, bit = span_name[i], span_layer[i]
        own = dur[i] - child[i]
        calls[nm] += 1
        total[nm] += dur[i]
        self_ns[nm] += own
        layer_calls[bit] += 1
        layer_self[bit] += own
        if not above[i] & bit:
            layer_busy[bit] += dur[i]
        if nm == "sums.harmonic_sum" and in_verify[i]:
            evals_in_verify += 1

    s = 1e-9
    verify_calls = sum(calls[v] for v in VERIFY)
    out = {
        "sums.harmonic_sum_calls": calls["sums.harmonic_sum"],
        "sums.harmonic_sum_s": total["sums.harmonic_sum"] * s,
        "sums.result_bits": spans["result_bits"],
        "exact.valuation_calls": calls["exact.padic_valuation"],
        "exact.valuation_s": total["exact.padic_valuation"] * s,
        "certificates.verify_calls": verify_calls,
        "certificates.verify_s": sum(total[v] for v in VERIFY) * s,
        "certificates.verify_self_s": sum(self_ns[v] for v in VERIFY) * s,
        "certificates.evals_per_cert": evals_in_verify / verify_calls if verify_calls else 0.0,
        "certificates.depth_threshold_s": total["certificates.depth_threshold_holds"] * s,
        "certificates.leading_exponent_s": total["certificates.leading_exponent_bound"] * s,
        "certificates.to_json_s": total["certificates.to_json"] * s,
        "primes.calls": layer_calls[layer_bit["primes"]],
        "primes.s": layer_busy[layer_bit["primes"]] * s,
        "hyper.pfq_calls": calls["hyper.pfq"],
        "hyper.pfq_s": total["hyper.pfq"] * s,
        "hyper.binomial_sum_self_s": self_ns["hyper.alternating_binomial_sum"] * s,
        "cli.main_s": total["cli.main"] * s,
        "cli.self_s": self_ns["cli.main"] * s,
    }
    for kind in KINDS:
        out[f"certificates.kind.{kind}"] = spans["kinds"].get(kind, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer_bit[layer]] * s
    out["trace.spans"] = count
    return out


def unit_of(name: str) -> str:
    if name in ("certificates.evals_per_cert", "trace.overhead_ratio"):
        return "ratio"
    if name == "sums.result_bits":
        return "bit"
    if name.endswith("calls") or ".kind." in name or name == "trace.spans":
        return "count"
    return "s"


def write_spans(path, spans: dict) -> None:
    """One CSV line per span, times in ns from the pass's first span."""
    names = spans["names"]
    starts = spans["starts"]
    t0 = min(starts) if len(starts) else 0
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id,parent,item,name,start_ns,end_ns\n")
        for i in range(len(starts)):
            fh.write(f"{i},{spans['parents'][i]},{spans['items'][i]},"
                     f"{names[spans['name_ids'][i]]},{starts[i] - t0},"
                     f"{spans['ends'][i] - t0}\n")
