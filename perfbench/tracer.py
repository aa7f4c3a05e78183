"""Layer tracing from outside the package, and the per-layer metrics.

Run as a script, this is the traced stand-in for ``python -m steinberg_ext``:

    python3 perfbench/tracer.py SPANS_FILE OP_ID -- <steinberg-ext argv>

It wraps the public functions of every layer module, rebinding each name in
every package module that imported it, runs the CLI, restores the originals,
and writes the spans it kept in memory to SPANS_FILE.  Stdout and the exit
code are the CLI's own.  A span is ``[name, start_ns, end_ns, parent, attrs]``
and the file records the op id once for all of them.

Imported, it turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rootdata", "weyl", "ringcond", "homology", "extengine", "cli")

# Helpers called per root or per group element: a span each would cost more
# than the work it measures.
HOT = {
    "weyl": {"compose_images"},
    "rootdata": {"full_mask", "mask_from_indices", "mask_indices", "mask_size", "mask_str",
                 "validate_mask", "support_mask", "add_coords", "zero_coords",
                 "cofundamental_pairing"},
}

# (module, class, method) wrapped in place on the class.
METHODS = (("homology", "IntMatrix", "mul"),)


# ---------------------------------------------------------------------------
# probes: small facts recorded on a span after the call returns


def _rank_key(rs) -> str:
    return f"{rs.series}{rs.rank}"


def _probe_mul(originals, args, kwargs, result):
    a, b = args
    return [a.rows * a.cols * b.cols]


def _probe_snf(originals, args, kwargs, result):
    m = args[0]
    return [m.rows * m.cols, sum(1 for x in m.entries if x), max(m.rows, m.cols)]


def _probe_complex(originals, args, kwargs, result):
    return [sum(result.ranks)]


def _probe_row(originals, args, kwargs, result):
    rs, bottom, t = args
    return [_rank_key(rs), bottom, t]


def _probe_coefficients(originals, args, kwargs, result):
    return [args[1].d]


def _probe_kostant(originals, args, kwargs, result):
    rs, I, J = args[:3]
    elements = args[3] if len(args) > 3 else kwargs.get("elements")
    # both calls hit the lru_cache kostant_reps itself filled
    order = len(elements) if elements is not None else len(originals["weyl.generate_weyl"](rs))
    parabolic = originals["weyl.parabolic_subgroup"]
    products = len(result) * len(parabolic(rs, I)) * len(parabolic(rs, J))
    return [_rank_key(rs), I, J, len(result), products, order]


def _probe_generate(originals, args, kwargs, result):
    return [_rank_key(args[0]), len(result)]


def _probe_cache_load(originals, args, kwargs, result):
    if result is None:
        return [False, 0]
    rs, cache_dir = args
    path = originals["weyl.weyl_cache_path"](cache_dir, rs.series, rs.rank)
    return [True, os.path.getsize(path)]


def _probe_cache_save(originals, args, kwargs, result):
    return [os.path.getsize(result)]


def _probe_is_unit(originals, args, kwargs, result):
    return [bool(result)]


def _probe_certificate(originals, args, kwargs, result):
    return [None if result is None else result.branch]


def _probe_table(originals, args, kwargs, result):
    method = args[4] if len(args) > 4 else kwargs.get("method", "closed_form")
    return [method, bool(result.outside_hypotheses)]


def _probe_strata(originals, args, kwargs, result):
    return ["strata", bool(result.outside_hypotheses)]


PROBES = {
    "homology.IntMatrix.mul": _probe_mul,
    "homology.smith_normal_form": _probe_snf,
    "homology.subset_lattice_complex": _probe_complex,
    "homology.exterior_row_complex": _probe_row,
    "homology.homology_with_coefficients": _probe_coefficients,
    "weyl.kostant_reps": _probe_kostant,
    "weyl.generate_weyl": _probe_generate,
    "weyl.load_weyl_cache": _probe_cache_load,
    "weyl.save_weyl_cache": _probe_cache_save,
    "ringcond.is_unit": _probe_is_unit,
    "extengine.vanishing_certificate": _probe_certificate,
    "extengine.ext_steinberg": _probe_table,
    "extengine.ext_v_to_induced": _probe_table,
    "extengine.cohomology_v": _probe_table,
    "extengine.ext_induced_via_strata": _probe_strata,
}


# ---------------------------------------------------------------------------
# wrapping


class Tracer:
    """Wraps the layer functions of an imported ``steinberg_ext`` and keeps
    one span per call in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.originals: dict[str, object] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe, originals = PROBES.get(name), self.originals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                record[4] = probe(originals, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"steinberg_ext.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or attr in HOT.get(layer, ())):
                    continue
                self.originals[f"{layer}.{attr}"] = obj
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        originals = {id(fn): fn for fn in self.originals.values()}
        for modname, module in list(sys.modules.items()):
            if modname != "steinberg_ext" and not modname.startswith("steinberg_ext."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and originals.get(id(obj)) is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"steinberg_ext.{layer}"), cls_name)
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str, op_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"op": op_id, "spans": self.spans}, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE OP_ID -- <steinberg-ext argv>")
    from steinberg_ext import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.parse_and_dispatch(cli_argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        tracer.write(spans_path, op_id)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from span files

# Per-layer metrics that read 0 on a workload whose layer is idle (the Weyl
# layer on sweep-q, the cache outside exceptional-queries).  They are in the
# full report but not in the metrics the benchmark declares.
IDLE_TIMES = ("weyl.self_s", "weyl.kostant_s", "weyl.exponents_s", "weyl.parabolic_s",
              "weyl.generate_s", "weyl.cache_load_s", "weyl.cache_save_s", "rootdata.levi_s")


class LayerStats:
    """Accumulates the spans of many traced ops."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()   # function name -> self time
        self.calls: Counter = Counter()
        self.count: Counter = Counter()     # derived counters
        self.maxima: Counter = Counter()
        self.spans = 0
        self._rows = [0, 0]      # distinct, all exterior_row_complex calls
        self._kostant = [0, 0]   # distinct, all kostant_reps calls

    def add_file(self, path: str) -> None:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        rows, kostant, generated = set(), set(), set()
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            self.self_ns[name] += end - start - child_ns[i]
            self.calls[name] += 1
            if attrs is not None:
                self._count(name, attrs, rows, kostant, generated)
        self.spans += len(spans)
        self._rows[0] += len(rows)
        self._kostant[0] += len(kostant)

    def _count(self, name, attrs, rows, kostant, generated) -> None:
        c, mx = self.count, self.maxima
        if name == "homology.IntMatrix.mul":
            c["dd_mults"] += attrs[0]
        elif name == "homology.smith_normal_form":
            c["snf_entries"] += attrs[0]
            c["snf_nonzeros"] += attrs[1]
            mx["snf_max_dim"] = max(mx["snf_max_dim"], attrs[2])
        elif name == "homology.subset_lattice_complex":
            mx["complex_max_rank"] = max(mx["complex_max_rank"], attrs[0])
        elif name == "homology.exterior_row_complex":
            rows.add(tuple(attrs))
            self._rows[1] += 1
        elif name == "homology.homology_with_coefficients":
            c["coeff_calls_zd"] += attrs[0] != 0
        elif name == "weyl.kostant_reps":
            kostant.add(tuple(attrs[:3]))
            self._kostant[1] += 1
            c["reps"] += attrs[3]
            c["coset_products"] += attrs[4]
            c["coset_base"] += attrs[5]
        elif name == "weyl.generate_weyl":
            if attrs[0] not in generated:  # later calls are lru_cache hits
                generated.add(attrs[0])
                c["elements"] += attrs[1]
        elif name == "weyl.load_weyl_cache":
            c["cache_hits" if attrs[0] else "cache_misses"] += 1
            c["cache_bytes"] += attrs[1]
        elif name == "weyl.save_weyl_cache":
            c["cache_bytes"] += attrs[0]
        elif name == "ringcond.is_unit":
            c["nonunits"] += not attrs[0]
        elif name == "extengine.vanishing_certificate":
            if attrs[0] is not None:
                c[f"certificates_{attrs[0]}"] += 1
        elif name.startswith("extengine."):
            c["tables_built"] += attrs[0] != "closed_form"
            c["outside_hypotheses"] += attrs[1]

    def _self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def _layer_s(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(ns for n, ns in self.self_ns.items()
                   if n.startswith(layer + ".") and n not in exclude) / 1e9

    def report(self, stdout_bytes: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, by name."""
        c, calls = self.count, self.calls
        levi = ("rootdata.levi_root_indices", "rootdata.levi_positive_roots")
        builders = ("homology.subset_lattice_complex", "homology.exterior_row_complex",
                    "homology.lattice_degrees")
        return {
            "homology.self_s": self._layer_s("homology"),
            "homology.dd_s": self._self_s("homology.IntMatrix.mul"),
            "homology.dd_mults": c["dd_mults"],
            "homology.snf_s": self._self_s("homology.smith_normal_form"),
            "homology.snf_calls": calls["homology.smith_normal_form"],
            "homology.snf_entries": c["snf_entries"],
            "homology.snf_nonzeros": c["snf_nonzeros"],
            "homology.snf_max_dim": self.maxima["snf_max_dim"],
            "homology.build_s": self._self_s(*builders),
            "homology.reverse_transpose_s": self._self_s("homology.reverse_transpose"),
            "homology.complexes": calls["homology.subset_lattice_complex"],
            "homology.complex_max_rank": self.maxima["complex_max_rank"],
            "homology.row_unique_ratio": _ratio(*self._rows),
            "homology.coeff_s": self._self_s("homology.homology_with_coefficients"),
            "homology.coeff_calls_zd": c["coeff_calls_zd"],
            "weyl.self_s": self._layer_s("weyl"),
            "weyl.kostant_s": self._self_s("weyl.kostant_reps", "weyl.intersect_levi"),
            "weyl.kostant_calls": calls["weyl.kostant_reps"],
            "weyl.reps": c["reps"],
            "weyl.exponents_s": self._self_s("weyl.gamma_exponents", "weyl.delta_exponents"),
            "weyl.parabolic_s": self._self_s("weyl.parabolic_subgroup"),
            "weyl.coset_products": c["coset_products"],
            "weyl.coset_base": c["coset_base"],
            "weyl.kostant_unique_ratio": _ratio(*self._kostant),
            "weyl.generate_s": self._self_s("weyl.generate_weyl"),
            "weyl.elements": c["elements"],
            "weyl.cache_load_s": self._self_s("weyl.load_weyl_cache"),
            "weyl.cache_save_s": self._self_s("weyl.save_weyl_cache"),
            "weyl.cache_hits": c["cache_hits"],
            "weyl.cache_misses": c["cache_misses"],
            "weyl.cache_bytes": c["cache_bytes"],
            "rootdata.build_s": self._layer_s("rootdata", exclude=levi),
            "rootdata.levi_calls": sum(calls[n] for n in levi),
            "rootdata.levi_s": self._self_s(*levi),
            "ringcond.check_ring_calls": calls["ringcond.check_ring"],
            "ringcond.check_ring_s": self._layer_s("ringcond"),
            "ringcond.is_unit_calls": calls["ringcond.is_unit"],
            "ringcond.nonunits": c["nonunits"],
            "extengine.self_s": self._layer_s("extengine"),
            "extengine.tables_built": c["tables_built"],
            "extengine.strata_calls": calls["extengine.ext_induced_via_strata"],
            "extengine.certificates_gamma": c["certificates_gamma"],
            "extengine.certificates_delta": c["certificates_delta"],
            "extengine.outside_hypotheses": c["outside_hypotheses"],
            "cli.self_s": self._layer_s("cli"),
            "cli.stdout_bytes": stdout_bytes,
            "trace.spans": self.spans,
            "trace.overhead_s": overhead_s,
        }

    def shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the time inside the CLI."""
        total = sum(self.self_ns.values()) or 1
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / total
        return dict(out)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 1.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
