"""Outside-in tracing: spans around the calls into each spuncalc layer.

The tracer replaces each listed public function in every spuncalc module
namespace that binds it (``lens.min_structured_det`` is the same object as
``homology.min_structured_det``), and each listed method on its class.
Every call becomes a span (job id, name, start, end, parent span); a
layer's self time is its spans' durations minus the time covered by their
child spans. Counters (word incidences, matrix orders, factor bit-lengths)
are computed after the wrapped call returns and booked as a bookkeeping
child span, so they are charged to no layer.

A listed name that no longer exists raises ``MissingTarget``: a rename in
the program must read as a benchmark error, never as a zero.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "planar", "fourman", "homology", "surgery", "lens", "spun", "pi1", "corpus")


class MissingTarget(RuntimeError):
    pass


def _incidences(word) -> int:
    total = 0
    for gen, _ in word.letters:
        curve = getattr(gen, "curve", None)
        if curve is not None:
            total += len(curve.enclosed)
        else:  # push: expands to the curve and the curve plus the boundary
            total += 2 * len(gen.around.enclosed) + 1
    return total


# counter callbacks: (tracer, args, kwargs, result) -> None
def _count_open_book(t, args, kwargs, result):
    t.add("lens.open_book.incidences", _incidences(result[1]))


def _count_vectors(t, args, kwargs, result):
    t.add("planar.vectors.incidences", _incidences(args[0]))


def _count_matrix(t, args, kwargs, result):
    t.add("homology.matrix_build.entries", args[0].size ** 2)


def _count_det(t, args, kwargs, result):
    t.high("homology.det.max_order", len(getattr(args[0], "rows", args[0])))


def _count_smith(t, args, kwargs, result):
    entries = args[0]
    t.high("homology.smith.max_order", max(len(entries), len(entries[0]) if entries else 0))
    t.high("homology.smith.max_factor_bits", max((abs(d).bit_length() for d in result), default=0))


def _count_reconcile(t, args, kwargs, result):
    t.add("lens.reconcile.agree", int(result.agree))


def _count_parse_word(t, args, kwargs, result):
    t.add("planar.parse.letters", len(result.letters))


def _count_parse_diagram(t, args, kwargs, result):
    t.job_note["initial_letters"] = len(result.braid_word)


def _count_export(t, args, kwargs, result):
    t.job_note["final_letters"] = len(args[0].braid_word)


# (metric group, module, attribute or "Class.method", counter)
TARGETS = [
    ("cli", "cli", "main", None),
    ("planar.parse", "planar", "load_word", _count_parse_word),
    ("planar.vectors", "planar", "exponent_vector", _count_vectors),
    ("planar.vectors", "planar", "parity_vector", None),
    ("planar.format", "planar", "word_to_json", None),
    ("planar.format", "planar", "word_to_text", None),
    ("fourman", "fourman", "evaluate_open_book", None),
    ("fourman", "fourman", "normalize", None),
    ("fourman", "fourman", "equal", None),
    ("fourman", "fourman", "twist_image", None),
    ("fourman", "fourman", "boundary_sphere_images", None),
    ("fourman", "fourman", "z2_sum", None),
    ("homology.matrix_build", "homology", "LinkingMatrix.__post_init__", _count_matrix),
    ("homology.det", "homology", "det", _count_det),
    ("homology.min_structured_det", "homology", "min_structured_det", None),
    ("homology.smith", "homology", "smith_diagonal", _count_smith),
    ("homology.cokernel", "homology", "cokernel_invariants", None),
    ("surgery.parse", "surgery", "parse_diagram", _count_parse_diagram),
    ("surgery.linking", "surgery", "FramedBraidDiagram.linking", None),
    ("surgery.move", "surgery", "blow_up", None),
    ("surgery.move", "surgery", "blow_down", None),
    ("surgery.move", "surgery", "rolfsen_twist", None),
    ("surgery.linking_matrix", "surgery", "linking_matrix", None),
    ("surgery.h1", "surgery", "h1_invariants", None),
    ("surgery.export", "surgery", "to_planar_open_book", _count_export),
    ("lens.expand", "lens", "cf_expand", None),
    ("lens.expand", "lens", "cf_eval", None),
    ("lens.slid", "lens", "slid_diagram", None),
    ("lens.slid", "lens", "SlidLensDiagram.linking_det", None),
    ("lens.plumbing", "lens", "plumbing_matrix", None),
    ("lens.open_book", "lens", "lens_open_book", _count_open_book),
    ("lens.reconcile", "lens", "reconcile", _count_reconcile),
    ("lens.target", "lens", "lens_embedding_target", None),
    ("lens.target", "lens", "psi_parity", None),
    ("spun.embed", "spun", "embedding_target", None),
    ("spun.s4", "spun", "s4_parities", None),
    ("pi1.parse", "pi1", "parse_presentation", None),
    ("pi1.roundtrip", "pi1", "page_for_presentation", None),
    ("pi1.roundtrip", "pi1", "pi1_of_open_book", None),
    ("pi1.roundtrip", "pi1", "free_reduce", None),
    ("pi1.abelianization", "pi1", "abelianization", None),
    ("corpus.run", "corpus", "run_corpus", None),
]

GROUPS = sorted({g for g, *_ in TARGETS})
BOOKKEEPING = "<bookkeeping>"


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() restores.

    The process that runs a job calls begin_job() and end_job(); end_job()
    turns the job's spans into totals, which the process that collects
    the results feeds to absorb(). summary() gives per-job figures.
    """

    def __init__(self) -> None:
        self.names = [BOOKKEEPING] + [group for group, *_ in TARGETS]
        # one tuple per span: (job, name index, start ns, end ns, parent, raised)
        self.spans: list = []  # None while the call is still running
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.highs: dict[str, int] = defaultdict(int)
        self.job_note: dict[str, int] = {}
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.growth: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def high(self, key: str, n: int) -> None:
        if n > self.highs[key]:
            self.highs[key] = n

    def begin_job(self, job: int) -> None:
        self.job = job
        self.job_note = {}

    def end_job(self) -> dict:
        """Self time, calls, errors and counters of the job just run."""
        child = [0] * len(self.spans)
        for job, name_idx, t0, t1, parent, raised in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        for idx, (job, name_idx, t0, t1, parent, raised) in enumerate(self.spans):
            if name_idx == 0:
                continue
            name = self.names[name_idx]
            self_ns[name] += (t1 - t0) - child[idx]
            calls[name] += 1
            if raised:
                errors[name.split(".")[0]] += 1
        note = self.job_note
        growth = (note["final_letters"] / note["initial_letters"]
                  if note.get("initial_letters") and "final_letters" in note else None)
        totals = {"self_ns": self_ns, "calls": calls, "errors": errors,
                  "counts": dict(self.counts), "highs": dict(self.highs), "growth": growth}
        self.spans.clear()
        self.counts.clear()
        self.highs.clear()
        return totals

    def absorb(self, totals: dict) -> None:
        for key in ("self_ns", "calls", "errors", "counts"):
            mine = getattr(self, key)
            for name, n in totals[key].items():
                mine[name] += n
        for name, n in totals["highs"].items():
            self.high(name, n)
        if totals["growth"] is not None:
            self.growth.append(totals["growth"])

    def _wrap(self, fn, name_idx: int, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.job, name_idx, t0, t1, parent, raised)
            if counter is not None:
                c0 = perf_counter_ns()
                counter(self, args, kwargs, result)
                spans.append((self.job, 0, c0, perf_counter_ns(), parent, False))
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "spuncalc" or name.startswith("spuncalc."))}
        for name_idx, (group, modname, attr, counter) in enumerate(TARGETS, start=1):
            mod = modules.get(f"spuncalc.{modname}")
            if mod is None:
                raise MissingTarget(f"module spuncalc.{modname} is not loaded")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if not callable(original):
                    raise MissingTarget(f"spuncalc.{modname}.{attr} not found")
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name_idx, counter))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                raise MissingTarget(f"spuncalc.{modname}.{attr} not found")
            wrapped = self._wrap(original, name_idx, counter)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-job means of self time, calls and counters; maxima as such."""
        self_ns, calls, errors = self.self_ns, self.calls, self.errors
        n = max(jobs, 1)
        out: dict[str, float] = {}
        for group in GROUPS:
            out[f"{group}.self_s"] = self_ns[group] / 1e9 / n
        for group in ("lens.open_book", "homology.det", "homology.smith",
                      "surgery.linking", "surgery.move"):
            out[f"{group}.calls"] = calls[group] / n
        for key in ("lens.open_book.incidences", "planar.vectors.incidences",
                    "homology.matrix_build.entries", "planar.parse.letters"):
            out[key] = self.counts[key] / n
        for key in ("homology.det.max_order", "homology.smith.max_order",
                    "homology.smith.max_factor_bits"):
            out[key] = float(self.highs[key])
        reconciles = calls["lens.reconcile"]
        out["lens.reconcile.agree_ratio"] = (
            self.counts["lens.reconcile.agree"] / reconciles if reconciles else 0.0)
        out["surgery.braid_letters.growth"] = (
            sum(self.growth) / len(self.growth) if self.growth else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(errors[layer])
        return out
