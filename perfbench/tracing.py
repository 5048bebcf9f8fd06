"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions at the names where another
module looks them up (``loxgrow.freebasis.word_length_in_S`` is the name
``_compute_kappa`` calls), so no file of the program changes. Spans are
(name, start, end, parent) rows kept in memory; the run writes them out
when it ends. Backend methods get counters only, because they run millions
of times.
"""

import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.engine_tags = Counter()  # GrowthTable.engine per ball_sizes call
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.engine_tags = Counter()
        self._stack = []

    # -- recording ------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        row = [name, _now(), None, parent]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            row[2] = _now()

    def _span_wrapper(self, name, fn, on_result=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            try:
                result = tracer.call(name, fn, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span_at(self, module, attr, name, on_result=None, on_error=None):
        self._patch(module, attr,
                    self._span_wrapper(name, getattr(module, attr), on_result, on_error))

    def count_at(self, owner, attr, key):
        self._patch(owner, attr, self._count_wrapper(key, owner.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self, kernel_available):
        """Wrap the cross-module calls of every layer of ``loxgrow``."""
        import loxgrow.cli as cli
        import loxgrow.freebasis as fb
        import loxgrow.hypcore as hyp
        from loxgrow.errors import NoLoxodromicFound
        from loxgrow.growth import _engine_py, engine
        from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
        from loxgrow.spaces.base import Backend

        c = self.counts

        def ball_result(table):
            c["growth.elements"] += table.balls[-1]
            self.engine_tags[table.engine] += 1

        def kappa_result(d):
            c["words.word_length_in_S_calls"] += 1
            c["words.word_length_in_S_found"] += d is not None

        def kappa_error(exc):
            c["words.word_length_in_S_calls"] += 1

        def ball_set_result(S):
            c["words.product_ball_set_elements"] += len(S)

        def geometric_result(chk):
            c["freebasis.certify_free_geometric_calls"] += 1
            c["freebasis.certify_free_geometric_valid"] += bool(chk.valid)

        def geometric_error(exc):
            c["freebasis.certify_free_geometric_calls"] += 1

        def basepoints_result(pts):
            c["spaces.basepoint_candidates_calls"] += 1

        def lox_error(exc):
            if isinstance(exc, NoLoxodromicFound):
                c["freebasis.find_short_loxodromic_misses"] += 1

        sites = [
            (cli, "load_config", "cli.load_config", None, None),
            (cli, "verify_theorem", "freebasis.verify_theorem", None, None),
            (cli, "ball_sizes", "growth.ball_sizes", ball_result, None),
            (cli, "build_free_basis", "freebasis.build_free_basis", None, None),
            (cli, "find_short_loxodromic", "freebasis.find_short_loxodromic", None, lox_error),
            (cli, "product_ball_set", "words.product_ball_set", ball_set_result, None),
            (cli, "check_certificate", "freebasis.check_certificate", None, None),
            (cli, "estimate_delta", "hypcore.estimate_delta", None, None),
            (fb, "ball_sizes", "growth.ball_sizes", ball_result, None),
            (fb, "word_length_in_S", "words.word_length_in_S", kappa_result, kappa_error),
            (fb, "product_ball_set", "words.product_ball_set", ball_set_result, None),
            (fb, "certify_free_geometric", "freebasis.certify_free_geometric",
             geometric_result, geometric_error),
            (fb, "certify_free_exact", "freebasis.certify_free_exact", None, None),
            (fb, "basepoint_candidates", "spaces.basepoint_candidates", basepoints_result, None),
            (fb, "find_short_loxodromic", "freebasis.find_short_loxodromic", None, lox_error),
            (fb, "find_independent", "freebasis.find_independent", None, None),
            (fb, "build_free_basis", "freebasis.build_free_basis", None, None),
            (fb, "min_displacement_search", "hypcore.min_displacement_search", None, None),
            (fb, "estimate_delta", "hypcore.estimate_delta", None, None),
            (hyp, "basepoint_candidates", "spaces.basepoint_candidates", basepoints_result, None),
            (_engine_py, "generic_ball_counts", "growth.generic", None, None),
        ]
        for fn_name in ("free_ball_counts", "product_ball_counts", "matrix_ball_counts"):
            sites.append((_engine_py, fn_name, "growth.engine_python", None, None))
            if kernel_available:
                sites.append((engine._kernel, fn_name, "growth.engine_kernel", None, None))
        for module, attr, name, on_result, on_error in sites:
            self.span_at(module, attr, name, on_result, on_error)

        self.count_at(fb, "gromov_product", "hypcore.gromov_product_calls")
        self.count_at(hyp, "gromov_product", "hypcore.gromov_product_calls")
        self.count_at(Backend, "compose", "spaces.compose_calls")
        for cls in (FreeGroupTree, FreeProductTree, HalfPlane):
            self.count_at(cls, "apply", "spaces.apply_calls")
            self.count_at(cls, "dist", "spaces.dist_calls")

    # -- summaries ------------------------------------------------------------

    def times(self):
        """(inclusive, self) seconds per span name.

        Self time is a span's duration minus its children's durations; the
        program is single-threaded, so children never overlap.
        """
        total = defaultdict(float)
        own = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
        return dict(total), dict(own)
