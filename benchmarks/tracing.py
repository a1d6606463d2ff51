"""Per-layer spans and counters, recorded from outside the program.

install() replaces public functions of the eulab modules with wrappers,
in every module namespace that calls them, so calls between modules pass
through the wrappers too.  A timed wrapper records a span: its duration,
and the part of it covered by timed spans it encloses, so a layer's self
time is the difference.  A counted wrapper only counts calls; it is used
where calls are too frequent to time without distorting the run.
Spans are kept in memory and reported when the session ends.  The
program's files are not touched.
"""

from __future__ import annotations

import time


class Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # child time accumulated by each open span, innermost last
        self._open: list[float] = []
        self.caches: dict[str, object] = {}

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def timed(self, name: str, fn):
        stat = self._stat(name)
        opened = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total += elapsed
                stat.child += opened.pop()
                if opened:
                    opened[-1] += elapsed

        return span

    def counted(self, name: str, fn):
        stat = self._stat(name)

        def count(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return count

    def report(self) -> dict:
        out = {name: {"calls": s.calls, "total": s.total,
                      "self": s.total - s.child}
               for name, s in self.stats.items()}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[name + ".cache"] = {"hits": info.hits, "misses": info.misses}
        return out


def _patch(modules, original, attr: str, wrapper) -> None:
    """Rebind attr to wrapper wherever a module holds the original."""
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap the layer boundaries of an imported eulab and return the
    tracer that collects their spans and counts."""
    import eulab
    import eulab.bounds as bounds
    import eulab.cli as cli
    import eulab.core as core
    import eulab.factor as factor
    import eulab.polyprod as polyprod
    import eulab.search as search

    tracer = Tracer()
    every = (eulab, core, factor, bounds, search, polyprod, cli)

    tracer.caches["factor.rational"] = factor.factor_rational
    tracer.caches["factor.e"] = factor.factor_e

    def timed(owner, attr, name):
        original = getattr(owner, attr)
        _patch(every, original, attr, tracer.timed(name, original))

    def counted(owner, attr, name):
        original = getattr(owner, attr)
        _patch(every, original, attr, tracer.counted(name, original))

    timed(factor, "factor_rational", "factor.rational")
    timed(factor, "factor_e", "factor.e")
    timed(core, "gcd", "core.gcd")
    for attr in ("divides", "exact_div", "valuation"):
        counted(core, attr, f"core.{attr}")
    core.ResidueRing.reduce = tracer.counted("core.residue_ring.reduce",
                                             core.ResidueRing.reduce)

    # refine_t1 splits through the private _uv_split; wrapping it keeps
    # the additive chain's splits inside bounds.split.
    for attr in ("coset_split", "valuation_split", "_uv_split"):
        timed(bounds, attr, "bounds.split")
    for attr in ("three_coloring", "uv_coloring"):
        timed(bounds, attr, "bounds.coloring")
    for attr in ("refine_t1", "refine_t2"):
        timed(bounds, attr, f"bounds.{attr}")
    for attr, token in (("verify_t1", "t1"), ("verify_t2", "t2"),
                        ("verify_cor1", "cor1"), ("verify_cor2", "cor2"),
                        ("verify_rho_minus1", "rho-minus1"),
                        ("verify_erdos_turan", "erdos-turan")):
        timed(bounds, attr, f"bounds.trial.{token}")
    for attr in ("omega_product", "check_independence"):
        timed(polyprod, attr, f"polyprod.{attr}")
    counted(polyprod, "integer_determinant", "polyprod.determinants")
    timed(search, "run_search", "search.run_search")
    timed(cli, "main", "cli.main")
    return tracer
