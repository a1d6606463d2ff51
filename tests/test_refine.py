"""End-to-end refinement chains and their recorded traces."""

import math
import random

import pytest

import eulab.bounds as bounds
from eulab.core import EInt, LAMBDA, ONE, OMEGA, UNITS, valuation
from eulab.bounds import (
    SplitRecord, ZeroFactorError, c_constants, phi, random_eint_set,
    refine_t1, refine_t2,
)
from oracles import _power_of_prime

RHOS = [OMEGA, -OMEGA, EInt(2, 1), EInt(-2, -1), EInt(1, 2), -(LAMBDA ** 2)]


def _seeded_sets(seed, count, size, coord_range):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(random_eint_set(rng, size, coord_range))
    return out


def _has_zero_sum(elements, rho):
    return any(not (a + rho * b).norm() for a in elements for b in elements
               if a != b)


class TestRefineT1:
    def test_trace_shape_and_checks(self):
        for elements in _seeded_sets(90210, 12, 10, 25):
            if _has_zero_sum(elements, ONE):
                continue
            trace = refine_t1(elements)
            assert trace.mode == "t1"
            assert trace.initial == elements
            # sector floor: zero may be dropped, then six buckets
            assert len(trace.snapshots[0]) >= math.ceil((len(elements) - 1) / 6)
            sector = trace.sector
            assert all(a.sector_index() == sector for a in trace.snapshots[0])
            for record, before, after in zip(
                    trace.steps, trace.snapshots, trace.snapshots[1:]):
                assert record.rule == "uv"
                assert sum(record.sizes) == len(before)
                assert record.sizes[record.kept] == len(after)
                assert 2 * len(after) >= len(before)
                assert set(after) <= set(before)
            assert trace.checks["valuation_transfer_ok"]

    def test_valuation_transfer_holds_directly(self):
        trace = refine_t1([EInt(1, 0), EInt(3, 0), EInt(5, 0), EInt(9, 0),
                           EInt(2, 1), EInt(4, 2)])
        final = trace.final
        for record in trace.steps:
            pi = record.prime
            for i, a in enumerate(final):
                for b in final[i + 1:]:
                    assert valuation(pi, a + b) == \
                        min(valuation(pi, a), valuation(pi, b))

    def test_zero_is_dropped_not_fatal(self):
        trace = refine_t1([EInt(0, 0), EInt(1, 0), EInt(2, 0)])
        assert all(not a.is_zero() for a in trace.snapshots[0])

    def test_opposite_pair_raises(self):
        with pytest.raises(ZeroFactorError):
            refine_t1([EInt(2, 1), EInt(-2, -1), ONE])

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            refine_t1([ONE])


class TestRefineT2:
    @pytest.mark.parametrize("rho", RHOS)
    def test_checks_hold(self, rho):
        for elements in _seeded_sets(hash(str(rho)) & 0xFFFF, 6, 8, 20):
            if _has_zero_sum(elements, rho):
                continue
            trace = refine_t2(elements, rho)
            assert trace.mode == "t2"
            assert trace.rho == rho
            assert trace.checks["divisibility_transfer_ok"]
            assert trace.checks["phi_count_within_bound"]
            assert trace.checks["phi_all_divide_c_rho"]
            for record, before, after in zip(
                    trace.steps, trace.snapshots, trace.snapshots[1:]):
                assert record.rule in ("lemma2", "lemma4")
                floor = 2 if record.rule == "lemma4" else 3
                assert floor * len(after) >= len(before)
                assert set(after) <= set(before)

    def test_power_rho_uses_lemma4(self):
        rho = -(LAMBDA ** 2)
        elements = [ONE, EInt(2, 0), EInt(4, 0), EInt(5, 0), LAMBDA,
                    EInt(7, 0)]
        trace = refine_t2(elements, rho)
        rules = {r.prime: r.rule for r in trace.steps}
        assert rules[LAMBDA] == "lemma4"
        assert all(rule == "lemma2" for pi, rule in rules.items()
                   if pi != LAMBDA)

    # -rho a prime power for the first four, an associate of one (unit
    # part other than 1) for the next three, a unit for the last
    LEMMA4_RHOS = [-(LAMBDA ** 2), -LAMBDA, EInt(-2, 0), -(EInt(3, 1) ** 3),
                   OMEGA * LAMBDA, -OMEGA * LAMBDA ** 2, EInt(1, 2), OMEGA]

    @pytest.mark.parametrize("rho", LEMMA4_RHOS)
    def test_lemma4_exactly_on_its_prime(self, rho):
        special = _power_of_prime(-rho)
        seen = set()
        for elements in _seeded_sets(f"lemma4:{rho}", 6, 8, 20):
            if _has_zero_sum(elements, rho):
                continue
            for record in refine_t2(elements, rho).steps:
                lemma4 = special is not None and record.prime == special[0]
                assert record.rule == ("lemma4" if lemma4 else "lemma2")
                seen.add(record.prime)
        assert seen and (special is None or special[0] in seen)

    def test_unit_rho_all_lemma2(self):
        trace = refine_t2([ONE, EInt(2, 0), EInt(3, 0), EInt(5, 0)], OMEGA)
        assert trace.steps and all(r.rule == "lemma2" for r in trace.steps)

    def test_phi_values_divide_c_rho(self):
        rho = -OMEGA
        constants = c_constants(rho)
        trace = refine_t2([ONE, EInt(2, 0), EInt(3, 1), EInt(4, 0),
                           EInt(6, 2)], rho)
        final = trace.final
        values = {phi(a, b, rho) for a in final for b in final
                  if not (a.is_zero() and b.is_zero())}
        assert len(values) <= constants.tau
        for v in values:
            assert not v.is_zero()
            q, r = divmod(constants.c_rho, v)
            assert r.is_zero()

    def test_zero_twisted_sum_raises(self):
        # a = -rho*b forces a zero factor
        rho = OMEGA
        b = EInt(3, 1)
        with pytest.raises(ZeroFactorError):
            refine_t2([-(rho * b), b, ONE], rho)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            refine_t2([ONE, OMEGA], EInt(0, 0))
        with pytest.raises(ValueError):
            refine_t2([ONE, OMEGA], EInt(-1, 0))


# Random sets shrink to one element, which leaves no pair for the final
# checks; these sets keep two, so the checks test something.
SCALES = [u * EInt(2 ** k, 0) for u in UNITS for k in (1, 2, 3)]


def _keep_all(monkeypatch):
    """Make every split keep the whole set, so the final checks see a set
    the chain never refined."""
    def keep(elements, prime, *_):
        elements = tuple(elements)
        return elements, SplitRecord(prime, "keep", (len(elements),), 0)

    for name in ("_uv_split", "coset_split", "valuation_split"):
        monkeypatch.setattr(bounds, name, keep)


class TestFinalChecks:
    @pytest.mark.parametrize("scale", SCALES, ids=str)
    def test_t1_keeps_a_pair(self, scale):
        trace = refine_t1([scale * m for m in (1, 3, 5)])
        assert set(trace.final) == {scale * 3, scale * 5}
        assert trace.checks["pairs_checked"] == 1
        assert trace.checks["valuation_transfer_ok"]

    @pytest.mark.parametrize("rho", [EInt(0, -1), EInt(2, 1)], ids=str)
    @pytest.mark.parametrize("scale", SCALES, ids=str)
    def test_t2_keeps_a_pair(self, rho, scale):
        trace = refine_t2([scale, -scale], rho)
        assert set(trace.final) == {scale, -scale}
        checks = trace.checks
        assert checks["pairs_checked"] == 2 and checks["primes_checked"]
        assert checks["divisibility_transfer_ok"]
        assert checks["phi_count_within_bound"]
        assert checks["phi_all_divide_c_rho"]

    def test_t1_check_fails_without_splits(self, monkeypatch):
        _keep_all(monkeypatch)
        # v(1 + 2) = 2 at 2 + omega, where both summands have valuation 0
        assert not refine_t1([ONE, EInt(2, 0)]).checks[
            "valuation_transfer_ok"]

    @pytest.mark.parametrize("rho", [OMEGA, LAMBDA, -LAMBDA], ids=str)
    def test_t2_checks_fail_without_splits(self, monkeypatch, rho):
        _keep_all(monkeypatch)
        checks = refine_t2([ONE, EInt(2, 0), EInt(3, 1)], rho).checks
        assert not checks["divisibility_transfer_ok"]
        assert not checks["phi_all_divide_c_rho"]
