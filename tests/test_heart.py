import functools
import itertools
import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from stabkit import heart
from stabkit.exact import PhaseValue, RatComplex, SqrtSum
from stabkit.heart import (
    HeartCharge,
    deformation_test,
    hn_filtration,
    hn_oracle,
    hom_principles_check,
    is_semistable,
    jh_filtration,
    jh_oracle,
    local_finiteness_probe,
    mass,
    slicing_distance,
    slicing_hom_vanishing,
    stability_norm,
    tilt_heart_check,
    torsion_cut,
    torsion_pair_verify,
)
from stabkit.lattice import InputError, InvariantError
from stabkit.quiver import (
    Quiver,
    QuiverRep,
    SubobjectLattice,
    enumerate_reps,
    enumerate_reps_of_dims,
    iso_classes,
    load_quiver_config,
)

F = Fraction
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def a2():
    return Quiver.a_n(2, p=2)


@pytest.fixture
def z_std(a2):
    # S1 at phase 3/4, S2 at phase 1/4, P at phase 1/2
    return HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)])


@pytest.fixture
def z_swapped(a2):
    return HeartCharge([RatComplex(1, 1), RatComplex(-1, 1)])


@pytest.fixture
def S1(a2):
    return QuiverRep.simple(a2, 0)


@pytest.fixture
def S2(a2):
    return QuiverRep.simple(a2, 1)


@pytest.fixture
def P(a2):
    return QuiverRep((1, 1), (((1,),),), a2)


def direct_sum(a2, *reps):
    out = reps[0]
    for r in reps[1:]:
        out = out.direct_sum(r, a2)
    return out


class TestHeartCharge:
    def test_values_must_be_in_hbar(self):
        with pytest.raises(InputError):
            HeartCharge([RatComplex(1, 0)])
        with pytest.raises(InputError):
            HeartCharge([RatComplex(0, 0)])

    def test_phase_additive_region(self, z_std):
        assert z_std.phase((1, 1)) == F(1, 2)
        assert z_std.phase((1, 0)) == F(3, 4)
        assert z_std.phase((0, 1)) == F(1, 4)

    def test_rotation_shifts_phase(self, z_std):
        rot = z_std.rotated(F(1, 8))
        assert rot.phase((1, 1)) == F(1, 2) + F(1, 8)
        assert rot.abs2((1, 1)) == z_std.abs2((1, 1))


class TestSemistability:
    def test_simples_stable(self, a2, z_std, S1, S2):
        assert is_semistable(S1, z_std, a2).status == "stable"
        assert is_semistable(S2, z_std, a2).status == "stable"

    def test_P_stable(self, a2, z_std, P):
        v = is_semistable(P, z_std, a2)
        assert v.status == "stable"
        assert v.phase == F(1, 2)

    def test_P_unstable_when_swapped(self, a2, z_swapped, P):
        v = is_semistable(P, z_swapped, a2)
        assert v.status == "unstable"
        assert v.witness_dims == (0, 1)
        assert v.phase == F(1, 2)

    def test_semistable_not_stable(self, a2, S1):
        E = direct_sum(a2, S1, S1)
        zc = HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)])
        v = is_semistable(E, zc, a2)
        assert v.status == "semistable"

    def test_zero_rejected(self, a2, z_std):
        with pytest.raises(InputError):
            is_semistable(QuiverRep.zero(a2), z_std, a2)


def _first_above(lat, values, current):
    return min(heart._bits(lat.above[current]))


class TestHNFiltration:
    def test_semistable_single_factor(self, a2, z_std, P):
        hn = hn_filtration(P, z_std, a2)
        assert len(hn.factors) == 1
        assert hn.factors[0][0] == (1, 1)

    def test_direct_sum_splits(self, a2, z_std, S1, S2):
        E = direct_sum(a2, S1, S2)
        hn = hn_filtration(E, z_std, a2)
        assert [f[0] for f in hn.factors] == [(1, 0), (0, 1)]
        assert hn.factors[0][1] == F(3, 4)
        assert hn.factors[1][1] == F(1, 4)

    def test_wrong_destabilizer_raises_invariant_error(
        self, a2, z_std, S1, S2, monkeypatch
    ):
        # taking the first entry above instead of the maximal destabilizer
        # puts S2 (phase 1/4) below S1 (phase 3/4)
        monkeypatch.setattr(heart, "_max_destabilizer", _first_above)
        with pytest.raises(InvariantError, match="strictly decrease"):
            hn_filtration(direct_sum(a2, S1, S2), z_std, a2)

    def test_invariant_error_survives_python_O(self):
        code = textwrap.dedent(
            """
            from stabkit import heart
            from stabkit.exact import RatComplex
            from stabkit.lattice import InvariantError
            from stabkit.quiver import Quiver, QuiverRep
            heart._max_destabilizer = lambda lat, values, cur: min(
                heart._bits(lat.above[cur])
            )
            Q = Quiver.a_n(2, p=2)
            zc = heart.HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)])
            try:
                heart.hn_filtration(QuiverRep((1, 1), (((0,),),), Q), zc, Q)
            except InvariantError:
                print("raised")
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            check=True,
        ).stdout
        assert out.strip() == "raised"

    def test_P_swapped_chain(self, a2, z_swapped, P):
        hn = hn_filtration(P, z_swapped, a2)
        assert hn.chain_dims == ((0, 0), (0, 1), (1, 1))
        assert [f[0] for f in hn.factors] == [(0, 1), (1, 0)]
        assert hn.factors[0][1] == F(3, 4)

    def test_additivity(self, a2, z_std):
        for E in enumerate_reps(a2, (2, 2)):
            hn = hn_filtration(E, z_std, a2)
            total = RatComplex(0, 0)
            for cls, _ in hn.factors:
                total = total + z_std.base_value(cls)
            assert total == z_std.base_value(E.dims)

    def test_matches_oracle_small(self, a2):
        charges = [
            HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)]),
            HeartCharge([RatComplex(1, 2), RatComplex(-3, 1)]),
            HeartCharge([RatComplex(-1, 0), RatComplex(0, 1)]),
        ]
        for zc in charges:
            for E in enumerate_reps(a2, (2, 2)):
                greedy = hn_filtration(E, zc, a2)
                chains = hn_oracle(E, zc, a2)
                assert len(chains) == 1
                assert chains[0] == greedy.chain_dims

    def test_kronecker_regular_rep(self):
        # on the 2-Kronecker quiver the rep (x, y) -> (ax+by) families give
        # genuinely different subobject lattices per matrix pair
        Q = Quiver.kronecker(2, 2)
        zc = HeartCharge([RatComplex(-1, 2), RatComplex(2, 1)])
        E = QuiverRep((1, 1), (((1,),), ((0,),)), Q)
        hn = hn_filtration(E, zc, Q)
        oracle = hn_oracle(E, zc, Q)
        assert oracle == [hn.chain_dims]
        F = QuiverRep((2, 1), (((1, 0),), ((0, 1),)), Q)
        hnf = hn_filtration(F, zc, Q)
        assert hn_oracle(F, zc, Q) == [hnf.chain_dims]
        total = RatComplex(0, 0)
        for cls, _ in hnf.factors:
            total = total + zc.base_value(cls)
        assert total == zc.base_value(F.dims)

    def test_matches_oracle_on_f3_kronecker(self):
        # every rep of the F_3 Kronecker quiver up to (2, 2), under the
        # charge perfbench's hn_sweep samples it with; the oracle's chains
        # equal those of the reference walk below, in the same order
        Q = Quiver.kronecker(2, 3)
        zc = _charge((-1, 2), (2, 1))
        count = 0
        for dims in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for E in enumerate_reps_of_dims(dims, Q):
                chains = hn_oracle(E, zc, Q)
                assert chains == [hn_filtration(E, zc, Q).chain_dims]
                assert chains == _reference_oracle(E, zc, Q)
                count += 1
        assert count == 6732


def _reference_oracle(E, zc, Q):
    """The reference for hn_oracle's inlined walk: the same search with
    one generator step per bit and a helper call per class and per
    comparison."""
    lat = heart._lattice(E, Q)
    values = heart._charge_values(lat, zc)
    above, below = lat.above, lat.below

    def factor_semistable(lo, hi):
        base = heart._cls(values, lo, hi)
        for mid in heart._bits(above[lo] & below[hi]):
            if heart._cross(base, heart._cls(values, lo, mid)) > 0:
                return False
        return True

    results = []

    def extend(current, chain, prev_cls):
        if current == lat.top:
            results.append(tuple(lat.entries[i].dims for i in chain))
            return
        for nxt in heart._bits(above[current]):
            cv = heart._cls(values, current, nxt)
            if prev_cls is not None and heart._cross(cv, prev_cls) <= 0:
                continue
            if factor_semistable(current, nxt):
                extend(nxt, chain + [nxt], cv)

    extend(lat.bottom, [lat.bottom], None)
    return results


class TestLatticeSlot:
    """heart keeps the last lattice it built in a one-slot memo per
    thread, matched by the identity of the rep."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The reps heart built a lattice for, starting from an empty slot."""
        built = []
        build = heart.SubobjectLattice

        def counting(E, Q, total_bound):
            built.append(E)
            return build(E, Q, total_bound)

        monkeypatch.setattr(heart, "SubobjectLattice", counting)
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        return built

    def test_greedy_and_oracle_share_one_build(self, a2, z_swapped, P, builds):
        hn = hn_filtration(P, z_swapped, a2)
        assert hn_oracle(P, z_swapped, a2) == [hn.chain_dims]
        assert builds == [P]

    def test_verdict_and_jordan_holder_share_one_build(self, a2, z_std, S1, builds):
        E = S1.direct_sum(S1, a2)
        assert is_semistable(E, z_std, a2).status == "semistable"
        assert jh_filtration(E, z_std, a2) == [(1, 0), (1, 0)]
        assert jh_oracle(E, z_std, a2) == {((1, 0), (1, 0))}
        assert builds == [E]

    def test_an_equal_rep_is_built_again(self, a2, z_std, P, builds):
        twin = QuiverRep(P.dims, P.mats, a2)
        assert twin == P and twin is not P
        assert hn_filtration(P, z_std, a2) == hn_filtration(twin, z_std, a2)
        assert builds == [P, twin]

    def test_the_slot_holds_one_lattice(self, a2, z_std, P, S1, builds):
        for E in (P, S1, P):
            hn_filtration(E, z_std, a2)
        assert builds == [P, S1, P]

    def test_each_thread_has_its_own_slot(self, a2, z_swapped, P, builds):
        hn = hn_filtration(P, z_swapped, a2)
        out = []
        worker = threading.Thread(target=lambda: out.append(hn_filtration(P, z_swapped, a2)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert out == [hn]
        assert builds == [P, P]
        hn_oracle(P, z_swapped, a2)  # this thread's slot still holds P
        assert builds == [P, P]

    def test_outputs_match_a_cleared_slot(self, a2, z_std, z_swapped, builds):
        calls = (hn_filtration, hn_oracle, is_semistable,
                 lambda E, zc, Q: torsion_cut(E, F(1, 2), zc, Q))

        def outputs(clear):
            out = []
            for zc in (z_std, z_swapped):
                for E in enumerate_reps(a2, (2, 2)):
                    for call in calls:
                        if clear:
                            heart._SLOT.last = None
                        out.append(call(E, zc, a2))
            return out

        warm = outputs(clear=False)
        shared = len(builds)
        assert outputs(clear=True) == warm
        assert len(builds) - shared == len(warm) == len(calls) * shared

    def test_threads_agree_with_one_thread(self):
        # more threads than cores, switching often, each walking the reps
        # in its own order: every output equals the single-thread one
        Q = Quiver.kronecker(2, 3)
        zc = _charge((-1, 2), (2, 1))
        reps = list(enumerate_reps_of_dims((1, 2), Q))
        expected = {E: hn_oracle(E, zc, Q) for E in reps}
        failures = []

        def walk(order):
            for E in order:
                chains = hn_oracle(E, zc, Q)
                if chains != expected[E] or chains != [hn_filtration(E, zc, Q).chain_dims]:
                    failures.append(E)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            orders = [reps[k:] + reps[:k] for k in range(0, 60, 10)]
            workers = [threading.Thread(target=walk, args=(order[::(-1) ** k],))
                       for k, order in enumerate(orders)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert failures == []


def _pairings(lat, zc):
    """The integer charge value of each entry, one pairing per entry."""
    return tuple(
        (sum(d * x for d, (x, _) in zip(e.dims, zc._zint)),
         sum(d * y for d, (_, y) in zip(e.dims, zc._zint)))
        for e in lat.entries
    )


class TestChargeValueSlot:
    """The charge values on the slot's lattice ride in the lattice slot,
    matched by the identity of (lattice, charge)."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Every value tuple _charge_values returned, from an empty slot.
        A computation makes a new tuple, so a served one is the same
        object as before."""
        out = []
        charge_values = heart._charge_values

        def spying(lat, zc):
            out.append(charge_values(lat, zc))
            return out[-1]

        monkeypatch.setattr(heart, "_charge_values", spying)
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        return out

    def test_greedy_and_oracle_compute_them_once(self, a2, z_swapped, P, served):
        hn = hn_filtration(P, z_swapped, a2)
        assert hn_oracle(P, z_swapped, a2) == [hn.chain_dims]
        assert len(served) == 2 and served[1] is served[0]
        assert served[0] == _pairings(heart._lattice(P, a2), z_swapped)

    def test_another_charge_computes_them_again(self, a2, z_std, z_swapped, P, served):
        twin = HeartCharge(z_std.z, z_std.rot)
        charges = (z_std, z_swapped, z_std, twin)
        for zc in charges:
            assert hn_oracle(P, zc, a2) == [hn_filtration(P, zc, a2).chain_dims]
        lat = heart._lattice(P, a2)
        assert served == [_pairings(lat, zc) for zc in charges for _ in "hn"]
        # one computation per charge change: the slot keeps only the last
        assert len({id(values) for values in served}) == len(charges)
        assert _pairings(lat, z_std) != _pairings(lat, z_swapped)

    def test_a_lattice_outside_the_slot_is_not_kept(self, a2, z_std, P, served):
        hn_filtration(P, z_std, a2)
        other = SubobjectLattice(P, a2)
        first, second = heart._charge_values(other, z_std), heart._charge_values(other, z_std)
        assert first == second == served[0] and first is not second
        assert hn_oracle(P, z_std, a2) and served[-1] is served[0]


class TestRepCatalog:
    """The sweeps share one catalog of reps, lattices and Hom spaces per
    (quiver, bound), kept in a one-slot memo per thread and matched by
    equality."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The reps heart built a lattice for, the pairs it computed a Hom
        space for and its enumerations, starting from an empty slot."""
        calls = {"lattice": [], "hom": [], "enumerate": []}
        build, hom, reps = heart.SubobjectLattice, heart.hom_space, heart.enumerate_reps

        def counting_build(E, Q, total_bound):
            calls["lattice"].append(E)
            return build(E, Q, total_bound)

        def counting_hom(E, F, Q):
            calls["hom"].append((E, F))
            return hom(E, F, Q)

        def counting_reps(Q, max_dims):
            calls["enumerate"].append((Q, tuple(max_dims)))
            return reps(Q, max_dims)

        monkeypatch.setattr(heart, "SubobjectLattice", counting_build)
        monkeypatch.setattr(heart, "hom_space", counting_hom)
        monkeypatch.setattr(heart, "enumerate_reps", counting_reps)
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        return calls

    @pytest.fixture
    def kronecker(self):
        return load_quiver_config(CONFIGS / "kronecker.json")

    def test_gp_slicing_distance_build_each_lattice_once(self, kronecker, calls):
        # one lattice per isomorphism class, that of its first member
        Q, zc = kronecker
        assert hom_principles_check(zc, Q, (2, 2)).ok
        assert slicing_hom_vanishing(zc, Q, (2, 2))[1] == ()
        slicing_distance(zc, _charge((1, 1), (-1, 2)), Q, (2, 2))
        reps = list(enumerate_reps(Q, (2, 2)))
        firsts = [reps[members[0]] for members in iso_classes(reps, Q)]
        assert calls["lattice"] == firsts
        assert len({id(E) for E in calls["lattice"]}) == len(firsts) == 34

    def test_slicing_after_gp_computes_no_hom(self, kronecker, calls):
        Q, zc = kronecker
        assert hom_principles_check(zc, Q, (2, 2)).ok
        done = len(calls["hom"])
        checked, failures = slicing_hom_vanishing(zc, Q, (2, 2))
        assert checked > 0 and failures == ()
        assert len(calls["hom"]) == done > 0

    def test_a_second_charge_builds_nothing(self, kronecker, calls):
        Q, zc = kronecker
        assert hom_principles_check(zc, Q, (2, 2)).ok
        built = len(calls["lattice"])
        z2 = _charge((1, 1), (-1, 2))
        assert hom_principles_check(z2, Q, (2, 2)).ok
        assert slicing_hom_vanishing(z2, Q, (2, 2))[1] == ()
        slicing_distance(z2, zc, Q, (2, 2))
        assert len(calls["lattice"]) == built > 0
        assert calls["enumerate"] == [(Q, (2, 2))]

    def test_the_slot_is_matched_by_equality(self, a2, z_std, calls):
        twin = Quiver(a2.n, a2.arrows, a2.p)
        assert twin == a2 and twin is not a2
        slicing_hom_vanishing(z_std, a2, (2, 2))
        slicing_hom_vanishing(z_std, twin, [2, 2])
        assert calls["enumerate"] == [(a2, (2, 2))]
        slicing_hom_vanishing(z_std, a2, (2, 1))
        a2_f3 = Quiver(a2.n, a2.arrows, 3)
        slicing_hom_vanishing(z_std, a2_f3, (2, 1))
        slicing_hom_vanishing(z_std, a2, (2, 2))  # one slot: (2, 2) was replaced
        assert calls["enumerate"] == [
            (a2, (2, 2)), (a2, (2, 1)), (a2_f3, (2, 1)), (a2, (2, 2))
        ]

    def test_each_thread_has_its_own_catalog(self, a2, z_std, calls):
        first = hom_principles_check(z_std, a2, (2, 2))
        built = len(calls["lattice"])
        out = []
        worker = threading.Thread(
            target=lambda: out.append(hom_principles_check(z_std, a2, (2, 2)))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert out == [first]
        assert len(calls["lattice"]) == 2 * built > 0
        assert len(calls["enumerate"]) == 2
        slicing_hom_vanishing(z_std, a2, (2, 2))  # this thread's slot still holds it
        assert len(calls["lattice"]) == 2 * built
        assert len(calls["enumerate"]) == 2

    def test_threads_agree_with_one_thread(self, a2, z_std, z_swapped):
        # more threads than cores, switching often, each sweeping the boxes
        # in its own order, so that the slots switch boxes under each other
        boxes = [(2, 1), (1, 2), (2, 2), (1, 1)]

        def sweep(box):
            return [repr(f(zc, a2, box)) for zc in (z_std, z_swapped)
                    for f in (hom_principles_check, slicing_hom_vanishing)]

        expected = {box: sweep(box) for box in boxes}
        failures = []

        def walk(order):
            for box in order * 3:
                if sweep(box) != expected[box]:
                    failures.append(box)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=walk, args=(boxes[k:] + boxes[:k],))
                       for k in range(len(boxes))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert failures == []

    @pytest.mark.parametrize("config", ["a2.json", "kronecker.json"])
    def test_outputs_match_a_cleared_slot(self, config, calls):
        Q, zc = load_quiver_config(CONFIGS / config)
        z2 = _charge((1, 1), (-1, 2))
        nudged = HeartCharge([z + RatComplex(0, F(1, 8)) for z in zc.z])

        def sink(E):
            return E.dims[0] == 0

        def sweeps(bound):
            return [
                lambda: hom_principles_check(zc, Q, bound),
                lambda: slicing_hom_vanishing(zc, Q, bound),
                lambda: slicing_distance(zc, z2, Q, bound),
                lambda: hom_principles_check(z2, Q, bound),
                lambda: slicing_hom_vanishing(z2, Q, bound),
                lambda: stability_norm(list(z2.z), zc, Q, bound),
                lambda: deformation_test(zc, nudged, F(1, 4), Q, bound),
                lambda: local_finiteness_probe(zc, Q, F(1, 8), bound),
                lambda: torsion_pair_verify(sink, Q, bound),
                lambda: tilt_heart_check(sink, Q, bound),
            ]

        def outputs(clear):
            out = []
            for bound in ((2, 1), (2, 2), (2, 1)):
                for sweep in sweeps(bound):
                    if clear:
                        heart._SLOT.catalog = heart._SLOT.last = None
                    out.append(repr(sweep()))
            return out

        warm = outputs(clear=False)
        shared = len(calls["lattice"])
        assert outputs(clear=True) == warm
        assert len(calls["lattice"]) - shared > 5 * shared


class TestJHFiltration:
    def test_stable_is_its_own_factor(self, a2, z_std, P):
        assert jh_filtration(P, z_std, a2) == [(1, 1)]

    def test_square_of_simple(self, a2, z_std, S1):
        E = direct_sum(a2, S1, S1)
        assert jh_filtration(E, z_std, a2) == [(1, 0), (1, 0)]

    def test_P_at_vertical_charge(self, a2, P):
        zc = HeartCharge([RatComplex(0, 1), RatComplex(0, 1)])
        factors = jh_filtration(P, zc, a2)
        assert factors == [(0, 1), (1, 0)]  # socle first

    def test_unstable_rejected(self, a2, z_swapped, P):
        with pytest.raises(InputError):
            jh_filtration(P, z_swapped, a2)

    def test_multiset_unique_against_oracle(self, a2):
        zc = HeartCharge([RatComplex(0, 1), RatComplex(0, 1)])
        for E in enumerate_reps(a2, (2, 2)):
            if not is_semistable(E, zc, a2).is_semistable():
                continue
            greedy = tuple(sorted(jh_filtration(E, zc, a2)))
            multisets = jh_oracle(E, zc, a2)
            assert multisets == {greedy}


class TestTorsionCut:
    def test_all_above(self, a2, z_std, P):
        cut = torsion_cut(P, PhaseValue.rational(F(1, 4)), z_std, a2)
        assert cut.sub_dims == (1, 1)
        assert cut.quotient.is_zero()

    def test_all_below(self, a2, z_std, P):
        cut = torsion_cut(P, PhaseValue.rational(F(3, 4)), z_std, a2)
        assert cut.sub.is_zero()
        assert cut.quotient_dims == (1, 1)

    def test_split_at_half(self, a2, z_swapped, P):
        cut = torsion_cut(P, PhaseValue.rational(F(1, 2)), z_swapped, a2)
        assert cut.sub_dims == (0, 1)
        assert cut.quotient_dims == (1, 0)
        assert cut.hom_vanishes

    def test_seesaw(self, a2, z_swapped):
        phi0 = PhaseValue.rational(F(1, 2))
        for E in enumerate_reps(a2, (2, 2)):
            cut = torsion_cut(E, phi0, z_swapped, a2)
            if not cut.sub.is_zero():
                hn = hn_filtration(cut.sub, z_swapped, a2)
                assert (hn.factors[-1][1] - phi0).sign() > 0
            if not cut.quotient.is_zero():
                hn = hn_filtration(cut.quotient, z_swapped, a2)
                assert (hn.factors[0][1] - phi0).sign() <= 0


class TestTorsionPairs:
    def test_everything_is_torsion(self, a2):
        rep = torsion_pair_verify(lambda E: True, a2, (2, 2))
        assert rep.ok

    def test_sink_supported_class(self, a2):
        rep = torsion_pair_verify(lambda E: E.dims[0] == 0, a2, (2, 2))
        assert rep.ok

    def test_add_P_fails(self, a2, P):
        # multiples of P: T-perp = {E_1 = 0}; the simple S1 has no
        # T-subobject with quotient there, so axiom ii) fails at S1
        def is_power_of_P(E):
            if E.is_zero():
                return True
            d = E.dims[0]
            if E.dims != (d, d):
                return False
            from stabkit.quiver import mat_is_invertible

            return mat_is_invertible([list(r) for r in E.mats[0]], 2)

        rep = torsion_pair_verify(is_power_of_P, a2, (2, 2))
        assert not rep.ok
        assert rep.axiom == "decomposition"
        assert rep.witness.dims == (1, 0)

    def test_predicate_not_closed_under_isomorphism(self, a2):
        # one matrix of a (1, 2) rep, but not the other two of its class
        M = ((0,), (1,))

        def one_matrix(E):
            return E.dims == (1, 2) and E.mats == (M,)

        rep = torsion_pair_verify(one_matrix, a2, (2, 2))
        assert not rep.ok
        assert rep.axiom == "iso-closure"
        assert rep.witness == QuiverRep((1, 2), (M,), a2)

    def test_predicate_split_on_a_class_fails_iso_closure(self, a2):
        # M has two isomorphic reps outside T: the class check names M
        M = ((1,), (0,))

        def one_matrix(E):
            return E.dims == (1, 2) and E.mats == (M,)

        E = QuiverRep((1, 2), (M,), a2)
        rep = torsion_pair_verify(one_matrix, a2, (2, 2))
        assert (rep.ok, rep.axiom, rep.witness) == (False, "iso-closure", E)
        tilt = tilt_heart_check(one_matrix, a2, (2, 2))
        assert tilt.failures == (("iso-closure", E),)


class TestTilt:
    def test_degenerate_identity(self, a2):
        rep = tilt_heart_check(lambda E: True, a2, (2, 2))
        assert rep.ok and rep.degenerate == "identity"

    def test_degenerate_shift(self, a2):
        rep = tilt_heart_check(lambda E: E.is_zero(), a2, (2, 2))
        assert rep.ok and rep.degenerate == "shift"

    def test_sink_torsion_pair_tilts(self, a2):
        rep = tilt_heart_check(lambda E: E.dims[0] == 0, a2, (2, 2))
        assert rep.ok and rep.degenerate is None

    def test_builds_the_torsion_pair_once(self, a2, monkeypatch):
        # from an empty catalog slot, the tilt enumerates and classifies
        # exactly as often as verifying the torsion pair alone does
        counts = {"reps": 0, "predicate": 0}
        enumerate_reps = heart.enumerate_reps

        def counting_reps(*args, **kwargs):
            counts["reps"] += 1
            return enumerate_reps(*args, **kwargs)

        def predicate(E):
            counts["predicate"] += 1
            return E.dims[0] == 0

        monkeypatch.setattr(heart, "enumerate_reps", counting_reps)
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        assert torsion_pair_verify(predicate, a2, (2, 2)).ok
        alone = dict(counts)
        counts.update(reps=0, predicate=0)
        heart._SLOT.catalog = None
        assert tilt_heart_check(predicate, a2, (2, 2)).ok
        assert alone["reps"] == 1
        assert counts == alone


def _reference_principles(zc, Q, max_dims):
    """hom_principles_check's count and failures, one rep at a time, from
    heart's hom_space and Schur checks as they are bound when called."""
    hom = heart.hom_space
    reps = list(enumerate_reps(Q, max_dims))
    verdicts = [is_semistable(E, zc, Q) for E in reps]
    semis = [(E, v.phase) for E, v in zip(reps, verdicts) if v.is_semistable()]
    stables = [(E, v.phase) for E, v in zip(reps, verdicts) if v.status == "stable"]
    lower = [(E, F) for E, pe in semis for F, pf in semis if pe > pf]
    checked = len(lower)
    failures = [("hom-vanishing", E.dims, F.dims) for E, F in lower if hom(E, F, Q)[0]]
    for (E, pe), (F, pf) in itertools.product(stables, stables):
        hdim, basis = hom(E, F, Q)
        if pe == pf and hdim:
            checked += 1
            if not heart._span_contains_iso(basis, Q):
                failures.append(("stable-hom-not-iso", E.dims, F.dims))
    for E, _ in stables:
        checked += 1
        if not heart._all_nonzero_invertible(hom(E, E, Q)[1], Q):
            failures.append(("endo-not-division", E.dims, None))
    for E, v in zip(reps, verdicts):
        if not v.is_semistable():
            checked += 1
            lat = SubobjectLattice(E, Q)
            k = next(k for k, ent in enumerate(lat.entries) if ent.dims == v.witness_dims)
            if hom(lat.sub_rep(k), lat.quotient_rep(k), Q)[0]:
                failures.append(("unstable-decomposition", E.dims, None))
    return checked, tuple(failures)


class TestFailuresOverIsomorphicReps:
    """The sweeps decide each check once per isomorphism class; a failing
    class fails at each of its reps, listed in the order of a sweep over
    every rep.  The checks are doctored here, invariantly under
    isomorphism, so that every kind of failure occurs."""

    @pytest.fixture
    def doctored(self, monkeypatch):
        """Every Hom space at least one-dimensional, which a zero Hom then
        spans with no isomorphism in it, and no division rings."""
        hom_space = heart.hom_space

        def nonvanishing(E, F, Q):
            hdim, basis = hom_space(E, F, Q)
            return max(hdim, 1), basis

        monkeypatch.setattr(heart, "hom_space", nonvanishing)
        monkeypatch.setattr(heart, "_all_nonzero_invertible", lambda basis, Q: False)
        monkeypatch.setattr(heart, "_SLOT", threading.local())

    def test_principles_match_a_sweep_over_every_rep(self, doctored):
        kinds = set()
        for config, bound in itertools.product(("a2.json", "kronecker.json"), ((2, 1), (2, 2))):
            Q, zc = load_quiver_config(CONFIGS / config)
            rep = hom_principles_check(zc, Q, bound)
            assert (rep.checked_pairs, rep.failures) == _reference_principles(zc, Q, bound)
            kinds.update(f[0] for f in rep.failures)
            vanishing = [f[1:] for f in rep.failures if f[0] == "hom-vanishing"]
            assert slicing_hom_vanishing(zc, Q, bound) == (len(vanishing), tuple(vanishing))
        assert kinds == {"hom-vanishing", "stable-hom-not-iso", "endo-not-division",
                         "unstable-decomposition"}


def _reference_slicing_distance(zc1, zc2, Q, max_dims):
    """The sup and inf formulas of the slicing distance, one rep at a
    time, from each rep's HN filtrations."""
    sup = inf_formula = None
    for E in enumerate_reps(Q, max_dims):
        hn1, hn2 = hn_filtration(E, zc1, Q), hn_filtration(E, zc2, Q)
        top1, bot1 = hn1.factors[0][1], hn1.factors[-1][1]
        top2, bot2 = hn2.factors[0][1], hn2.factors[-1][1]
        local = max(abs(top1 - top2), abs(bot1 - bot2))
        sup = local if sup is None else max(sup, local)
        if len(hn2.factors) == 1:
            eps_e = max(top1 - top2, bot2 - bot1)
            inf_formula = eps_e if inf_formula is None else max(inf_formula, eps_e)
    assert (sup - inf_formula).sign() == 0
    return sup


def _charge(*values):
    return HeartCharge([RatComplex(F(re), F(im)) for re, im in values])


_TIE_PAIR = (_charge((-1, 1), (-1, 1)), _charge((-1, 0), (0, 1)))


def _slicing_cases():
    """(quiver, bound, charge pairs): pairs with a swapped, a rotated, a
    fractional and a negative-axis charge, and on two vertices a pair
    whose maximum is reached by two canonical forms of one value."""
    a2 = Quiver(2, [(0, 1)], 2)
    a2_f3 = Quiver(2, [(0, 1)], 3)
    a3 = Quiver(3, [(0, 1), (1, 2)], 2)
    k2, z_k2 = load_quiver_config(CONFIGS / "kronecker.json")
    z_a2 = _charge((-1, 1), (1, 1))
    two_vertex = [
        (z_a2, _charge((1, 1), (-1, 1))),
        (z_a2, z_a2.rotated(F(1, 6))),
        (_charge(("-2/3", "1/5"), ("3/7", "5/2")), _charge(("-1/2", 0), ("1/3", "2/5"))),
        _TIE_PAIR,
    ]
    z_a3 = _charge((-1, 1), (0, 1), (1, 1))
    three_vertex = [
        (z_a3, _charge((1, 1), (0, 1), (-1, 1))),
        (z_a3, z_a3.rotated(F(-1, 4))),
        (_charge(("-2/3", "1/5"), (0, "1/2"), ("3/7", "5/2")), _charge((-2, 0), (1, 3), (-1, 2))),
        (_charge((-1, 1), (-1, 1), (0, 1)), _charge((0, 1), (-1, 0), (0, 1))),
    ]
    return [
        pytest.param(a2, (2, 2), two_vertex, id="a2"),
        pytest.param(k2, (2, 2), [(z_k2, z2) for _, z2 in two_vertex], id="kronecker"),
        pytest.param(a3, (1, 2, 1), three_vertex, id="a3"),
        pytest.param(a2_f3, (1, 2), two_vertex, id="a2-f3"),
    ]


class TestSlicingDistance:
    def test_zero(self, a2, z_std):
        assert slicing_distance(z_std, z_std, a2, (2, 2)) == F(0)

    def test_rotation_is_exact(self, a2, z_std):
        for eps in (F(1, 8), F(1, 6), F(1, 12)):
            d = slicing_distance(z_std, z_std.rotated(eps), a2, (2, 2))
            assert d == eps

    def test_shift_by_one(self, a2, z_std):
        d = slicing_distance(z_std, z_std.rotated(1), a2, (2, 2))
        assert d == F(1)

    def test_symmetry(self, a2, z_std, z_swapped):
        d1 = slicing_distance(z_std, z_swapped, a2, (1, 1))
        d2 = slicing_distance(z_swapped, z_std, a2, (1, 1))
        assert (d1 - d2).sign() == 0

    def test_triangle_inequality(self, a2):
        charges = [
            HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)]),
            HeartCharge([RatComplex(-1, 2), RatComplex(2, 1)]),
            HeartCharge([RatComplex(0, 1), RatComplex(1, 2)]),
        ]
        ds = {}
        for i, j in itertools.combinations(range(3), 2):
            ds[(i, j)] = slicing_distance(charges[i], charges[j], a2, (1, 1))
            ds[(j, i)] = ds[(i, j)]
        for i, j, k in itertools.permutations(range(3)):
            # d(i,k) <= d(i,j) + d(j,k), decided exactly
            assert (ds[(i, j)] + ds[(j, k)] - ds[(i, k)]).sign() >= 0

    @pytest.mark.parametrize("Q, max_dims, pairs", _slicing_cases())
    def test_matches_per_rep_reference(self, Q, max_dims, pairs):
        for zc1, zc2 in pairs:
            got = slicing_distance(zc1, zc2, Q, max_dims)
            ref = _reference_slicing_distance(zc1, zc2, Q, max_dims)
            assert got.to_json() == ref.to_json()

    def test_tie_keeps_the_first_maximal_form(self, a2):
        # S1 and S2 reach the distance 1/4 in different canonical forms;
        # the first rep enumerated, S2, sets the returned form
        zc1, zc2 = _TIE_PAIR
        got = slicing_distance(zc1, zc2, a2, (1, 1))
        assert got == F(1, 4)
        assert got.to_json() == {"offset": "1/2", "dir": [1, -1]}
        assert got.to_json() == _reference_slicing_distance(zc1, zc2, a2, (1, 1)).to_json()


class TestNormAndMass:
    def test_norm_of_Z_itself(self, a2, z_std):
        norm = stability_norm(list(z_std.z), z_std, a2, (2, 2))
        assert norm.square == 1

    def test_norm_of_zero(self, a2, z_std):
        norm = stability_norm([RatComplex(0, 0), RatComplex(0, 0)], z_std, a2, (2, 2))
        assert norm.square == 0

    def test_norm_of_first_coordinate(self, a2, z_std):
        norm = stability_norm([RatComplex(1, 0), RatComplex(0, 0)], z_std, a2, (2, 2))
        assert norm.square == F(1, 2)  # attained at S1: 1/sqrt(2)
        assert norm.truncated

    def test_mass_semistable(self, a2, z_std, P):
        m = mass(P, z_std, a2)
        assert m == SqrtSum.sqrt_of(4)  # |Z(P)| = |2i| = 2

    def test_mass_of_sum(self, a2, z_std, S1, S2):
        m = mass(direct_sum(a2, S1, S2), z_std, a2)
        assert m == SqrtSum([(2, 2)])  # 2 sqrt(2)

    def test_mass_dominates_charge(self, a2, z_std):
        for E in enumerate_reps(a2, (2, 2)):
            m = mass(E, z_std, a2)
            assert m >= SqrtSum.sqrt_of(z_std.abs2(E.dims))


class TestDeformation:
    def test_w_equals_z(self, a2, z_std):
        rep = deformation_test(z_std, z_std, F(1, 8), a2, (2, 2))
        assert rep.applicable and rep.ok
        assert rep.distance == F(0)

    def test_small_rotation(self, a2, z_std):
        rep = deformation_test(z_std, z_std.rotated(F(1, 6)), F(1, 4), a2, (2, 2))
        assert rep.applicable and rep.ok
        assert rep.distance == F(1, 6)

    def test_small_perturbation(self, a2, z_std):
        wc = HeartCharge([RatComplex(F(-9, 10), 1), RatComplex(1, 1)])
        rep = deformation_test(z_std, wc, F(1, 8), a2, (2, 2))
        assert rep.applicable
        assert rep.ok

    def test_far_perturbation_not_applicable(self, a2, z_std, z_swapped):
        rep = deformation_test(z_std, z_swapped, F(1, 8), a2, (2, 2))
        assert not rep.applicable
        assert rep.ok is None

    def test_eps_bound(self, a2, z_std):
        with pytest.raises(InputError):
            deformation_test(z_std, z_std, F(1, 2), a2, (1, 1))


class TestPrinciples:
    def test_a2_standard(self, a2, z_std):
        rep = hom_principles_check(z_std, a2, (2, 2))
        assert rep.ok
        assert rep.checked_pairs > 10

    def test_swapped_charge(self, a2, z_swapped):
        rep = hom_principles_check(z_swapped, a2, (2, 2))
        assert rep.ok

    def test_schur_checks_on_hom_spans(self, a2, S1, S2, P):
        # Hom(S2, P) is spanned by the socle inclusion, which is no
        # isomorphism; End(S1 + S1) = M_2(F_2) holds the identity and
        # nonzero maps that are not invertible; End(P) = F_2
        socle = heart.hom_space(S2, P, a2)[1]
        assert len(socle) == 1
        assert not heart._span_contains_iso(socle, a2)
        SS = direct_sum(a2, S1, S1)
        matrices = heart.hom_space(SS, SS, a2)[1]
        assert len(matrices) == 4
        assert heart._span_contains_iso(matrices, a2)
        assert not heart._all_nonzero_invertible(matrices, a2)
        scalars = heart.hom_space(P, P, a2)[1]
        assert heart._span_contains_iso(scalars, a2)
        assert heart._all_nonzero_invertible(scalars, a2)
        assert not heart._span_contains_iso([], a2)
        assert heart._all_nonzero_invertible([], a2)

    def test_each_hom_space_once_and_no_hn_chain(self, monkeypatch):
        # an unstable rep splits against its verdict's witness, so no HN
        # chain is walked, and Hom(E, E) of a stable E is computed once
        Q, zc = load_quiver_config(CONFIGS / "kronecker.json")
        endo_calls = []  # the reps E of every hom_space(E, E) call
        hom_space = heart.hom_space

        def recording_hom_space(E, F, Q):
            if E is F:
                endo_calls.append(E)
            return hom_space(E, F, Q)

        def no_hn_chain(*args):
            raise AssertionError("hom_principles_check walked an HN chain")

        monkeypatch.setattr(heart, "hom_space", recording_hom_space)
        monkeypatch.setattr(heart, "_hn_chain", no_hn_chain)
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        rep = hom_principles_check(zc, Q, (2, 2))
        assert rep.ok
        assert len({id(E) for E in endo_calls}) == len(endo_calls) > 0

    def test_one_destabilizer_scan_per_class(self, monkeypatch):
        # isomorphic reps share one verdict, and the split check of an
        # unstable class reuses its verdict's scan
        Q, zc = load_quiver_config(CONFIGS / "kronecker.json")
        scans = []
        class_verdict = heart._class_verdict

        def counting(profile, zc):
            scans.append(profile)
            return class_verdict(profile, zc)

        monkeypatch.setattr(heart, "_class_verdict", counting)
        rep = hom_principles_check(zc, Q, (2, 2))
        reps = list(enumerate_reps(Q, (2, 2)))
        firsts = [reps[members[0]] for members in iso_classes(reps, Q)]
        assert rep.ok
        assert scans == [_profile_of(E, Q) for E in firsts]
        assert len(scans) == 34 and len(set(scans)) == 18
        assert len(reps) == 296
        assert sum(1 for E in reps if not is_semistable(E, zc, Q).is_semistable()) > 0


class TestLazyMasks:
    """A lattice builds its containment masks on first read, and only the
    walks above the zero subobject read them."""

    @pytest.fixture
    def mask_builds(self, monkeypatch):
        builds = []
        build = SubobjectLattice._containment_masks

        def counting(lat):
            builds.append(lat.E)
            return build(lat)

        monkeypatch.setattr(SubobjectLattice, "_containment_masks", counting)
        return builds

    def test_verdicts_and_hom_sweeps_build_no_masks(self, a2, z_std, mask_builds, monkeypatch):
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        Q, zc = load_quiver_config(CONFIGS / "kronecker.json")
        verdicts = [is_semistable(E, z_std, a2).status for E in enumerate_reps(a2, (2, 2))]
        assert {"stable", "semistable", "unstable"} <= set(verdicts)
        assert hom_principles_check(z_std, a2, (2, 2)).ok
        assert hom_principles_check(zc, Q, (2, 1)).ok
        assert slicing_hom_vanishing(zc, Q, (2, 2))[1] == ()
        assert slicing_distance(zc, _charge((1, 1), (-1, 2)), Q, (2, 2)) > 0
        assert local_finiteness_probe(zc, Q, F(1, 8), (2, 2)).slices
        assert mask_builds == []

    def test_hn_filtration_builds_them(self, a2, z_std, S1, S2, mask_builds):
        E = direct_sum(a2, S1, S2)
        assert len(hn_filtration(E, z_std, a2).factors) == 2
        assert mask_builds == [E]


def _profile_of(E, Q):
    """The distinct classes of E's subobjects, in lattice order."""
    return tuple(dict.fromkeys(ent.dims for ent in SubobjectLattice(E, Q, 6).entries))


def _seeded_charges(n, seed, count=2):
    """count charges on n vertices with small integer values in H-bar."""
    rng = random.Random(seed)
    values = [(x, y) for x in range(-3, 4) for y in range(4) if y > 0 or x < 0]
    return [_charge(*rng.choices(values, k=n)) for _ in range(count)]


def _profile_cases():
    """(quiver, bound, charges): the configs/ charges (the criterion 6
    charge on A3) and seeded ones."""
    a2, z_a2 = load_quiver_config(CONFIGS / "a2.json")
    k2, z_k2 = load_quiver_config(CONFIGS / "kronecker.json")
    a3 = Quiver.a_n(3, p=2)
    z_a3 = _charge((-1, 1), (0, 1), (1, 1))
    return [
        pytest.param(a2, (3, 2), [z_a2, *_seeded_charges(2, 1)], id="a2-3,2"),
        pytest.param(a3, (2, 2, 2), [z_a3, *_seeded_charges(3, 2)], id="a3-2,2,2"),
        pytest.param(k2, (2, 2), [z_k2, *_seeded_charges(2, 3)], id="kronecker-2,2"),
    ]


def _lattice_status(lat, phase):
    """lat.E's status read off every proper nonzero entry by exact phases."""
    phi = phase(lat.E.dims)
    proper = [phase(ent.dims) for ent in lat.entries[1:-1]]
    if any(q > phi for q in proper):
        return "unstable"
    return "semistable" if phi in proper else "stable"


class TestClassProfiles:
    """Verdicts and HN extremes are decided once per isomorphism class,
    from its class profile; the class route agrees with the lattice, rep
    by rep."""

    @pytest.mark.parametrize("Q, bound, charges", _profile_cases())
    def test_class_route_matches_lattice_route(self, Q, bound, charges, monkeypatch):
        monkeypatch.setattr(heart, "_SLOT", threading.local())
        cat = heart._catalog(Q, bound)
        assert [cat.profiles[c] for c in cat.of] == [_profile_of(E, Q) for E in cat.reps]
        assert len(cat.profiles) < len(cat.reps)
        seen = set()  # (status, more than two HN factors)
        for zc in charges:
            phase = functools.lru_cache(maxsize=None)(zc.phase)
            ends = [heart._class_verdict(profile, zc)[2:] for profile in cat.profiles]
            judged = cat.judged(zc)
            for E, c in zip(cat.reps, cat.of):
                status, top, first = judged[c][1:]
                assert status == _lattice_status(SubobjectLattice(E, Q), phase)
                assert PhaseValue(top, zc.rot) == phase(E.dims)
                hn = hn_filtration(E, zc, Q)
                assert first == ends[c][0] == hn.factors[0][0]
                assert ends[c][1] == hn.factors[-1][0]
                seen.add((status, len(hn.factors) > 2))
        assert seen == {("stable", False), ("semistable", False), ("unstable", False),
                        ("unstable", True)}

    def test_phases_that_fail_to_decrease_raise(self, z_std):
        # no rep has this profile: two classes lie above E = (0, 1), so the
        # quotient values leave H-bar and the two scans disagree
        with pytest.raises(InvariantError, match="strictly decrease"):
            heart._class_verdict(((0, 0), (1, 0), (1, 1), (0, 1)), z_std)


def _order_cases():
    """(quiver, charge) pairs: the configs/ charges, a rotated charge and
    charges with non-integer rational entries, one on the negative axis."""
    a2, z_a2 = load_quiver_config(CONFIGS / "a2.json")
    k2, z_k2 = load_quiver_config(CONFIGS / "kronecker.json")
    z_frac = HeartCharge([RatComplex(F(-2, 3), F(1, 5)), RatComplex(F(3, 7), F(5, 2))])
    z_axis = HeartCharge([RatComplex(F(-1, 2), 0), RatComplex(F(1, 3), F(2, 5))])
    return [
        pytest.param(a2, z_a2, id="a2"),
        pytest.param(k2, z_k2, id="kronecker"),
        pytest.param(a2, z_a2.rotated(F(1, 3)), id="a2-rot-1/3"),
        pytest.param(k2, z_k2.rotated(F(1, 3)), id="kronecker-rot-1/3"),
        pytest.param(a2, z_frac, id="a2-fractional"),
        pytest.param(k2, z_frac.rotated(F(-1, 4)), id="kronecker-fractional-rot-(-1/4)"),
        pytest.param(k2, z_axis, id="kronecker-negative-axis"),
    ]


class TestIntegerPhaseOrder:
    @pytest.mark.parametrize("Q, zc", _order_cases())
    def test_cross_agrees_with_phase_values(self, Q, zc):
        # the integer value of every class, read off the subobject
        # lattices of every rep <= (2, 2)
        by_dims = {}
        for E in enumerate_reps(Q, (2, 2)):
            lat = SubobjectLattice(E, Q, 4)
            for ent, val in zip(lat.entries, heart._charge_values(lat, zc)):
                assert by_dims.setdefault(ent.dims, val) == val
        classes = [d for d in by_dims if any(d)]
        assert len(classes) == 8
        for a, b in itertools.product(classes, classes):
            # phi(a) > phi(b) iff cross(value b, value a) > 0
            cross = heart._cross(by_dims[b], by_dims[a])
            ref = (zc.phase(a) - zc.phase(b)).sign()
            assert (cross > 0) - (cross < 0) == ref, (a, b)


class TestLocalFiniteness:
    def test_rational_charge_report(self, a2, z_std):
        rep = local_finiteness_probe(z_std, a2, F(1, 2), (2, 2))
        assert rep.chain_bound == 4
        assert any(count > 0 for _, count, _ in rep.slices)

    def test_eta_positive(self, a2, z_std):
        with pytest.raises(InputError):
            local_finiteness_probe(z_std, a2, 0, (2, 2))
