"""The package's records: frozen named tuples of their fields.

Verdicts, hypothesis checks, certified and rejected hyperplanes, slice
components, component reports, root certificates, transversality reports
and corpus checks are ``typing.NamedTuple``s; ``Hyperplane`` and
``Interval`` are named tuples that validate their fields when made.  Each
record refuses assignment, equals (and hashes as) any record with equal
fields, and is the tuple of its fields.  The module needs no pytest, so it
also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_records.py
"""

import math
from fractions import Fraction

from expalg.classify import (
    CertifiedHyperplane,
    ComponentReport,
    HypothesisCheck,
    IrredVerdict,
    RejectedCandidate,
    SliceComponent,
)
from expalg.corpus import CorpusCheck
from expalg.errors import HyperplaneError
from expalg.hyperplanes import Hyperplane
from expalg.intervals import Interval
from expalg.numeric import RootCert, TransversalityReport
from expalg.parsing import parse_poly

from util import run_standalone

#: one factory per record; each call builds the record from fresh fields
SAMPLES = {
    "IrredVerdict": lambda: IrredVerdict(
        "Irreducible", witness="line", line=((Fraction(1), Fraction(2)), (Fraction(0), Fraction(-1, 3)))
    ),
    "IrredVerdict (Reducible)": lambda: IrredVerdict(
        "Reducible", witness="divisor x1 - 1", factor=parse_poly("x1 - 1", 1)
    ),
    "HypothesisCheck": lambda: HypothesisCheck("dim Z(f) = n-1", "verified", "2 roots"),
    "CertifiedHyperplane": lambda: CertifiedHyperplane(Hyperplane((1, -1)), "restriction vanishes"),
    "RejectedCandidate": lambda: RejectedCandidate(Hyperplane((0, 1)), "restriction does not vanish"),
    "SliceComponent": lambda: SliceComponent(parse_poly("x2^2 - 2", 2), 1, True),
    "ComponentReport": lambda: ComponentReport(
        verdict="IrreducibleSet",
        conditionality="Unconditional",
        hyperplanes=[],
        rejected=[RejectedCandidate(Hyperplane((1, 0)), "restriction does not vanish")],
        residual="",
        hypothesis_log=[HypothesisCheck("x-part irreducible", "verified")],
        notes=["no exponential dependence"],
        roots=[RootCert(Interval(0.0, 0.0), "NewtonContraction", 0.0)],
    ),
    "RootCert": lambda: RootCert(Interval(1.25, 1.5), "SignChange", 0.125),
    "TransversalityReport": lambda: TransversalityReport((0.5, 2.0, math.exp(0.5)), 2, 0.75, "Transverse"),
    "CorpusCheck": lambda: CorpusCheck("two-point line", True, "2 roots"),
    "Hyperplane": lambda: Hyperplane((2, -3, 0)),
    "Interval": lambda: Interval(-0.5, 1.5),
}


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_fields_refuse_assignment():
    for name, make in SAMPLES.items():
        record = make()
        for field in (*record._fields, "extra"):
            try:
                setattr(record, field, None)
            except AttributeError:
                continue
            raise AssertionError(f"{name}.{field} accepted an assignment")


def test_equal_fields_give_equal_records_and_hashes():
    hashed = 0
    for name, make in SAMPLES.items():
        a, b = make(), make()
        assert a is not b and a == b, name
        # A record hashes as the tuple of its fields: a Poly or a list
        # among them makes it unhashable, as it makes the tuple.
        if _hashable(tuple(a)):
            assert hash(a) == hash(b) == hash(tuple(a)), name
            hashed += 1
        else:
            assert not _hashable(a), name
    assert hashed == len(SAMPLES) - 3, hashed  # the Reducible verdict, SliceComponent, ComponentReport
    assert HypothesisCheck("a", "verified") != HypothesisCheck("a", "failed")
    assert RootCert(Interval(0.0, 1.0), "SignChange", 0.0) != RootCert(Interval(0.0, 2.0), "SignChange", 0.0)


def test_hyperplanes_sort_by_their_normals():
    normals = [(1, 0, 0), (0, 1, -1), (1, -2, 0), (0, 0, 1), (3, 1, 1), (0, 1, 1), (1, 1, -1)]
    planes = [Hyperplane(v) for v in normals]
    assert [h.normal for h in sorted(planes)] == sorted(normals)
    assert Hyperplane((0, 1)) < Hyperplane((1, -5)) < Hyperplane((1, 0))
    assert sorted({Hyperplane((1, 2)), Hyperplane((1, 2)), Hyperplane((1, 1))}) == [
        Hyperplane((1, 1)),
        Hyperplane((1, 2)),
    ]


def test_invalid_intervals_and_hyperplanes_raise():
    bad_intervals = [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, -math.inf)]
    for lo, hi in bad_intervals:
        try:
            Interval(lo, hi)
        except ValueError:
            continue
        raise AssertionError(f"Interval({lo}, {hi}) was accepted")
    Interval(1.0, 1.0)
    Interval(-math.inf, math.inf)
    for normal in [(2, 4), (-1, 1), (0, -3), (0, 0), ()]:
        try:
            Hyperplane(normal)
        except HyperplaneError:
            continue
        raise AssertionError(f"Hyperplane({normal}) was accepted")


def test_an_interval_is_its_pair():
    for lo, hi in [(-0.5, 1.5), (0.0, 0.0), (-math.inf, 2.0), (1e-300, 1e308)]:
        iv = Interval(lo, hi)
        assert iv == (lo, hi) and (lo, hi) == iv
        assert hash(iv) == hash((lo, hi))
        assert list(iv) == [lo, hi] and (iv.lo, iv.hi) == (iv[0], iv[1]) == (lo, hi)
        a, b = iv
        assert (a, b) == (lo, hi)
    assert Interval(1.0, 2.0) != (1.0, 2.5)
    assert Hyperplane((1, -1)) == ((1, -1),)


if __name__ == "__main__":
    run_standalone(globals())
