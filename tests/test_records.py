"""The library's result and input records: immutable tuples that check their
values when built, by position or by keyword, and again when unpickled."""

import pickle
from fractions import Fraction

import pytest

from turanweights import (
    CliqueCandidate,
    CliqueSet,
    EdgeWeightRecord,
    Graph,
    LagrangianOutcome,
    ReductionStep,
    ReductionTrace,
    SimplexPoint,
    SweepStats,
    WeightReport,
    WeightScheme,
    complete_graph,
    lagrangian_maximum,
    support_reduce,
    sweep_all_graphs,
    weight_report,
)
from turanweights.lagrangian import _edge_weights

HALF = Fraction(1, 2)

# (record class, positional arguments, error type, message) of every rejected value
INVALID = [
    (Graph, (-1, ()), ValueError, "vertex count must be nonnegative"),
    (Graph, (2, (1,)), ValueError, "adjacency length does not match"),
    (Graph, (2, (0b100, 0)), ValueError, "references vertices >= 2"),
    (Graph, (2, (0b1, 0)), ValueError, "self-loop at vertex 0"),
    (Graph, (2, (0b10, 0)), ValueError, "asymmetric adjacency"),
    (WeightScheme, ("exotic",), ValueError, "unknown weight mode"),
    (WeightScheme, ("constant", 0), ValueError, "constant weight must be positive"),
    (WeightScheme, ("constant", 0.5), TypeError, "floating-point"),
    (SimplexPoint, ((Fraction(3, 2), -HALF),), ValueError, "must be nonnegative"),
    (SimplexPoint, ((HALF, Fraction(1, 3)),), ValueError, "must sum to 1"),
    (SimplexPoint, ((0.5, 0.5),), TypeError, "floating-point"),
    (CliqueSet, ((2, 1),), ValueError, "sorted and distinct"),
    (CliqueSet, ((1, 1),), ValueError, "sorted and distinct"),
]

FIELDS = {
    Graph: ("n", "adj"),
    WeightScheme: ("mode", "c"),
    SimplexPoint: ("coords",),
    CliqueSet: ("vertices",),
}


def examples():
    """One valid instance of every record class."""
    g = complete_graph(3)
    out = lagrangian_maximum(g, WeightScheme.clique_weighted())
    _, trace = support_reduce(Graph(2, (0, 0)), WeightScheme.constant(1), SimplexPoint.uniform(2))
    report = weight_report(g)
    return [g, WeightScheme.constant(HALF), out.witness, out.support, out, out.candidates[0],
            trace, trace[0], report, report.records[0], sweep_all_graphs(3)]


@pytest.mark.parametrize("cls, args, error, message", INVALID)
def test_invalid_values_rejected_by_position_and_keyword(cls, args, error, message):
    with pytest.raises(error, match=message):
        cls(*args)
    with pytest.raises(error, match=message):
        cls(**dict(zip(FIELDS[cls], args)))


@pytest.mark.parametrize("cls, args, error, message", INVALID)
def test_unpickling_revalidates(cls, args, error, message):
    # built past the check, as _make and _replace build records
    forged = tuple.__new__(cls, args if cls in (Graph, WeightScheme) else args[0])
    data = pickle.dumps(forged)
    with pytest.raises(error, match=message):
        pickle.loads(data)


@pytest.mark.parametrize("record", examples(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)


@pytest.mark.parametrize("record", examples(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    names = getattr(record, "_fields", None) or [
        {CliqueSet: "vertices", SimplexPoint: "coords", ReductionTrace: "steps"}[type(record)]]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_construction_matches_positional():
    assert Graph(n=2, adj=(2, 1)) == Graph(2, (2, 1))
    assert WeightScheme(mode="constant", c=HALF) == WeightScheme("constant", HALF)
    assert SimplexPoint(coords=(HALF, HALF)) == SimplexPoint((HALF, HALF))
    assert CliqueSet(vertices=(0, 3)) == CliqueSet((0, 3))
    assert ReductionTrace(steps=()) == ReductionTrace(())


def test_graph_and_scheme_hash_by_value():
    # both are lru_cache keys of the weight table: a graph rebuilt from its
    # values must hit the entry its first copy made
    g, h = complete_graph(4), Graph(4, (14, 13, 11, 7))
    assert g == h and hash(g) == hash(h) == hash((4, (14, 13, 11, 7)))
    assert g != complete_graph(3)
    s, t = WeightScheme("constant", 2), WeightScheme.constant(Fraction(2))
    assert s == t and hash(s) == hash(t) == hash(("constant", Fraction(2)))
    assert s != WeightScheme.constant(3)
    _edge_weights.cache_clear()
    assert _edge_weights(g, s) is _edge_weights(h, t)


def test_records_equal_plain_tuples_of_their_fields():
    assert Graph(1, (0,)) == (1, (0,))
    assert CliqueSet((0, 2)) == (0, 2)


def test_defaults():
    scheme = WeightScheme("clique")
    assert scheme.c == 1 and type(scheme.c) is Fraction
    assert ReductionTrace().steps == () and len(ReductionTrace()) == 0


def test_normalised_on_construction():
    assert type(WeightScheme("constant", 3).c) is Fraction
    assert [type(c) for c in SimplexPoint([1, 0])] == [Fraction, Fraction]


def test_repr_keeps_field_names_and_leaves_out_candidates():
    out = lagrangian_maximum(complete_graph(2), WeightScheme.clique_weighted())
    assert len(out.candidates) == 3
    assert repr(out) == (
        "LagrangianOutcome(maximum=Fraction(1, 4), support=CliqueSet(vertices=(0, 1)), "
        "witness=SimplexPoint(coords=(Fraction(1, 2), Fraction(1, 2))))")
    assert repr(Graph(2, (2, 1))) == "Graph(n=2, adj=(2, 1))"
    assert repr(WeightScheme("clique")) == "WeightScheme(mode='clique', c=Fraction(1, 1))"
    assert repr(ReductionTrace()) == "ReductionTrace(steps=())"


def test_sequence_records_keep_len_iteration_and_old_property():
    clique = CliqueSet((0, 2, 5))
    assert len(clique) == 3 and list(clique) == [0, 2, 5] and clique.vertices == (0, 2, 5)
    point = SimplexPoint((HALF, 0, HALF))
    assert len(point) == 3 and list(point) == [HALF, 0, HALF]
    assert point.coords == (HALF, 0, HALF) and type(point.coords) is tuple
    _, trace = support_reduce(Graph(2, (0, 0)), WeightScheme.constant(1), SimplexPoint.uniform(2))
    assert len(trace) == 1 and list(trace) == list(trace.steps)
    assert type(trace.steps) is tuple and isinstance(trace.steps[0], ReductionStep)


def test_field_order():
    assert Graph._fields == ("n", "adj")
    assert WeightScheme._fields == ("mode", "c")
    assert EdgeWeightRecord._fields == ("u", "v", "r", "w")
    assert WeightReport._fields == ("graph", "rs", "total", "bound", "slack")
    assert ReductionStep._fields == ("i", "j", "s_i", "s_j", "f_before", "f_after",
                                     "point_after")
    assert CliqueCandidate._fields == ("clique", "status", "value")
    assert LagrangianOutcome._fields == ("maximum", "support", "witness", "candidates")
    assert SweepStats._fields == ("n", "graphs_checked", "violations", "min_slack",
                                  "tight_count", "tight_examples", "max_total_weight")
