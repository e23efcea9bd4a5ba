import json

import numpy as np
import pytest

from filtration_lab import fixtures
from filtration_lab.errors import NotPredictable
from filtration_lab.jump_measure import MARKS, MarkedMeasure, compensator_measure, jump_measure
from filtration_lab.representation import martingale_closure, solve_wrp
from filtration_lab.serialize import (
    bundle_from_doc,
    bundle_to_doc,
    measure_from_doc,
    measure_to_doc,
    random_time_from_doc,
    random_time_to_doc,
    solution_to_doc,
    space_from_doc,
    space_to_doc,
)


def _json_roundtrip(doc):
    return json.loads(json.dumps(doc))


class TestSpaceDoc:
    def test_roundtrip_with_filtration_and_processes(self, space_a_bundle):
        b = space_a_bundle
        doc = _json_roundtrip(
            space_to_doc(b.space, b.g, {"X": b.X.values, "H": b.H.values})
        )
        assert doc["schema"] == "filtration-lab/space-v1"
        space, filtration, processes = space_from_doc(doc)
        assert np.array_equal(space.probs, b.space.probs)
        assert filtration.partitions == b.g.partitions
        assert np.array_equal(processes["X"], b.X.values)
        assert np.array_equal(processes["H"], b.H.values)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError):
            space_from_doc({"schema": "filtration-lab/space-v2", "atoms": []})


class TestBundleDoc:
    def test_roundtrip(self):
        for b in (fixtures.space_a(), fixtures.fixture_a2(), fixtures.avoidance_trinomial()):
            doc = _json_roundtrip(bundle_to_doc(b))
            back = bundle_from_doc(doc)
            assert back.name == b.name
            assert np.array_equal(back.X.values, b.X.values)
            assert back.g.partitions == b.g.partitions
            assert back.initial == b.initial


class TestMeasureDoc:
    def test_event_form_roundtrip(self, space_a_bundle):
        b = space_a_bundle
        mu = jump_measure(b.X, b.H)
        doc = _json_roundtrip(measure_to_doc(mu))
        back = measure_from_doc(doc, b.g)
        assert back.events == mu.events

    def test_density_form_roundtrip(self, space_a_bundle):
        b = space_a_bundle
        nu = compensator_measure(jump_measure(b.X, b.H))
        doc = _json_roundtrip(measure_to_doc(nu))
        back = measure_from_doc(doc, b.g)
        for mark in MARKS:
            assert np.array_equal(
                back.indicator_increments(mark), nu.indicator_increments(mark)
            )


def _events_doc(events):
    return {"schema": "filtration-lab/measure-v1", "predictable_density": False, "events": events}


def _density_doc(per_mark):
    return {
        "schema": "filtration-lab/measure-v1",
        "predictable_density": True,
        "densities": {str(list(m.value)): per_mark(m) for m in MARKS},
    }


_ZEROS = [[0.0, 0.0]] * 3
#: (what is wrong, measure-v1 document on fixture_a2 (3 atoms, horizon 1), error)
BAD_MEASURE_DOCS = [
    ("event_at_time_0_and_two_marks", _events_doc([[[0, [1, 0]], [1, [1, 0]], [1, [0, 1]]], [], []]), ValueError),
    ("event_at_time_0", _events_doc([[[0, [1, 0]]], [], []]), ValueError),
    ("two_marks_at_one_time", _events_doc([[[1, [1, 0]], [1, [0, 1]]], [], []]), ValueError),
    ("same_event_twice", _events_doc([[[1, [1, 0]], [1, [1, 0]]], [], []]), ValueError),
    ("event_past_horizon", _events_doc([[[2, [1, 0]]], [], []]), ValueError),
    ("event_time_not_an_integer", _events_doc([[[1.5, [1, 0]]], [], []]), ValueError),
    ("unknown_mark", _events_doc([[[1, [0, 0]]], [], []]), ValueError),
    ("events_for_two_atoms", _events_doc([[], []]), ValueError),
    ("density_wrong_shape", _density_doc(lambda m: [[0.0, 0.5]] * 2), ValueError),
    ("density_ragged", _density_doc(lambda m: [[0.0, 0.5], [0.0]] + [[0.0, 0.5]]), ValueError),
    ("density_mass_at_time_0", _density_doc(lambda m: [[0.1, 0.5]] * 3), ValueError),
    (
        "density_not_predictable",
        _density_doc(lambda m: [[0.0, 0.5], [0.0, 0.2], [0.0, 0.5]] if m is MARKS[0] else _ZEROS),
        NotPredictable,
    ),
]


class TestMeasureValidation:
    @pytest.mark.parametrize(
        "what,doc,error", BAD_MEASURE_DOCS, ids=[w for w, _, _ in BAD_MEASURE_DOCS]
    )
    def test_bad_document_rejected(self, a2_bundle, what, doc, error):
        with pytest.raises(error):
            measure_from_doc(_json_roundtrip(doc), a2_bundle.g)

    def test_good_documents_read(self, a2_bundle):
        mu = measure_from_doc(_events_doc([[[1, [1, 0]]], [[1, [1, 1]]], []]), a2_bundle.g)
        assert mu.events == (((1, MARKS[0]),), ((1, MARKS[2]),), ())
        nu = measure_from_doc(_density_doc(lambda m: [[0.0, 0.25]] * 3), a2_bundle.g)
        assert np.all(nu.increments[:, :, 1] == 0.25)

    def test_constructor_checks_event_entries(self, a2_bundle):
        inc = np.zeros((3, 3, 2))
        inc[0, 1, 1] = 0.5
        with pytest.raises(ValueError):
            MarkedMeasure(a2_bundle.g, inc, is_predictable_density=False)
        with pytest.raises(ValueError):
            MarkedMeasure(a2_bundle.g, np.zeros((3, 3, 3)), is_predictable_density=True)


class TestRandomTimeDoc:
    def test_roundtrip_including_never(self):
        for rb in (fixtures.staggered_random_time(), fixtures.never_random_time()):
            doc = _json_roundtrip(random_time_to_doc(rb))
            back = random_time_from_doc(doc)
            assert np.array_equal(back.tau, rb.tau)
            assert back.g.partitions == rb.g.partitions
            assert np.array_equal(back.azema.values, rb.azema.values)


class TestSolutionDoc:
    def test_solution_document(self, a2_bundle):
        b = a2_bundle
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        sol = solve_wrp(martingale_closure(np.array([0.0, 0.0, 1.0]), b.g), mu, nu)
        doc = _json_roundtrip(solution_to_doc(sol))
        assert doc["schema"] == "filtration-lab/solution-v1"
        assert doc["kind"] == "wrp"
        assert doc["residual_sup"] <= 1e-9
        assert set(doc["integrands"]) == {"W(1, 0)", "W(0, 1)", "W(1, 1)"}
