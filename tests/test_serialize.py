import json

import numpy as np
import pytest

from filtration_lab import fixtures
from filtration_lab.cli import report_to_json
from filtration_lab.serialize import _check, bundle_from_doc, space_from_doc


def _json_roundtrip(doc):
    return json.loads(json.dumps(doc))


def _space_doc(space, processes):
    return {
        "schema": "filtration-lab/space-v1",
        "atoms": [{"id": i, "prob": float(p)} for i, p in enumerate(space.probs)],
        "processes": {name: values.tolist() for name, values in processes.items()},
    }


def _bundle_doc(bundle):
    return {
        "schema": "filtration-lab/bundle-v1",
        "name": bundle.name,
        "probs": bundle.space.probs.tolist(),
        "initial": [list(b) for b in bundle.initial.blocks],
        "x_values": bundle.X.values.tolist(),
        "h_values": bundle.H.values.tolist(),
    }


class TestSpaceDoc:
    def test_roundtrip_with_processes(self, space_a_bundle):
        b = space_a_bundle
        doc = _json_roundtrip(_space_doc(b.space, {"X": b.X.values, "H": b.H.values}))
        space, processes = space_from_doc(doc)
        assert np.array_equal(space.probs, b.space.probs)
        assert np.array_equal(processes["X"], b.X.values)
        assert np.array_equal(processes["H"], b.H.values)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError):
            space_from_doc({"schema": "filtration-lab/space-v2", "atoms": []})


class TestBundleDoc:
    def test_roundtrip(self):
        for b in (fixtures.space_a(), fixtures.fixture_a2(), fixtures.avoidance_trinomial()):
            doc = _json_roundtrip(_bundle_doc(b))
            back = bundle_from_doc(doc)
            assert back.name == b.name
            assert np.array_equal(back.X.values, b.X.values)
            assert back.g.partitions == b.g.partitions
            assert back.initial == b.initial


class TestCheckEvidence:
    def test_numpy_bools_are_written_as_python_bools(self):
        # a NumPy bool is not JSON-serialisable, so the row must carry a Python one
        rows = [
            _check("row", np.True_, disjoint=np.True_, orthogonal=np.False_, gap=np.float64(0.5)),
            _check("row", True, disjoint=True, orthogonal=False, gap=0.5),
        ]
        docs = [report_to_json({"checks": [{"name": r.name, "outcome": r.outcome, "evidence": r.evidence}]}) for r in rows]
        assert docs[0] == docs[1]
        assert [type(v) for v in rows[0].evidence.values()] == [bool, bool, float]
