"""Metric algebra and variable labels of the LP (the solve engines are
tested in ``test_lpbackend.py``)."""

import numpy as np
import pytest

from repro.core.objectives import LinearMetric
from repro.core.variables import VariableIndex
from repro.maps import exponential, fit_map2
from repro.network import Network, queue


class TestLinearMetric:
    def test_dense_accumulates_duplicates(self):
        m = LinearMetric("t", cols=np.array([0, 0, 2]), vals=np.array([1.0, 2.0, 5.0]))
        dense = m.dense(4)
        assert dense[0] == 3.0 and dense[2] == 5.0 and dense[1] == 0.0

    def test_evaluate_with_constant(self):
        m = LinearMetric(
            "t", cols=np.array([1]), vals=np.array([2.0]), constant=0.5
        )
        assert m.evaluate(np.array([0.0, 3.0])) == pytest.approx(6.5)


class TestVariableDescribe:
    def test_triple_blocks_describable(self):
        routing = np.array(
            [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        net = Network(
            [
                queue("a", exponential(1.0)),
                queue("b", exponential(2.0)),
                queue("c", fit_map2(1.0, 4.0, 0.3)),
            ],
            routing,
            3,
        )
        vi = VariableIndex(net)
        assert vi.triples
        label = vi.describe(int(vi.S(0, 1, 2, 0, 0, 1, 1)))
        assert label == "S[0,1,2](0,0,1,1)"
        label = vi.describe(int(vi.T(2, 0, 1, 1, 0, 2, 0)))
        assert label == "T[2,0,1](1,0,2,0)"

    def test_describe_out_of_range(self):
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", exponential(1.0)), queue("b", exponential(2.0))],
            routing,
            2,
        )
        vi = VariableIndex(net)
        with pytest.raises(IndexError):
            vi.describe(vi.size + 10)
