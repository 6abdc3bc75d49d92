"""The percentile helper and the span self-time arithmetic."""

import pytest

from perfsuite import stats
from perfsuite.spans import Span, layer_of, self_times


@pytest.mark.parametrize("p, n", [(99.0, 1000), (98.0, 500), (95.0, 200),
                                  (90.0, 100), (50.0, 20)])
def test_samples_needed_leaves_ten_samples_beyond(p, n):
    assert stats.samples_needed(p) == n
    assert n * (100.0 - p) / 100.0 >= stats.MIN_SAMPLES_BEYOND
    assert (n - 1) * (100.0 - p) / 100.0 < stats.MIN_SAMPLES_BEYOND


def test_percentile_interpolates():
    ordered = [float(i) for i in range(101)]
    assert stats.percentile(ordered, 99.0) == pytest.approx(99.0)
    assert stats.percentile([1.0, 3.0], 50.0) == pytest.approx(2.0)
    assert stats.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.quartile_spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.quartile_spread([3.0]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    #  root      0 ........................ 10
    #  a           1 .... 4
    #  b                3 ..... 6            overlaps a by 1
    #  c                          8 ...... 12   runs past the root
    #  a1            2 . 3                   grandchild: only a's business
    spans = [Span(0, "statement", 7, None, 0.0, 10.0),
             Span(1, "vql.parse", 7, 0, 1.0, 4.0),
             Span(2, "optimizer.search", 7, 0, 3.0, 6.0),
             Span(3, "physical.execute", 7, 0, 8.0, 12.0),
             Span(4, "vql.tokens", 7, 1, 2.0, 3.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 2.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_of():
    assert layer_of("optimizer.search") == "optimizer"
    assert layer_of("statement") == "statement"
