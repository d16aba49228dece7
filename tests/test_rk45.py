import numpy as np
import pytest

from conewave import _rk45
from conewave.errors import StepFailure


def test_exponential_flow():
    f = lambda x, y: y
    y0 = np.array([[1.0 + 0.0j, 2.0 + 0.0j]])
    y, _, _ = _rk45.solve(f, 0.0, 1.0, y0, rtol=1e-12)
    assert np.max(np.abs(y - np.e * y0)) <= 1e-10


def test_checkpoint_landing():
    f = lambda x, y: y
    y0 = np.array([[1.0 + 0.0j]])
    cps = np.array([0.25, 0.5, 0.9])
    _, vals, _ = _rk45.solve(f, 0.0, 1.0, y0, rtol=1e-11, checkpoints=cps)
    for cp, v in zip(cps, vals):
        assert abs(v[0, 0] - np.exp(cp)) <= 1e-9


def test_descending_direction():
    f = lambda x, y: -y
    y0 = np.array([[1.0 + 0.0j]])
    y, _, _ = _rk45.solve(f, 1.0, 0.0, y0, rtol=1e-11)
    assert abs(y[0, 0] - np.e) <= 1e-9


def test_dense_output_second_order():
    # y = (u, u') for u'' = -u: dense values hit sin/cos to integrator order
    def f(x, y):
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    _, _, dense = _rk45.solve(f, 0.0, 3.0, y0, rtol=1e-11, dense=True)
    xs = np.linspace(0.1, 2.9, 29)
    u, du = dense(xs)
    assert np.max(np.abs(u - np.sin(xs))) <= 1e-9
    assert np.max(np.abs(du - np.cos(xs))) <= 1e-8


def test_batch_independent_members():
    rates = np.array([-1.0, -2.0, 0.5])

    def f(x, y):
        return rates[:, None] * y

    y0 = np.ones((3, 1), dtype=complex)
    y, _, _ = _rk45.solve(f, 0.0, 1.0, y0, rtol=1e-11)
    assert np.max(np.abs(y[:, 0] - np.exp(rates))) <= 1e-9


def test_step_failure():
    # a RHS singular inside the interval forces step collapse
    f = lambda x, y: y / (0.5 - x)
    y0 = np.array([[1.0 + 0.0j]])
    with pytest.raises(StepFailure):
        _rk45.solve(f, 0.0, 1.0, y0, rtol=1e-10)


def test_checkpoint_clusters_keep_the_step():
    # u'' = -u with 40 clusters of 5 checkpoints 1e-4 apart: landing on a
    # checkpoint costs at most one extra step, it does not reset the step
    def f(x, y):
        f.calls += 1
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    def attempted_steps(checkpoints):
        f.calls = 0
        out = _rk45.solve(f, 0.0, 20.0, y0, rtol=1e-10, checkpoints=checkpoints)
        return (f.calls - 1) // 6, out  # k1 once, then six stages per step

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    starts = 0.5 * np.arange(40) + 0.25
    cps = (starts[:, None] + 1e-4 * np.arange(5)[None, :]).ravel()
    free, _ = attempted_steps(None)
    clipped, (_, vals, _) = attempted_steps(cps)
    assert clipped <= free + len(cps)
    assert np.max(np.abs(vals[:, 0, 0] - np.sin(cps))) <= 1e-9


def test_passed_checkpoints_cost_no_step():
    # the same 40 clusters: a step lands on the last checkpoint of a
    # cluster it reaches and fills the others by one sub-step batch, so
    # the clusters cost at most one main step each
    def f(x, y):
        f.scalar_calls += np.ndim(x) == 0
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    def main_steps(checkpoints):
        f.scalar_calls = 0
        out = _rk45.solve(f, 0.0, 20.0, y0, rtol=1e-10, checkpoints=checkpoints)
        return (f.scalar_calls - 1) // 6, out

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    starts = 0.5 * np.arange(40) + 0.25
    cps = (starts[:, None] + 1e-4 * np.arange(5)[None, :]).ravel()
    free, _ = main_steps(None)
    landed, (_, vals, _) = main_steps(cps)
    assert landed <= free + len(starts)
    assert np.max(np.abs(vals[:, 0, 0] - np.sin(cps))) <= 1e-9
    assert np.max(np.abs(vals[:, 0, 1] - np.cos(cps))) <= 1e-9


def test_stage_abscissae_come_in_groups_of_six():
    # k1 once, then each attempted step calls f at x + _C[i] h, i = 1..6,
    # from the last accepted x; conebench counts attempted steps this way.
    # An accepted step that passed checkpoints is followed by one sub-step
    # batch: five calls with (m, 1) abscissae x0 + _C[i] (c - x0),
    # i = 1..5, from the step's start x0 onto the m passed checkpoints c
    xs = []

    def f(x, y):
        xs.append(x)
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0 + 0.0j]])
    cps = np.array([0.3, 0.3001, 1.7, 2.5])
    _rk45.solve(f, 0.0, 3.0, y0, rtol=1e-9, checkpoints=cps, h0=2.0)
    scalar = [x for x in xs if np.ndim(x) == 0]
    assert xs[0] == 0.0 and (len(scalar) - 1) % 6 == 0
    assert (len(xs) - len(scalar)) % 5 == 0
    start, end, rejected, substeps, accepted = 0.0, None, 0, 0, False
    g = 1
    while g < len(xs):
        if np.ndim(xs[g]) == 2:
            group = xs[g:g + 5]
            passed = cps[(cps > start) & (cps < end)][:, None]
            assert len(passed) and all(np.array_equal(
                xi, start + _rk45._C[i] * (passed - start))
                for i, xi in enumerate(group, start=1)), group
            substeps += 1
            accepted = True
            g += 5
            continue
        group = xs[g:g + 6]
        # a step starts where the last one ended (accepted) or where the
        # last one started (rejected); group[4] is its end, x0 + h
        x0s = [x0 for x0 in (start, end) if x0 is not None and all(
            abs(xi - (x0 + _rk45._C[i] * (group[4] - x0))) <= 1e-14
            for i, xi in enumerate(group, start=1))]
        assert x0s, group
        assert not accepted or x0s[0] == end
        rejected += x0s[0] == start and g > 1
        start, end, accepted = x0s[0], group[4], False
        g += 6
    assert end == 3.0 and rejected > 0 and substeps > 0


def test_results_are_not_views_of_the_stage_buffer():
    def f(x, y):
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    cps = np.array([0.5, 1.0])
    y, vals, _ = _rk45.solve(f, 0.0, 2.0, y0, rtol=1e-10, checkpoints=cps)
    y_copy, vals_copy = y.copy(), vals.copy()
    _rk45.solve(f, 0.0, 2.0, 3.0 * y0, rtol=1e-10, checkpoints=cps)
    assert np.array_equal(y, y_copy)
    assert np.array_equal(vals, vals_copy)
    assert not np.shares_memory(y, vals)
