import numpy as np
import pytest

from conewave import _rk45
from conewave import radialode as ro
from conewave.errors import DomainError, StepFailure
from conewave.frobenius import ORIGIN_START, seed_origin


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


def test_samples_are_as_accurate_as_landed_checkpoints():
    # u'' = -u at rtol 1e-10 on 400 points: a sample's Hermite value is as
    # close to the exact solution as the value of a step landed on it
    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0 + 0.0j]])
    xs = np.linspace(0.05, 19.95, 400)
    exact = np.stack([np.sin(xs), np.cos(xs)], axis=-1)
    _, vals, _ = _rk45.solve(_oscillator, 0.0, 20.0, y0, rtol=1e-10,
                             checkpoints=xs)
    out = np.empty((len(xs), 2), dtype=complex)
    _, none, _ = _rk45.solve(_oscillator, 0.0, 20.0, y0, rtol=1e-10,
                             samples=(xs, out))
    assert none is None
    cp_err = np.max(np.abs(vals[:, :, 0] - exact))
    sample_err = np.max(np.abs(out - exact))
    assert sample_err <= 2.0 * cp_err, (sample_err, cp_err)


def test_samples_leave_the_steps_alone():
    # samples neither clip a step nor call f: the run is the free run,
    # descending here, and each sample sits on the step that covers it
    def f(x, y):
        f.calls += 1
        return _oscillator(x, y)

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    xs = np.linspace(6.0, 0.0, 61)
    out = np.empty((61, 1), dtype=complex)
    f.calls = 0
    free, _, dense = _rk45.solve(f, 6.0, 0.0, y0, rtol=1e-11, dense=True)
    n_free = f.calls
    f.calls = 0
    y, _, _ = _rk45.solve(f, 6.0, 0.0, y0, rtol=1e-11, samples=(xs, out))
    assert f.calls == n_free and np.array_equal(y, free)
    assert out[0, 0] == y0[0, 0] and out[-1, 0] == y[0, 0]
    assert np.max(np.abs(out[:, 0] - dense(xs)[0])) <= 1e-14
    assert np.max(np.abs(out[:, 0] - np.sin(xs - 6.0))) <= 1e-9


@pytest.mark.parametrize("xs", [
    [0.5, 2.0],     # beyond x_end: its row was never written
    [0.7, 0.5],     # not monotone
])
def test_samples_are_checked_before_stepping(xs):
    def f(x, y):
        f.calls += 1
        return _oscillator(x, y)

    f.calls = 0
    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    with pytest.raises(DomainError):
        _rk45.solve(f, 0.0, 1.0, y0, samples=(np.array(xs),
                                              np.empty((2, 1), complex)))
    assert f.calls == 0


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
    assert np.max(np.abs(vals[:, 0, 1] - np.cos(cps))) <= 1e-9


def test_a_checkpoint_at_the_start_costs_no_step():
    # u'' = -u from 0 to 2: the state at x0 is recorded before stepping
    def f(x, y):
        f.calls += 1
        return _oscillator(x, y)

    def calls(checkpoints):
        f.calls = 0
        out = _rk45.solve(f, 0.0, 2.0, y0, rtol=1e-10,
                          checkpoints=np.array(checkpoints))
        return f.calls, out[1]

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    with_start, vals = calls([0.0, 1.0])
    assert with_start == calls([1.0])[0]
    assert np.array_equal(vals[0], y0)


def test_stage_abscissae_come_in_groups_of_six():
    # k1 once, then each attempted step calls f at the scalar x + _C[i] h,
    # i = 1..6, from the last accepted x; conebench counts attempted steps
    # this way.  A step that would pass a checkpoint lands on it
    xs = []

    def f(x, y):
        xs.append(x)
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0 + 0.0j]])
    cps = np.array([0.3, 0.3001, 1.7, 2.5])
    _rk45.solve(f, 0.0, 3.0, y0, rtol=1e-9, checkpoints=cps, h0=2.0)
    assert all(np.ndim(x) == 0 for x in xs)
    assert xs[0] == 0.0 and (len(xs) - 1) % 6 == 0
    start, end, rejected, ends = 0.0, None, 0, []
    for g in range(1, len(xs), 6):
        group = xs[g:g + 6]
        # a step starts where the last one ended (accepted) or where the
        # last one started (rejected); group[4] is its end, x0 + h
        x0s = [x0 for x0 in (start, end) if x0 is not None and all(
            abs(xi - (x0 + _rk45._C[i] * (group[4] - x0))) <= 1e-14
            for i, xi in enumerate(group, start=1))]
        assert x0s, group
        rejected += x0s[0] == start and g > 1
        start, end = x0s[0], group[4]
        ends.append(end)
    assert end == 3.0 and rejected > 0
    assert all(np.min(np.abs(np.array(ends) - c)) <= 1e-15 for c in cps)


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


@pytest.mark.parametrize("x0, x_end, cps", [
    (0.0, 1.0, [0.5, 2.0]),     # beyond x_end: its slot was never written
    (0.0, 1.0, [0.7, 0.5]),     # not monotone: the steps never ended
    (0.0, 1.0, [-0.1, 0.5]),    # before x0
    (1.0, 0.0, [0.5, 0.7]),     # ascending on a descending run
    (0.0, 1.0, [0.2, np.nan]),
    (0.0, 0.0, [0.0, 0.1]),     # outside the empty interval
])
def test_checkpoints_are_checked_before_stepping(x0, x_end, cps):
    def f(x, y):
        f.calls += 1
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    f.calls = 0
    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    with pytest.raises(DomainError):
        _rk45.solve(f, x0, x_end, y0, checkpoints=np.array(cps))
    assert f.calls == 0


def test_checkpoints_may_repeat_and_touch_both_ends():
    f = lambda x, y: np.stack([y[..., 1], -y[..., 0]], axis=-1)
    y0 = np.array([[0.0 + 0.0j, 1.0 + 0.0j]])
    cps = np.array([1.0, 0.6, 0.6, 0.0])
    _, vals, _ = _rk45.solve(f, 1.0, 0.0, y0, rtol=1e-11, checkpoints=cps)
    assert np.array_equal(vals[0], y0)
    assert np.max(np.abs(vals[1:, 0, 0] - np.sin(cps[1:] - 1.0))) <= 1e-9


# ---------------------------------------------------------------------------
# the step loop and spectral RHS as they were before their numpy calls were
# trimmed: the kernel must do the same floating-point operations in the same
# order, so its results are bit-identical
# ---------------------------------------------------------------------------

_ROWS = tuple(_rk45._A[i, :i] for i in range(7))
_E = _rk45._A[6] - np.array(_rk45._B4)


def _reference_solve(f, x0, x_end, y0, rtol, atol, checkpoints, h0):
    """(y_end, checkpoint values, dense segment arrays)."""
    y = np.atleast_2d(np.asarray(y0, dtype=complex))
    direction = 1.0 if x_end >= x0 else -1.0
    span = abs(x_end - x0)
    cps = np.asarray(checkpoints, dtype=float)
    cp_vals = np.empty((len(cps),) + y.shape, dtype=complex)
    h = direction * min(abs(h0), span)
    x = x0
    stages = np.empty((7,) + y.shape, dtype=complex)
    flat = stages.view(float).reshape(7, -1)
    stages[0] = f(x, y)
    abs_y = np.abs(y)
    segs = ([], [], [], [], [], [])
    next_cp = 0
    while next_cp < len(cps) and cps[next_cp] == x0:
        cp_vals[next_cp] = y
        next_cp += 1
    while direction * (x_end - x) > 0:
        x_stop = cps[next_cp] if next_cp < len(cps) else x_end
        h_free = h
        clipped = direction * (x + h - x_stop) > 0
        if clipped:
            h = x_stop - x
        for i in range(1, 7):
            incr = ((h * _ROWS[i]) @ flat[:i]).view(complex).reshape(y.shape)
            y5 = y + incr
            stages[i] = f(x + _rk45._C[i] * h, y5)
        err = ((h * _E) @ flat).view(complex).reshape(y.shape)
        abs_y5 = np.abs(y5)
        mag = np.maximum(abs_y, abs_y5).max(axis=-1, keepdims=True)
        scale = atol + rtol * mag
        emax = np.max(np.abs(err) / scale)
        if emax <= 1.0:
            for seg, v in zip(segs, (x, x + h, y[0].copy(), stages[0, 0].copy(),
                                     y5[0].copy(), stages[6, 0].copy())):
                seg.append(v)
            x = x + h
            y, abs_y = y5, abs_y5
            stages[0] = stages[6]
            while next_cp < len(cps) and direction * (cps[next_cp] - x) <= 1e-15 * max(1.0, abs(x)):
                cp_vals[next_cp] = y
                next_cp += 1
            fac = 2.0 if emax == 0.0 else min(2.0, max(0.25, 0.9 * emax ** -0.2))
            h = h * fac
            if clipped:
                h = direction * max(abs(h_free), abs(h))
        else:
            h = h * max(0.1, 0.9 * emax ** -0.2)
    return y, cp_vals, tuple(np.array(seg) for seg in segs)


def _reference_rhs(d, lam, variant, sigma=None):
    c0 = ro.zero_order_coeff(d, lam, variant)
    two_ld = 2.0 * lam + d
    if sigma is None:
        def f(rho, y):
            u, up = y[..., 0], y[..., 1]
            b = (d - 1.0) / rho - two_ld * rho
            out = np.empty_like(y)
            out[..., 0] = up
            out[..., 1] = (c0 * u - b * up) / (1.0 - rho * rho)
            return out
        return f
    c_sig = c0 + sigma * (d - 0.5 + lam)
    s_d1 = sigma * (d - 1.0)
    two_ls = two_ld + 2.0 * sigma

    def f_gauged(rho, y):
        w, wp = y[..., 0], y[..., 1]
        b = (d - 1.0) / rho - two_ls * rho - 2.0 * sigma
        out = np.empty_like(y)
        out[..., 0] = wp
        out[..., 1] = ((c_sig + s_d1 / rho) * w - b * wp) / (1.0 - rho * rho)
        return out
    return f_gauged


def _oscillator(x, y):
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def _same_as_reference(f, f_ref, x0, x_end, y0, cps, rtol, atol, h0):
    y, vals, dense = _rk45.solve(f, x0, x_end, y0, rtol=rtol, atol=atol,
                                 checkpoints=cps, dense=True, h0=h0)
    y_ref, vals_ref, segs_ref = _reference_solve(f_ref, x0, x_end, y0, rtol,
                                                 atol, cps, h0)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(vals, vals_ref)
    for name, ref in zip(("xa", "xb", "ya", "fa", "yb", "fb"), segs_ref):
        assert np.array_equal(getattr(dense, name), ref), name
    return len(segs_ref[0])


def test_oscillator_steps_match_the_reference():
    # three members and clustered checkpoints, so steps are clipped onto
    # each checkpoint of a cluster in turn
    y0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, -0.5]], dtype=complex)
    starts = 0.5 * np.arange(12) + 0.25
    cps = (starts[:, None] + 1e-4 * np.arange(4)[None, :]).ravel()
    _same_as_reference(_oscillator, _oscillator, 0.0, 6.5, y0, cps,
                       1e-9, 1e-12, 2.0)
    # descending, checkpoints from x0 toward x_end
    _same_as_reference(_oscillator, _oscillator, 6.0, 0.5, y0,
                       np.array([6.0, 5.9, 5.0, 4.999, 2.0, 0.5]), 1e-10, 1e-12,
                       1.0)


@pytest.mark.parametrize("gauged", [False, True])
def test_spectral_steps_match_the_reference(gauged):
    # 300 lam of the perturbed d 4 equation from ORIGIN_START to 1/2,
    # landing on 50 checkpoints
    lam = np.linspace(0.0, 2.0, 300) + 1j * np.linspace(-1.0, 40.0, 300)
    sigma = 0.5 - lam if gauged else None
    y0 = np.stack(seed_origin(4, lam, "perturbed").eval(ORIGIN_START), axis=-1)
    cps = np.linspace(0.01, 0.5, 50)
    accepted = _same_as_reference(
        ro._batch_rhs(4, lam, "perturbed", sigma),
        _reference_rhs(4, lam, "perturbed", sigma),
        ORIGIN_START, 0.5, y0, cps, 1e-8, 1e-300, 0.5 / 60.0)
    assert accepted > len(cps)


@pytest.mark.parametrize("descending", [False, True])
def test_sample_blocks_hand_over_what_an_array_holds(descending):
    # solve fills a SampleBlocks as it fills an array: the blocks, each of
    # at least width samples but the run's last, put together in
    # ascending order are the array's samples, bit for bit
    y0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    xs = np.linspace(0.1, 5.9, 40)
    x0, x_end = (6.0, 0.0) if descending else (0.0, 6.0)
    run = xs[::-1] if descending else xs
    held = np.empty((len(xs), 2), dtype=complex)
    _rk45.solve(_oscillator, x0, x_end, y0, rtol=1e-9, samples=(run, held))
    got = {}
    blocks = _rk45.SampleBlocks(3, 43, 7, descending,
                                lambda i, v: got.setdefault(i, v.copy()))
    _rk45.solve(_oscillator, x0, x_end, y0, rtol=1e-9, samples=(run, blocks))
    starts = sorted(got)
    sizes = [got[i].shape[1] for i in starts]
    assert starts == list(3 + np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == len(xs) and len(starts) > 2
    assert min(sizes[1:] if descending else sizes[:-1]) >= 7
    vals = np.concatenate([got[i] for i in starts], axis=1)
    assert np.array_equal(vals.T, held[::-1] if descending else held)


def test_sample_blocks_at_zero_span():
    # solve assigns its one state to every sample
    got = []
    blocks = _rk45.SampleBlocks(0, 3, 7, True, lambda i, v: got.append(v))
    y0 = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
    _rk45.solve(_oscillator, 1.0, 1.0, y0, samples=(np.ones(3), blocks))
    assert len(got) == 1 and np.array_equal(got[0], [[1.0] * 3, [2.0] * 3])
